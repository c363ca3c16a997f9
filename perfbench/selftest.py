#!/usr/bin/env python3
"""Self-test of the benchmark itself, run from the root of the checkout:

    python3 perfbench/selftest.py

1. The same seed gives identical inputs and another seed different ones,
   for every workload (CLI documents included).
2. A short run of every workload, listed in BENCHMARK.json or not, prints
   on its last line exactly the end-to-end metrics named in BENCHMARK.json
   (--trace 0) and exactly the per-layer metrics (--trace 1), each with the
   unit BENCHMARK.json gives.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import phase_toolkit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _plain(value):
    """JSON-ready copy of an input, with complex numbers as [re, im]."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def fingerprint(name, seed, workdir):
    """The inputs of two rounds, the warm-up and the probe, plus every
    document written while building them."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](phase_toolkit, seed, str(workdir))
    inputs = [workload.rounds(2), workload.warmup_items(), workload.probe_items()]
    documents = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    shutil.rmtree(workdir)
    return json.dumps([_plain(inputs), documents], sort_keys=True)


def check_inputs(failures):
    workdir = ROOT / ".perfbench_tmp" / "selftest"
    try:
        for name in sorted(WORKLOADS):
            first = fingerprint(name, 7, workdir)
            if fingerprint(name, 7, workdir) != first:
                failures.append(f"{name}: seed 7 gave different inputs on a second build")
            if fingerprint(name, 8, workdir) == first:
                failures.append(f"{name}: seeds 7 and 8 gave identical inputs")
            print(f"inputs {name}: deterministic per seed", flush=True)
    finally:
        shutil.rmtree(ROOT / ".perfbench_tmp", ignore_errors=True)


def check_metrics(failures):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    listed = {w["name"] for w in spec["workloads"]}
    if not listed <= set(WORKLOADS):
        failures.append(f"BENCHMARK.json names unknown workloads {sorted(listed - set(WORKLOADS))}")
    for name in sorted(WORKLOADS):
        for trace in (0, 1):
            proc = subprocess.run(
                spec["command"] + ["--workload", name, "--seed", "3",
                                   "--seconds", "0.1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(wanted[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted[trace]))}, "
                                f"units {[(k, got[k], u) for k, u in wanted[trace].items() if got.get(k, u) != u]}")
            if not result["attempted"] >= 1:
                failures.append(f"{label}: attempted {result['attempted']}")
            print(f"metrics {label}: {len(got)} emitted, correct={result['correct']}", flush=True)


def main():
    failures = []
    check_inputs(failures)
    check_metrics(failures)
    for line in failures:
        print(f"FAIL {line}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
