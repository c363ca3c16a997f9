#!/usr/bin/env python3
"""Benchmark of phase_toolkit: one workload, one client, closed loop.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Workloads: spectrum, enumerate, uniqueness, cli (see workloads.py).  The
package is imported from ./src, never from an installed copy.  Every output
is checked against ground truth known by construction; checks are not timed.

After the timed pass, the workload's probe inputs (spectrum's hard zero
geometries, on which the package fails in the baseline) run once, untimed
and outside `attempted`; each failure is printed with its input id.

With --trace 0 the last line carries the end-to-end metrics.  With
--trace 1 the first half of the timed rounds and the probe run again,
traced, and the last line carries the per-layer metrics; spans are written
to .perfbench_out/spans-<workload>-seed<seed>.jsonl.
"""

import os

# BLAS and OpenMP threads are pinned before numpy loads: one client, and the
# eigenproblems are at most 30x30, so extra threads only add noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, features  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "phase_toolkit"
SUBMODULES = ("config", "signals", "factorization", "enumeration", "criteria",
              "counterexamples", "serialization", "cli")
SETUP_REPS = 21
"""Set-ups per run: the first builds the run's inputs, the others are spread
evenly over the timed pass, so that their median sees the same machine as
the items do rather than one moment of it."""
DEADLINE_S = 75.0
"""No round starts after this much wall time in one pass, so that even a
traced run (two passes) ends well within three minutes."""

clock = time.perf_counter


def import_package():
    """Import the package afresh from ./src, so each set-up pays the import."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    pt = importlib.import_module(PACKAGE)
    for name in SUBMODULES:
        importlib.import_module(f"{PACKAGE}.{name}")
    origin = pathlib.Path(pt.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"{PACKAGE} was imported from {origin}, not from {SRC}")
    return pt


class Record:
    __slots__ = ("item", "elapsed", "status", "detail", "zero_err", "round")

    def __init__(self, item, elapsed, status, detail, zero_err=0.0):
        self.item, self.elapsed, self.status = item, elapsed, status
        self.detail, self.zero_err = detail, zero_err
        self.round = 0


def run_item(workload, item, tracer=None):
    """Time one input, then check its output with tracing off."""
    if tracer is not None:
        tracer.input_id = item["id"]
        tracer.active = True
    start = clock()
    try:
        output, error = workload.run(item), None
    except Exception as exc:  # the benchmark keeps going and reports the failure
        output, error = None, exc
    elapsed = clock() - start
    if tracer is not None:
        tracer.active = False
    if error is not None:
        typed = isinstance(error, (ValueError, ArithmeticError))
        return Record(item, elapsed, "raised" if typed else "crashed",
                      f"{type(error).__name__}: {str(error)[:160]}")
    try:
        status, detail = workload.check(item, output)
    except Exception as exc:
        status, detail = "wrong", f"check raised {type(exc).__name__}: {exc}"
    if status == "ok":
        return Record(item, elapsed, status, None, detail or 0.0)
    return Record(item, elapsed, status, detail)


def timed_pass(workload, rounds, seconds, tracer=None, max_rounds=None, after_round=None):
    """Whole rounds until `seconds` of item time, or `max_rounds` rounds.

    `after_round(busy)`, when given, runs between rounds, outside item time.
    """
    records = []
    busy = 0.0
    done = 0
    started = clock()
    while True:
        for item in rounds[done % len(rounds)]:
            record = run_item(workload, item, tracer)
            record.round = done
            records.append(record)
            busy += record.elapsed
        done += 1
        if busy >= seconds or clock() - started > DEADLINE_S or done == max_rounds:
            break
        if after_round is not None:
            after_round(busy)
    return records, done


def setup(workload_cls, seed, scratch):
    """Import, generate inputs and warm up once; returns the set-up and its time."""
    start = clock()
    pt = import_package()
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=scratch)
    workload = workload_cls(pt, seed, workdir)
    rounds = workload.rounds()
    probe = workload.probe_items()
    for item in workload.warmup_items():
        run_item(workload, item)
    return pt, workload, rounds, probe, clock() - start


def repeat_setup(workload_cls, seed, scratch):
    """Time one more set-up, then drop it: the modules of the run's own
    import go back into sys.modules, its input files are removed and its
    objects are collected, all outside the time."""
    modules = {k: m for k, m in sys.modules.items()
               if k == PACKAGE or k.startswith(PACKAGE + ".")}
    try:
        _, workload, _, _, seconds = setup(workload_cls, seed, scratch)
    finally:
        for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
            del sys.modules[key]
        sys.modules.update(modules)
    shutil.rmtree(workload.workdir, ignore_errors=True)
    del workload
    gc.collect()
    return seconds


def census(records):
    """Histogram over N, slice shares and pair-geometry shares of the inputs run."""
    total = len(records)
    sizes = collections.Counter(r.item["n"] for r in records)
    slices = collections.Counter(r.item["slice"] for r in records)
    geometry = collections.Counter()
    for r in records:
        for key, present in features(r.item.get("pairs", ())).items():
            geometry[key] += int(present)
    share = lambda count: f"{100.0 * count / total:.1f}%"  # noqa: E731
    return [
        "census N: " + ", ".join(f"N={n}: {c}" for n, c in sorted(sizes.items())),
        "census slices: " + ", ".join(f"{k} {share(c)}" for k, c in sorted(slices.items())),
        "census pairs: " + ", ".join(f"{k} {share(geometry[k])}"
                                     for k in ("repeated", "on_circle", "near_circle")),
    ]


def timing_metrics(records, setup_times):
    times = sorted(r.elapsed for r in records)
    count = len(times)
    # the highest percentile with 10 samples beyond it, but never below p90:
    # with fewer than 100 samples, p90 with count // 10 samples beyond it
    beyond = min(10, count // 10)
    tail, pct = times[count - 1 - beyond], 100.0 * (count - beyond) / count
    failed = sum(r.status != "ok" for r in records)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups: "
                    + ", ".join(f"{t:.4f}" for t in setup_times)),
        # whole rounds of one input mix: a median over rounds would jump
        # between the rounds' own rates when the machine's speed shifts
        "items_per_s": (count / sum(times), "1/s",
                        f"{count} inputs in {sum(times):.3f} s of item time"),
        "item_p50_ms": (1000.0 * statistics.median(times), "ms", f"n={count}"),
        "item_tail_ms": (1000.0 * tail, "ms", f"p{pct:.1f}, n={count}, {beyond} samples beyond"),
        "error_rate": (failed / count, "ratio", f"{failed} of {count} inputs raised or failed their check"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "peak resident memory of this process"),
    }
    return metrics


def environment_line():
    pins = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"environment: python {platform.python_version()}, numpy {np.__version__}, "
            f"nproc {os.cpu_count()}, {pins}; closed loop, 1 client")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"error: no {PACKAGE} sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench_tmp"
    try:
        workload_cls = WORKLOADS[args.workload]
        try:
            pt, workload, rounds, probe, first_setup = setup(workload_cls, args.seed, scratch)
        except ImportError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        setup_times = [first_setup]

        def spread_setups(busy):
            while (len(setup_times) < SETUP_REPS
                   and busy >= len(setup_times) * args.seconds / SETUP_REPS):
                setup_times.append(repeat_setup(workload_cls, args.seed, scratch))

        records, round_count = timed_pass(workload, rounds, args.seconds,
                                          after_round=spread_setups)
        while len(setup_times) < SETUP_REPS:
            setup_times.append(repeat_setup(workload_cls, args.seed, scratch))
        probed = [run_item(workload, item) for item in probe]
        traced = None
        if args.trace:
            tracer = tracing.Tracer()
            restore = tracing.install(pt, tracer)
            try:
                # the first half of the same rounds, then the probe
                traced, traced_rounds = timed_pass(workload, rounds, args.seconds, tracer,
                                                   max(1, round_count // 2))
                traced += [run_item(workload, item, tracer) for item in probe]
            finally:
                restore()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload: {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(environment_line())
    print(f"timed pass: {round_count} rounds of {len(rounds[0])} inputs")
    for line in census(records):
        print(line)
    failures = [r for r in records if r.status != "ok"]
    # every failed timed input marks the run incorrect; a probe input only
    # when it crashed (an exception other than the package's typed errors)
    timed_ids = {r.item["id"] for r in records}
    correct = not (failures or any(r.status == "crashed" for r in probed + (traced or []))
                   or any(r.status != "ok" for r in traced or [] if r.item["id"] in timed_ids))
    # a run cycles through its rounds, so the same input can fail more than once
    times_failed = collections.Counter(r.item["id"] for r in failures)
    for r in {r.item["id"]: r for r in failures}.values():
        print(f"failed input {r.item['id']}: {r.status}: {r.detail} "
              f"[{times_failed[r.item['id']]}x; marks the run incorrect]")
    if probed:
        probe_failures = [r for r in probed if r.status != "ok"]
        print(f"probe: {len(probe_failures)} of {len(probed)} inputs failed; "
              + ", ".join(f"{kind} {sum(r.item['slice'] == kind for r in probe_failures)}/"
                          f"{sum(r.item['slice'] == kind for r in probed)}"
                          for kind in dict.fromkeys(r.item["slice"] for r in probed)))
        for r in probe_failures:
            print(f"probe input {r.item['id']}: {r.status}: {r.detail[:160]}"
                  + (" [marks the run incorrect]" if r.status == "crashed" else ""))
    metrics_e2e = timing_metrics(records, setup_times)
    for name, (value, unit, note) in metrics_e2e.items():
        print(f"{name} = {value:.6g} {unit} ({note})")

    if args.trace:
        traced_s = sum(r.elapsed for r in traced)
        untraced_s = (sum(r.elapsed for r in records if r.round < traced_rounds)
                      + sum(r.elapsed for r in probed))
        max_zero_err = max((r.zero_err for r in traced), default=0.0)
        metrics = tracing.layer_metrics(tracer, traced_s, untraced_s, len(traced), max_zero_err)
        for name, entry in metrics.items():
            print(f"{name} = {entry['value']:.6g} {entry['unit']}")
        for layer in ("factorization.find_roots.s", "enumeration.enumerate_solutions.s"):
            print(f"share of traced item time in {layer}: {metrics[layer]['value'] / traced_s:.3f}")
        criteria_s = sum(v["value"] for k, v in metrics.items()
                         if k.startswith("criteria.check_"))
        print(f"share of traced item time in criteria.*: {criteria_s / traced_s:.3f}")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in metrics_e2e.items() if name != "error_rate"}
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
