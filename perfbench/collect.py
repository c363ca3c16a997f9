#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --workloads spectrum cli --seeds 1 2 3 4 5 \\
        [--seconds 20] [--trace 0] [--out summary.json]

Runs execute one after another, each in its own process, from the root of
the checkout.  For every metric the summary gives the values in seed order,
the median, the quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["wall_s"] = time.monotonic() - started
            result["failed_inputs"] = [line[len("failed input "):] for line in lines
                                       if line.startswith("failed input ")]
            result["probe_failures"] = [line[len("probe input "):] for line in lines
                                        if line.startswith("probe input ")]
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: wall {result['wall_s']:.1f} s, correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], "values": values}
            if len(values) >= 2:
                metrics[name].update(spread(values))
        summary[workload] = {
            "seeds": args.seeds,
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [round(r["wall_s"], 1) for r in runs],
            "failed_inputs": {seed: r["failed_inputs"] for seed, r in zip(args.seeds, runs)},
            "probe_failures": {seed: r["probe_failures"] for seed, r in zip(args.seeds, runs)},
            "metrics": metrics,
        }
        for name, entry in metrics.items():
            if "spread" in entry:
                print(f"  {workload} {name}: median {entry['median']:.5g} {entry['unit']}, "
                      f"spread {entry['spread']:.3f}", flush=True)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
