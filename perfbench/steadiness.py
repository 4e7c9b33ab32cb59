#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py [--seeds 1-10] [--workloads a,b] [--out F]

For every workload and seed, runs ``perfbench/run.py`` untraced, reads the
last line of its output and prints, per end-to-end metric, the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json.  ``--out`` also saves every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            command = [sys.executable, os.path.join(ROOT, *spec["command"][1:]),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            output = subprocess.run(command, cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout
            runs.append(json.loads(output.strip().splitlines()[-1]))
        results[workload] = runs
        print(f"{workload}: {len(runs)} runs, attempted "
              f"{[run['attempted'] for run in runs]}, failed "
              f"{[run['failed'] for run in runs]}, correct "
              f"{all(run['correct'] for run in runs)}")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            print(f"  {name:16s} median {median:10.5g}  q1 {q1:10.5g}  "
                  f"q3 {q3:10.5g}  spread {spread:6.1%}  bound {bound:.0%}"
                  f"{'' if spread <= bound / 3 else '  (over a third)'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
