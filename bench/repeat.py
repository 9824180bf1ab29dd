"""Run the suite N times back to back and report each metric's spread.

    python3 bench/repeat.py --runs 10 [--workload NAME]... [--seed-base 100]

Run ``i`` uses seed ``seed-base + i``.  For every end-to-end metric x
workload it prints the median, the quartiles (``statistics.quantiles(n=4)``),
the spread — distance between the quartiles as a share of the median —
and whether the spread sits inside the bound ``BENCHMARK.json`` stores
for the metric.  ``ok`` means within the bound, ``steady`` within a third
of it.  This output is the evidence for the bounds; see README.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--json", default=None, help="write every run's values here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: Dict[str, Dict[str, List[float]]] = {n: {m: [] for m in bounds} for n in names}
    status = 0
    for i in range(args.runs):
        for name in names:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed_base + i), "--seconds", str(seconds), "--trace", "0",
            ]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            report = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not report.get("correct") or report.get("failed"):
                print(f"run {i} {name}: exit {done.returncode}, report {report.get('failed')} failed",
                      file=sys.stderr)
                status = 1
            for metric in bounds:
                if metric in report.get("metrics", {}):
                    values[name][metric].append(report["metrics"][metric]["value"])
            print(f"run {i + 1}/{args.runs} {name} done", file=sys.stderr)

    print(f"{'workload':22s} {'metric':22s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for name in names:
        for metric, bound in bounds.items():
            runs = values[name][metric]
            if len(runs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(runs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            verdict = "steady" if spread <= bound / 3 else "ok" if spread <= bound else "OUTSIDE"
            if verdict == "OUTSIDE":
                status = 1
            print(f"{name:22s} {metric:22s} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.2%} {bound:6.0%}  {verdict}")
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(values, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
