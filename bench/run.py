"""The repository's benchmark: seven workloads, one command.

    python3 bench/run.py                       # all workloads, end-to-end metrics
    python3 bench/run.py --trace               # ... and the traced per-layer run of each
    python3 bench/run.py --workload sync-sim --seed 7 --seconds 10 --trace 0

One workload with ``--trace 0`` or ``--trace 1`` runs in this process —
that is the form ``BENCHMARK.json``'s driver uses — and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  Every other form
runs the chosen workloads one after another, never two at once, each in a
fresh interpreter (component and request ids are process-global counters).
Either way each metric is printed as ``workload metric value unit``, and
the exit code is non-zero when a correctness gate fails.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SMOKE_SECONDS = 0.5


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(args: argparse.Namespace) -> int:
    """One workload, in this interpreter."""
    import measure  # imports repro: everything the workload needs loads here
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T0
    name = args.workload[0]
    wl = WORKLOADS[name]()
    if args.trace == "1":
        coro = measure.traced(wl, args.seed, args.seconds, args.smoke)
    else:
        coro = measure.untraced(wl, args.seed, args.seconds, import_s, args.smoke)
    outcome = asyncio.run(coro)
    spec = declared()
    units = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace == "1" else "end_to_end"]
    }
    if set(units) != set(outcome.metrics):
        odd = sorted(set(units) ^ set(outcome.metrics))
        raise SystemExit(f"{name}: metrics emitted and declared in BENCHMARK.json differ: {odd}")
    for metric, value in outcome.metrics.items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")
    for note in wl.notes:
        print(f"{name} NOTE {note}", file=sys.stderr)
    for violation in outcome.violations:
        print(f"{name} VIOLATION {violation}", file=sys.stderr)
    if outcome.failed:
        print(f"{name} {outcome.failed} of {outcome.attempted} operations failed", file=sys.stderr)
        for reason in outcome.failures[:5]:
            print(f"{name} FAILED {reason}", file=sys.stderr)
    correct = not outcome.violations
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    metric: {"value": value, "unit": units[metric]}
                    for metric, value in outcome.metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_suite(args: argparse.Namespace, names: List[str]) -> int:
    """Each workload (and each of its trace modes) in its own interpreter."""
    modes = ["0", "1"] if args.trace == "both" else [args.trace]
    status = 0
    results: Dict[str, dict] = {}
    for name in names:
        for mode in modes:
            cmd = [
                sys.executable, str(pathlib.Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", mode,
            ]
            if args.smoke:
                cmd.append("--smoke")
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            for line in lines[:-1]:  # the last line is the child's JSON report
                print(line)
            sys.stdout.flush()
            if done.returncode != 0:
                print(f"{name} FAILED (trace {mode}, exit {done.returncode})", file=sys.stderr)
                status = 1
            try:
                report = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                report = None
            if report is None:
                status = 1
                continue
            entry = results.setdefault(
                name, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            )
            entry["correct"] = entry["correct"] and report["correct"]
            entry["attempted"] += report["attempted"]
            entry["failed"] += report["failed"]
            entry["metrics"].update(report["metrics"])
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(results, indent=2) + "\n")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[], help="repeatable; default all")
    parser.add_argument("--seed", type=int, default=1, help="draws every request and schedule")
    parser.add_argument("--seconds", type=float, default=None, help="length of the timed window")
    parser.add_argument(
        "--trace", nargs="?", const="both", default="0", choices=("0", "1", "both"),
        help="0: end-to-end metrics; 1: traced run, per-layer metrics; bare flag: both",
    )
    parser.add_argument("--json", default=None, help="write every workload's report here")
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"{SMOKE_SECONDS} s windows, one set-up, 1/20 pools and warm-ups",
    )
    args = parser.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes are salted per process: set and dict layouts, and with
        # them the work a compose does, differ from run to run.  Start over
        # with the salt fixed so two runs of one seed do the same work.
        os.execve(
            sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"}
        )
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in args.workload if w not in names]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r} (choose from {', '.join(names)})")
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    if len(args.workload) == 1 and args.trace in ("0", "1") and not args.json:
        return run_one(args)
    return run_suite(args, args.workload or names)


if __name__ == "__main__":
    sys.exit(main())
