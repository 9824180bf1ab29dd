"""Scale-out benchmark: goodput and tail latency under overload.

Drives the multi-process harness (:mod:`repro.net.scaleout`) through a
matrix of cluster sizes and offered loads, with the admission guard on
and off at each point, and writes ``benchmarks/BENCH_scaleout.json``.
The claim under test is the overload-survival one:

* **admission off** — past saturation every arriving session opens a
  collection window and fans out probes; goodput collapses and the p99
  of the requests that *do* finish grows toward the timeout;
* **admission on** — excess sessions are refused with a ``Busy`` frame
  in the begin reply (one control round trip, no state), so the
  admitted sessions keep completing: higher goodput, bounded p99, and
  shed latencies that look like an RPC, not like a timeout.

Run directly (CI runs ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_scaleout.py
    PYTHONPATH=src python benchmarks/bench_scaleout.py --peers 16 --peers 48 --peers 96
    PYTHONPATH=src python benchmarks/bench_scaleout.py --smoke

The default matrix is {16, 48} peers — sized so a single-core CI box
still measures the *protocol* under overload rather than pure CPU
timesharing.  The harness itself scales further: pass ``--peers 96``
(or more) on a machine with enough cores for one per worker process.

``--smoke`` is the CI gate: one small 2-process cluster, one burst
above the admission limit, exits nonzero on any worker crash/daemon
error or if nothing was shed (i.e. the guard did not engage).

Exit codes: 0 ok, 1 crash/daemon errors (or smoke-gate failure).
"""

from __future__ import annotations

import argparse
import asyncio
import datetime
import json
import os
import pathlib
import sys
from typing import Dict, List, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.net import AdmissionConfig  # noqa: E402
from repro.net.scaleout import (  # noqa: E402
    ScaleoutConfig,
    ScaleoutController,
)

BENCH_JSON = pathlib.Path(__file__).parent / "BENCH_scaleout.json"

# the admission point used at every matrix cell (rpc throttle off: the
# session/probe guards are what the experiment isolates)
ADMISSION = AdmissionConfig(max_sessions=3, probe_soft_limit=24, max_probe_tasks=48)


def _port_base(slot: int) -> int:
    # distinct window per cell and per invoking process, so back-to-back
    # runs and parallel CI shards never contend on listeners; kept below
    # the ephemeral range (32768+) so a transient outbound connection
    # can never squat on a listener port
    return 10000 + (os.getpid() * 131 + slot * 997) % 19000


async def run_cell(
    peers: int,
    procs: int,
    rate: float,
    admission: Optional[AdmissionConfig],
    duration: float,
    slot: int,
    seed: int = 2,
) -> Dict[str, object]:
    cfg = ScaleoutConfig(
        n_peers=peers,
        n_functions=max(6, peers // 8),
        procs=procs,
        port_base=_port_base(slot),
        seed=seed,
        capacity_scale=4.0,
        rate=rate,
        duration=duration,
        confirm=False,
        request_timeout=6.0,
        collect_wall_timeout=2.0,
        measure=False,  # isolate composition load from probe traffic
        admission=admission,
    )
    report = await ScaleoutController(cfg).run()
    s = report["summary"]
    return {
        "peers": peers,
        "procs": procs,
        "offered_rate": rate,
        "admission": admission is not None,
        "offered": s["offered"],
        "ok": s["ok"],
        "busy": s["busy"],
        "failed": s["failed"],
        "error": s["error"],
        "goodput": round(s["goodput"], 2),
        "shed_rate": round(s["shed_rate"], 4),
        "failure_rate": round(s["failure_rate"], 4),
        "ok_p50_ms": round(s["latency_ok"]["p50"] * 1000, 1),
        "ok_p99_ms": round(s["latency_ok"]["p99"] * 1000, 1),
        "busy_p50_ms": round(s["latency_busy"]["p50"] * 1000, 1),
        "busy_p99_ms": round(s["latency_busy"]["p99"] * 1000, 1),
        "probes_shed": report["admission"]["probes_shed"],
        "sessions_rejected": report["admission"]["sessions_rejected"],
        "daemon_errors": len(report["errors"]),
    }


def _print_cell(cell: Dict[str, object]) -> None:
    mode = "adm on " if cell["admission"] else "adm off"
    print(
        f"  {cell['peers']:>3}p/{cell['procs']}proc @{cell['offered_rate']:>5g}/s "
        f"{mode}: goodput {cell['goodput']:>6.1f}/s  "
        f"ok p50/p99 {cell['ok_p50_ms']:>6.1f}/{cell['ok_p99_ms']:>7.1f} ms  "
        f"shed {cell['busy']:>4} (p99 {cell['busy_p99_ms']:.1f} ms)  "
        f"fail {cell['failure_rate']:.1%}",
        flush=True,
    )


async def run_matrix(
    peer_points: List[int], duration: float
) -> List[Dict[str, object]]:
    """For each cluster size: a moderate and an overload rate, admission
    off and on at each — the four corners the headline claim needs."""
    cells: List[Dict[str, object]] = []
    slot = 0
    for peers in peer_points:
        procs = max(2, min(6, peers // 12))
        moderate = peers * 0.5
        overload = peers * 3.0
        for rate in (moderate, overload):
            for admission in (None, ADMISSION):
                cell = await run_cell(
                    peers, procs, rate, admission, duration, slot
                )
                slot += 1
                cells.append(cell)
                _print_cell(cell)
    return cells


def check_claims(cells: List[Dict[str, object]]) -> List[str]:
    """The acceptance criteria, evaluated on the overload cells."""
    problems: List[str] = []
    if any(c["daemon_errors"] for c in cells):
        problems.append("daemon errors recorded")
    by_key = {(c["peers"], c["offered_rate"], c["admission"]): c for c in cells}
    for (peers, rate, adm), on in by_key.items():
        if not adm:
            continue
        off = by_key.get((peers, rate, False))
        if off is None or rate <= peers:  # only judge the overload cells
            continue
        if on["busy"] == 0:
            problems.append(f"{peers}p@{rate}: admission never engaged")
            continue
        if on["goodput"] < off["goodput"]:
            problems.append(
                f"{peers}p@{rate}: admission-on goodput {on['goodput']} "
                f"below admission-off {off['goodput']}"
            )
        # a shed is one control round trip, not a timed-out session:
        # fast in absolute terms, or — when the box itself is saturated
        # and every RPC queues behind a busy event loop — clearly
        # faster than the cell's own *median successful* compose
        # (which takes several probe-wave round trips)
        ceiling = max(500.0, 0.5 * on["ok_p50_ms"])
        if on["busy_p99_ms"] > ceiling:
            problems.append(
                f"{peers}p@{rate}: shed p99 {on['busy_p99_ms']} ms is not "
                f"fast (ceiling {ceiling:.0f} ms)"
            )
    return problems


async def run_smoke() -> int:
    """CI gate: small 2-process cluster, burst above the admission
    limit; fails on any crash or if nothing was shed."""
    cell = await run_cell(
        peers=8,
        procs=2,
        rate=24.0,
        admission=AdmissionConfig(max_sessions=1),
        duration=2.5,
        slot=77,
    )
    _print_cell(cell)
    ok = True
    if cell["daemon_errors"]:
        print(f"SMOKE FAIL: {cell['daemon_errors']} daemon errors")
        ok = False
    if cell["busy"] == 0:
        print("SMOKE FAIL: burst above the admission limit shed nothing")
        ok = False
    if cell["ok"] == 0:
        print("SMOKE FAIL: no composition succeeded")
        ok = False
    if cell["busy_p99_ms"] > 1000.0:
        print(f"SMOKE FAIL: shed p99 {cell['busy_p99_ms']} ms (not fast rejection)")
        ok = False
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--peers",
        type=int,
        action="append",
        default=None,
        help="cluster size matrix point (repeatable; default 16, 48; "
        "larger points want a core per worker process)",
    )
    parser.add_argument(
        "--duration", type=float, default=5.0, help="load seconds per cell"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: one small over-limit burst, gate on shed>0 + no crashes",
    )
    parser.add_argument(
        "--note", default=os.environ.get("BENCH_NOTE", ""), help="entry tag"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return asyncio.run(run_smoke())
    peer_points = args.peers or [16, 48]
    print(f"scale-out matrix: peers {peer_points}, {args.duration:g}s per cell")
    cells = asyncio.run(run_matrix(peer_points, args.duration))
    problems = check_claims(cells)
    entry = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "note": args.note,
        "duration_per_cell": args.duration,
        "admission_config": {
            "max_sessions": ADMISSION.max_sessions,
            "probe_soft_limit": ADMISSION.probe_soft_limit,
            "max_probe_tasks": ADMISSION.max_probe_tasks,
        },
        "cells": cells,
        "problems": problems,
    }
    history = []
    if BENCH_JSON.exists():
        try:
            history = json.loads(BENCH_JSON.read_text())
        except json.JSONDecodeError:
            history = []
    history.append(entry)
    BENCH_JSON.write_text(json.dumps(history, indent=2) + "\n")
    print(f"wrote {BENCH_JSON.name} ({len(cells)} cells)")
    if problems:
        for p in problems:
            print(f"PROBLEM: {p}")
        return 1
    print("all overload claims hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
