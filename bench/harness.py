"""Timed windows, load loops and the statistics every workload shares.

A *window* is a list of operations (:class:`Op`) plus two *marks*:
snapshots of the clock, the process CPU time and the workload's counters
taken at the window's start and at its end.

Every window sends one fixed list of requests — the *pool* — over and
over, in the same order; the position of a request in the pool is its
*slot*, and one trip through the pool is a *pass*.  So every piece of
work in a window is repeated once per pass, and each timing is reported
from the **quiet side of its repeats** (:func:`low`, the lower octile):

* a slot's latency is the lower octile of that slot's latencies;
* a pass is cut into *chunks* of a few consecutive completions, a chunk's
  wall and CPU time is the lower octile over the passes, and the time of
  a pass is the sum over its chunks.

The sandbox's cores are shared: the same code runs in a fast and a slow
state (a fixed kernel takes 7.8 or 11.9 ms) that alternate every second
or so, in shares that drift from run to run.  A median over operations
jumps from one state to the other when the slow share crosses a half; the
lower octile of a few repeats of the *same* work reads the fast state
as long as an eighth of the repeats met it.
"""

from __future__ import annotations

import asyncio
import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

SEGMENTS = 5  # of load.segment_spread, a diagnostic

_perf = time.perf_counter


@dataclass
class Op:
    slot: int  # position of the request in the window's pool
    due: float  # when the request was sent or, in an open loop, due to be sent
    end: float
    cpu: float  # process CPU time at ``end``
    ok: bool
    psi: float
    probes: int
    candidates: int
    phases: Dict[str, float]


@dataclass
class Mark:
    t: float
    cpu: float
    counters: Dict[str, float]


@dataclass
class Window:
    """Operations of one timed window, and a mark at each end of it."""

    counters: Callable[[], Dict[str, float]]
    pool: int  # slots: requests in one pass
    chunk: int = 1  # consecutive completions timed together
    ops: List[Op] = field(default_factory=list)
    marks: List[Mark] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)  # why each failed operation failed
    offered: bool = False  # the load was sent on a schedule (open loop)
    late: List[float] = field(default_factory=list)  # open loop: send time - due time
    backlog_end: int = 0  # open loop: requests still in flight at the horizon

    def mark(self) -> None:
        self.marks.append(Mark(_perf(), time.process_time(), self.counters()))

    def add(self, slot: int, due: float, end: float, request, result) -> None:
        """Record one finished operation and validate what it returned."""
        cpu = time.process_time()
        if isinstance(result, BaseException):
            self.failures.append(f"request {request.request_id}: {type(result).__name__}: {result}")
            self.ops.append(Op(slot, due, end, cpu, False, math.nan, 0, 0, {}))
            return
        if not result.success:
            self.failures.append(f"request {request.request_id}: {result.failure_reason}")
        defect = result_defect(request, result)
        if defect is not None:
            self.violations.append(f"request {request.request_id}: {defect}")
        self.ops.append(
            Op(
                slot, due, end, cpu, bool(result.success),
                result.best_cost if result.success else math.nan,
                result.probes_sent, result.candidates_examined, result.phases,
            )
        )

    @property
    def elapsed(self) -> float:
        return self.marks[-1].t - self.marks[0].t

    def counter_delta(self, name: str) -> float:
        return self.marks[-1].counters.get(name, 0) - self.marks[0].counters.get(name, 0)

    def slot_latencies_ms(self) -> List[float]:
        """The quiet-side latency of every slot that was sent at all."""
        by_slot: Dict[int, List[float]] = {}
        for op in self.ops:
            by_slot.setdefault(op.slot, []).append((op.end - op.due) * 1e3)
        return [low(values) for _, values in sorted(by_slot.items())]

    def pass_cost(self) -> Optional[Tuple[float, float]]:
        """``(seconds, CPU seconds)`` of one pass over the pool: the sum over
        its chunks of each chunk's quiet-side time.  Chunks are cut in
        completion order, each from the completion before it to its own
        last one.  None before the first pass is complete."""
        ops = sorted(self.ops, key=lambda op: op.end)
        wall: Dict[int, List[float]] = {}
        cpu: Dict[int, List[float]] = {}
        t, c = self.marks[0].t, self.marks[0].cpu
        for n, op in enumerate(ops):
            position = n % self.pool
            if (position + 1) % self.chunk == 0 or position == self.pool - 1:
                index = position // self.chunk
                wall.setdefault(index, []).append(op.end - t)
                cpu.setdefault(index, []).append(op.cpu - c)
                t, c = op.end, op.cpu
        if len(ops) < self.pool:
            return None
        return sum(low(v) for v in wall.values()), sum(low(v) for v in cpu.values())

    def segment_rates(self) -> List[float]:
        """Completions per second in each of SEGMENTS equal parts of the window."""
        first, last = self.marks[0].t, self.marks[-1].t
        width = (last - first) / SEGMENTS
        done = [0] * SEGMENTS
        for op in self.ops:
            done[min(SEGMENTS - 1, int((op.end - first) / width))] += 1
        return [n / width for n in done]


def result_defect(request, result) -> Optional[str]:
    """None if ``result`` is a valid answer to ``request``, else the defect."""
    if not result.success:
        return None
    graph = result.best
    if graph is None:
        return "success without a graph"
    missing = set(request.function_graph.functions) - set(graph.assignment)
    if missing:
        return f"unassigned functions {sorted(missing)[:3]}"
    if result.best_qos is None or not request.qos.satisfied_by(result.best_qos):
        return "QoS of the selected graph violates the request bounds"
    return None


# ----------------------------------------------------------------------
# load loops
# ----------------------------------------------------------------------
async def closed_loop(
    issue: Callable[[Any], Awaitable[Any]],
    requests: Iterator[Any],
    sessions: int,
    seconds: float,
    window: Window,
) -> None:
    """``sessions`` clients, each sending its next request when the previous
    one completed, until ``seconds`` have passed; requests in flight at the
    deadline finish inside the window."""
    window.mark()
    deadline = window.marks[0].t + seconds

    async def session() -> None:
        while _perf() < deadline:
            slot, request = next(requests)
            start = _perf()
            try:
                result = await issue(request)
            except Exception as exc:  # a raised or timed-out compose is a failed operation
                result = exc
            window.add(slot, start, _perf(), request, result)

    await asyncio.gather(*(session() for _ in range(sessions)))
    window.mark()


async def open_loop(
    issue: Callable[[Any], Awaitable[Any]],
    requests: Iterator[Any],
    offsets: Sequence[float],
    seconds: float,
    window: Window,
) -> None:
    """Send the next request at each of ``offsets`` seconds after the start
    whatever the system's state; latency is timed from the due time."""
    loop = asyncio.get_running_loop()
    window.offered = True
    window.mark()
    t0 = window.marks[0].t
    tasks: List[asyncio.Task] = []

    async def one(slot: int, request, due: float) -> None:
        start = _perf()
        window.late.append(start - due)
        try:
            result = await issue(request)
        except Exception as exc:  # a raised or timed-out compose is a failed operation
            result = exc
        window.add(slot, due, _perf(), request, result)

    for (slot, request), offset in zip(requests, offsets):
        due = t0 + offset
        delay = due - _perf()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(slot, request, due)))
    await asyncio.sleep(max(0.0, t0 + seconds - _perf()))
    window.backlog_end = sum(1 for task in tasks if not task.done())
    await asyncio.gather(*tasks)
    window.mark()


def sync_loop(
    issue: Callable[[Any], Any], requests: Iterator[Any], seconds: float, window: Window
) -> None:
    """One caller, back to back, until ``seconds`` have passed."""
    window.mark()
    deadline = window.marks[0].t + seconds
    end = 0.0
    while end < deadline:
        slot, request = next(requests)
        start = _perf()
        result = issue(request)
        end = _perf()
        window.add(slot, start, end, request, result)
    window.mark()


def poisson_gaps(rng, rate: float, pool: int) -> List[float]:
    """The time from each arrival of a pass to the next one, the last gap
    reaching into the next pass: a Poisson process given that ``pool``
    arrivals fall in ``pool / rate`` seconds (sorted uniform draws).  Every
    pass repeats the gaps, so the offered rate is exact and a slot meets
    the same neighbours — the same queueing — in every pass."""
    period = pool / rate
    at = sorted(float(x) for x in rng.uniform(0.0, period, size=pool))
    return [b - a for a, b in zip(at, at[1:] + [at[0] + period])]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def low(values: Sequence[float]) -> float:
    """The lower octile of a few repeats of the same work (the smallest of
    fewer than eight): what it takes when the machine is quiet."""
    return sorted(values)[len(values) // 8]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def quantile(ordered: Sequence[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def tail(ordered: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; the median when there are too few samples for any."""
    n = len(ordered)
    if n < 20:
        return 50.0, quantile(ordered, 0.5)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(window: Window, limit_ms: float) -> Dict[str, float]:
    """The window's share of the end-to-end metrics (no set-up, no memory).

    Every timing comes from the quiet side of the window's repeats (see the
    module docstring).  When the load was sent on a schedule the rate is
    the schedule's, so the two rates are taken over the whole window."""
    ops = window.ops
    good = sum(op.ok and (op.end - op.due) * 1e3 <= limit_ms for op in ops)
    cost = window.pass_cost()
    if cost is None:  # a window shorter than one pass (--smoke)
        wall = window.elapsed * window.pool / len(ops)
        cpu = (window.marks[-1].cpu - window.marks[0].cpu) * window.pool / len(ops)
    else:
        wall, cpu = cost
    rate = len(ops) / window.elapsed if window.offered else window.pool / wall
    return {
        "compose_per_s": rate,
        "setup_latency_ms": mean(window.slot_latencies_ms()),
        "slo_goodput_per_s": rate * good / len(ops),
        "cpu_ms_per_compose": cpu * 1e3 / window.pool,
        "psi_mean": mean([op.psi for op in ops if op.ok]),
    }


def segment_spread(window: Window) -> float:
    """max / min throughput over the window's segments."""
    rates = window.segment_rates()
    return max(rates) / min(rates) if min(rates) > 0 else 0.0


# ----------------------------------------------------------------------
# machine
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate(repeats: int = 5) -> float:
    """Median wall milliseconds of a fixed pure-Python kernel: tells a slow
    machine from a slow commit."""
    times = []
    for _ in range(repeats):
        t0 = _perf()
        table: Dict[int, int] = {}
        total = 0
        for i in range(60000):
            table[i & 1023] = i
            total += table[i & 511] if (i & 511) in table else i
        times.append((_perf() - t0) * 1e3)
    return median(times)


def quiesce() -> None:
    """Collect what set-up left behind and keep the collector from walking
    the long-lived scenario during the window."""
    gc.collect()
    gc.freeze()
