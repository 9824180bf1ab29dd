"""Shared experiment plumbing: tables, series, resource-holding workloads."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Series", "format_table", "HeldSessions"]


@dataclass
class Series:
    """One plotted curve: label + x/y points (what a paper figure shows)."""

    label: str
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.x.append(float(x))
        self.y.append(float(y))


def format_table(
    x_label: str,
    series: Sequence[Series],
    float_fmt: str = "{:.3f}",
) -> str:
    """Render aligned columns: x | series1 | series2 ... (figure-as-text)."""
    if not series:
        return "(no data)"
    xs = series[0].x
    for s in series[1:]:
        if s.x != xs:
            raise ValueError(f"series {s.label!r} has mismatched x values")
    headers = [x_label] + [s.label for s in series]
    rows = []
    for i, x in enumerate(xs):
        row = [_fmt(x, float_fmt)]
        for s in series:
            row.append(_fmt(s.y[i], float_fmt))
        rows.append(row)
    widths = [max(len(h), *(len(r[c]) for r in rows)) if rows else len(h) for c, h in enumerate(headers)]
    out = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(out)


def _fmt(v: float, float_fmt: str) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "-"
    if float(v).is_integer() and abs(v) >= 1:
        return str(int(v))
    return float_fmt.format(v)


class HeldSessions:
    """Deterministic-duration resource holding for throughput experiments.

    Figure 8's load comes from admitted sessions *holding* their resources
    for their lifetime; this helper releases expired claims as virtual
    time advances without needing the full event engine in a tight sweep
    loop.
    """

    def __init__(self, pool) -> None:
        self.pool = pool
        self._heap: List[Tuple[float, int, Tuple]] = []
        self._seq = 0
        self.active = 0

    def admit(self, tokens: Iterable[Tuple], release_at: float) -> None:
        for token in tokens:
            heapq.heappush(self._heap, (release_at, self._seq, token))
            self._seq += 1
        self.active += 1

    def release_due(self, now: float) -> int:
        """Release every claim whose session ended by ``now``."""
        released = 0
        while self._heap and self._heap[0][0] <= now:
            _, _, token = heapq.heappop(self._heap)
            self.pool.release(token)
            released += 1
        return released

    def release_all(self) -> None:
        while self._heap:
            _, _, token = heapq.heappop(self._heap)
            self.pool.release(token)
        self.active = 0
