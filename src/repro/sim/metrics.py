"""Measurement instruments for experiments.

The paper's evaluation reports ratios (QoS success rate), rates over time
(failure frequency per time unit), latency breakdowns (setup time split
into discovery / composition phases) and message overhead comparisons.
These collectors implement exactly those aggregations so experiment
drivers stay declarative.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "RatioMeter",
    "RateOverTime",
    "LatencyStats",
    "MessageLedger",
    "summary_stats",
]


def summary_stats(values: Iterable[float]) -> dict:
    """mean/std/min/max/percentiles of a sample, NaN-safe on empty input."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return {
            "count": 0,
            "mean": math.nan,
            "std": math.nan,
            "min": math.nan,
            "max": math.nan,
            "p50": math.nan,
            "p95": math.nan,
            "p99": math.nan,
        }
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=0)),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
    }


class RatioMeter:
    """Success/total ratio — the paper's "QoS success rate" metric."""

    def __init__(self) -> None:
        self.successes = 0
        self.total = 0

    def record(self, success: bool) -> None:
        self.total += 1
        if success:
            self.successes += 1

    @property
    def ratio(self) -> float:
        return self.successes / self.total if self.total else math.nan

    def merge(self, other: "RatioMeter") -> "RatioMeter":
        out = RatioMeter()
        out.successes = self.successes + other.successes
        out.total = self.total + other.total
        return out


class RateOverTime:
    """Event counts bucketed into fixed-width time bins.

    Figure 9's "failure frequency" (number of failures per time unit)
    is exactly a binned event rate.
    """

    def __init__(self, bin_width: float) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = float(bin_width)
        self._bins: Dict[int, int] = defaultdict(int)

    def record(self, t: float, count: int = 1) -> None:
        if t < 0:
            raise ValueError("negative time")
        self._bins[int(t // self.bin_width)] += count

    def series(self, until: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Return (bin_start_times, counts) with empty bins filled as zero."""
        if not self._bins and until is None:
            return np.asarray([]), np.asarray([])
        last = max(self._bins) if self._bins else -1
        if until is not None:
            last = max(last, int(until // self.bin_width) - 1)
        idx = np.arange(0, last + 1)
        counts = np.asarray([self._bins.get(int(i), 0) for i in idx], dtype=float)
        return idx * self.bin_width, counts

    @property
    def total(self) -> int:
        return sum(self._bins.values())


class LatencyStats:
    """Latency samples split by named phase (discovery/composition/init)."""

    def __init__(self) -> None:
        self._samples: Dict[str, List[float]] = defaultdict(list)

    def record(self, phase: str, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative latency for {phase}: {value}")
        self._samples[phase].append(float(value))

    def phases(self) -> List[str]:
        return sorted(self._samples)

    def mean(self, phase: str) -> float:
        vals = self._samples.get(phase, [])
        return float(np.mean(vals)) if vals else math.nan

    def stats(self, phase: str) -> dict:
        return summary_stats(self._samples.get(phase, []))

    def totals(self) -> dict:
        """Per-phase means plus their sum (the stacked bar of Fig. 10)."""
        out = {p: self.mean(p) for p in self.phases()}
        out["total"] = float(np.nansum(list(out.values()))) if out else math.nan
        return out


class MessageLedger:
    """Counts and sizes of protocol messages by category.

    The §6.1 overhead claim ("more than one order of magnitude less
    overhead" than centralized global-state maintenance) is a message
    count comparison; this ledger is the scoreboard for both sides.
    """

    def __init__(self) -> None:
        self.count: Dict[str, int] = defaultdict(int)
        self.bytes: Dict[str, int] = defaultdict(int)

    def record(self, category: str, size_bytes: int = 0, count: int = 1) -> None:
        self.count[category] += count
        self.bytes[category] += size_bytes * count if size_bytes else 0

    def snapshot(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """A point-in-time copy of (counts, bytes) for delta accounting."""
        return dict(self.count), dict(self.bytes)

    def delta_since(self, snap: Tuple[Dict[str, int], Dict[str, int]]) -> Dict[str, Tuple[int, int]]:
        """Per-category (count, bytes) recorded since ``snapshot()``."""
        counts, sizes = snap
        out: Dict[str, Tuple[int, int]] = {}
        for cat, c in self.count.items():
            dc = c - counts.get(cat, 0)
            db = self.bytes.get(cat, 0) - sizes.get(cat, 0)
            if dc or db:
                out[cat] = (dc, db)
        return out

    def replay(self, deltas: Dict[str, Tuple[int, int]]) -> None:
        """Re-charge a recorded delta: *logical* messages whose physical
        transmission was elided (e.g. a memoized discovery lookup) still
        count toward overhead figures."""
        for cat, (dc, db) in deltas.items():
            self.count[cat] += dc
            self.bytes[cat] += db

    def total_count(self, categories: Optional[Iterable[str]] = None) -> int:
        if categories is None:
            return sum(self.count.values())
        return sum(self.count.get(c, 0) for c in categories)

    def as_dict(self) -> dict:
        return {"count": dict(self.count), "bytes": dict(self.bytes)}
