"""Operation counters for composition strategies.

:class:`PhaseTimer` answers *where the wall-clock went*; this module
answers *what the algorithm did* — how many partial assignments a search
expanded, how many subtrees each pruning rule cut, how many complete
graphs were evaluated.  Strategies surface the totals as ``ops_*`` keys
in ``CompositionResult.phases`` (next to the timer's ``wall_*`` keys),
so ``python -m repro --profile`` can show *why* a composer is fast, not
just that it is.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple

__all__ = ["OpCounters"]


class OpCounters:
    """Named integer accumulators with a dict-style read API.

    >>> c = OpCounters()
    >>> c.incr("expansions"); c.incr("expansions", 2)
    >>> c["expansions"]
    3
    """

    __slots__ = ("totals",)

    def __init__(self, initial: Mapping[str, int] = ()) -> None:
        self.totals: Dict[str, int] = dict(initial)

    def incr(self, key: str, n: int = 1) -> None:
        self.totals[key] = self.totals.get(key, 0) + n

    def __getitem__(self, key: str) -> int:
        return self.totals.get(key, 0)

    def __contains__(self, key: str) -> bool:
        return key in self.totals

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self.totals.items()))

    def as_phases(self, prefix: str = "ops_") -> Dict[str, float]:
        """The totals as ``CompositionResult.phases`` entries (floats, to
        match the timer values sharing the dict)."""
        return {prefix + k: float(v) for k, v in self.totals.items()}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.totals.items()))
        return f"OpCounters({inner})"
