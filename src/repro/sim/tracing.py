"""Structured event tracing for simulations.

Experiments report aggregates; debugging a protocol needs the *story* —
which peer died when, which session switched to which backup, what each
composition decided.  :class:`EventTrace` is a lightweight structured
recorder: timestamped, categorised events with arbitrary fields,
filterable in memory and exportable as JSON-lines for external tools.

Convenience taps wire a trace to the existing observation seams (churn
callbacks, session-failure listeners) without touching protocol code.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Union


__all__ = ["TraceEvent", "EventTrace", "trace_churn", "trace_sessions"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event: when, what kind, and its payload fields."""

    time: float
    category: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {"time": self.time, "category": self.category, **self.fields}


class EventTrace:
    """An append-only, bounded, queryable event log.

    ``capacity`` bounds memory for long runs: when full, the *oldest*
    events are dropped (the recent story is the useful one) and
    :attr:`dropped` counts the loss so analyses know the log is partial.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.events: List[TraceEvent] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    def record(self, category: str, time: float, **fields: Any) -> TraceEvent:
        """Append an event that happened at ``time`` on its recorder's clock."""
        event = TraceEvent(time=float(time), category=category, fields=fields)
        self.events.append(event)
        if len(self.events) > self.capacity:
            overflow = len(self.events) - self.capacity
            del self.events[:overflow]
            self.dropped += overflow
        return event

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    def select(
        self,
        category: Optional[str] = None,
        since: float = float("-inf"),
        until: float = float("inf"),
        where: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> List[TraceEvent]:
        """Filter events by category, time window, and custom predicate."""
        out = []
        for e in self.events:
            if category is not None and e.category != category:
                continue
            if not since <= e.time < until:
                continue
            if where is not None and not where(e):
                continue
            out.append(e)
        return out

    def categories(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for e in self.events:
            counts[e.category] = counts.get(e.category, 0) + 1
        return counts

    # ------------------------------------------------------------------
    def to_jsonl(self, path: Union[str, pathlib.Path]) -> int:
        """Write the trace as JSON-lines; returns the event count."""
        p = pathlib.Path(path)
        with p.open("w") as fh:
            for e in self.events:
                fh.write(json.dumps(e.as_dict(), default=str) + "\n")
        return len(self.events)

    def tail(self, n: int = 20) -> List[TraceEvent]:
        return self.events[-n:]


# ----------------------------------------------------------------------
# taps for the existing observation seams
# ----------------------------------------------------------------------
def trace_churn(churn, trace: EventTrace) -> None:
    """Record every peer departure/arrival the churn process emits."""
    churn.on_departure(lambda peer, t: trace.record("peer_departed", time=t, peer=peer))
    churn.on_arrival(lambda peer, t: trace.record("peer_arrived", time=t, peer=peer))


def trace_sessions(manager, trace: EventTrace) -> None:
    """Record session failures and whether recovery absorbed them."""
    manager.on_failure(
        lambda t, recovered: trace.record(
            "session_failure", time=t, recovered=recovered
        )
    )
