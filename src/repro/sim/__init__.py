"""Discrete-event simulation substrate (virtual-time loop, liveness, churn, metrics)."""

from .churn import ChurnProcess
from .metrics import (
    Counter,
    LatencyStats,
    MessageLedger,
    RateOverTime,
    RatioMeter,
    TimeSeries,
    summary_stats,
)
from .network import MessageNetwork, UnknownNodeError
from .rng import as_generator, spawn, stable_hash64, weighted_choice_without_replacement
from .tracing import EventTrace, TraceEvent, trace_churn, trace_sessions

__all__ = [
    "ChurnProcess",
    "Counter",
    "EventTrace",
    "LatencyStats",
    "MessageLedger",
    "MessageNetwork",
    "RateOverTime",
    "RatioMeter",
    "TimeSeries",
    "TraceEvent",
    "UnknownNodeError",
    "as_generator",
    "spawn",
    "stable_hash64",
    "summary_stats",
    "trace_churn",
    "trace_sessions",
    "weighted_choice_without_replacement",
]
