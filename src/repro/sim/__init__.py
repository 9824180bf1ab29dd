"""Discrete-event simulation substrate (virtual-time loop, liveness, churn, metrics)."""

from .churn import ChurnProcess
from .metrics import (
    LatencyStats,
    MessageLedger,
    RateOverTime,
    RatioMeter,
    summary_stats,
)
from .network import MessageNetwork, UnknownNodeError
from .rng import as_generator, spawn
from .tracing import EventTrace, TraceEvent, trace_churn, trace_sessions

__all__ = [
    "ChurnProcess",
    "EventTrace",
    "LatencyStats",
    "MessageLedger",
    "MessageNetwork",
    "RateOverTime",
    "RatioMeter",
    "TraceEvent",
    "UnknownNodeError",
    "as_generator",
    "spawn",
    "summary_stats",
    "trace_churn",
    "trace_sessions",
]
