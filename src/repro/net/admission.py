"""Per-peer admission control and load shedding for the live runtime.

SpiderNet's evaluation stops at the point where the interesting
engineering begins: what happens when offered load exceeds what the
composition plane can absorb?  Without a guard, every arriving request
opens a destination-side collection window, every window fans out a
probe wave, and the probe waves of requests that can no longer finish
in time keep consuming the budget of the ones that still could — the
classic congestion-collapse shape, where goodput falls as offered load
rises.

:class:`LoadGuard` is the peer-local answer (the load-guard idiom from
the infomesh exemplars named in ROADMAP.md): every daemon carries its
own guard, fed only by that daemon's local state, and applies three
independently tunable mechanisms:

* **Session admission** — a destination accepts at most
  ``max_sessions`` concurrent collection windows.  The ``max_sessions+1``-th
  ``ComposeBegin`` is answered with a :class:`~repro.net.codec.Busy`
  frame *in the begin RPC's reply*: the source learns its fate in one
  round trip, before any probe is sent or any reservation made anywhere
  — a shed request costs the cluster one control frame and holds zero
  soft state, so rejection is strictly cheaper than timeout.
* **Probe shedding** — each daemon bounds its concurrently-processing
  probe tasks.  Past ``probe_soft_limit`` the daemon *degrades*: probe
  waves it expands get half their budget, trading composition quality
  for latency exactly as the paper's budget knob does.  Past
  ``max_probe_tasks`` it *sheds*: incoming probes return their
  termination credit immediately (reason ``"shed"``) without admission,
  so overloaded peers drop work in a way the destination's credit
  accounting still sees — windows close promptly instead of waiting for
  the wall-clock fallback.
* **RPC throttling** — ``rpc_max_inflight`` bounds a daemon's
  concurrent outbound calls, keeping one peer's fan-out from flooding
  the transport during overload (0 = unlimited, the default).

A guard exists only where one is configured (``ClusterConfig.admission``
is an :class:`AdmissionConfig`); without one there is nothing to refuse
or shed.  With the guard on but limits never reached the protocol makes
the same choices — the guard only observes — though a source then
awaits the begin's reply before it probes, since that reply can refuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

__all__ = ["AdmissionConfig", "LoadGuard"]


@dataclass(frozen=True)
class AdmissionConfig:
    """Per-peer overload-survival knobs."""

    # destination side: concurrent probe-collection windows accepted
    max_sessions: int = 8
    # expanding side: concurrent probe tasks before budgets halve…
    probe_soft_limit: int = 48
    # …and before further probes are shed outright (credit returned)
    max_probe_tasks: int = 96
    # outbound RPC concurrency per daemon (0 = unlimited)
    rpc_max_inflight: int = 0

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.probe_soft_limit < 1 or self.max_probe_tasks < 1:
            raise ValueError("probe limits must be >= 1")
        if self.probe_soft_limit > self.max_probe_tasks:
            raise ValueError("probe_soft_limit must be <= max_probe_tasks")
        if self.rpc_max_inflight < 0:
            raise ValueError("rpc_max_inflight must be >= 0")


class LoadGuard:
    """One daemon's admission state: open windows, probe pressure, stats.

    Purely local and synchronous — consulted inline on the hot handler
    paths, so it must never await.  Counters are cumulative for the
    guard's lifetime (a revived peer starts a fresh guard, like any
    restarted process).
    """

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self._sessions: Set[int] = set()
        self.probes_inflight = 0
        # cumulative books
        self.sessions_admitted = 0
        self.sessions_rejected = 0
        self.probes_shed = 0
        self.budget_degrades = 0
        self.sessions_peak = 0
        self.probes_peak = 0

    # -- session admission (destination side) --------------------------
    @property
    def sessions_inflight(self) -> int:
        return len(self._sessions)

    def try_open_session(self, rid: int) -> bool:
        """Admit request ``rid``'s collection window, or refuse it."""
        if rid in self._sessions:
            return True
        if len(self._sessions) >= self.config.max_sessions:
            self.sessions_rejected += 1
            return False
        self._sessions.add(rid)
        self.sessions_admitted += 1
        self.sessions_peak = max(self.sessions_peak, len(self._sessions))
        return True

    def close_session(self, rid: int) -> None:
        self._sessions.discard(rid)

    # -- probe pressure (expanding side) -------------------------------
    def probe_overloaded(self) -> bool:
        """True when further probes should be shed outright."""
        return self.probes_inflight >= self.config.max_probe_tasks

    def degraded(self) -> bool:
        """True when probe waves should expand with reduced budget."""
        return self.probes_inflight >= self.config.probe_soft_limit

    def begin_probe(self) -> None:
        self.probes_inflight += 1
        self.probes_peak = max(self.probes_peak, self.probes_inflight)

    def end_probe(self) -> None:
        self.probes_inflight -= 1

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "sessions_inflight": len(self._sessions),
            "sessions_admitted": self.sessions_admitted,
            "sessions_rejected": self.sessions_rejected,
            "sessions_peak": self.sessions_peak,
            "probes_inflight": self.probes_inflight,
            "probes_shed": self.probes_shed,
            "budget_degrades": self.budget_degrades,
            "probes_peak": self.probes_peak,
        }
