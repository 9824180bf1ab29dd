"""Service session runtime with proactive failure recovery (paper §5).

A session owns an admitted service graph (firm resource claims), a set
of backup service graphs selected per §5.2, and a low-rate maintenance
process that probes backup liveness/qualification.  On a peer departure
that breaks the current graph the manager

1. detects the failure (after a configurable detection delay),
2. switches to the best live, still-qualified backup whose resources
   admit — **proactive recovery**: no new probing, switch cost is one
   ack pass over the backup graph;
3. falls back to re-running BCP only when every backup is unusable —
   **reactive recovery** (§5: "triggered only when all backup service
   graphs become unqualified as well");
4. declares the session failed if reactive composition also fails.

Backups are *monitored, not reserved*: the paper sends only low-rate
measurement probes along them, so a backup can be stolen by other
sessions between failures — admission is re-checked at switch time.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.metrics import MessageLedger
from ..sim.vtime import every

from .bcp import BCP, CompositionResult
from .recovery import backup_count, revalidate_backup, select_backups
from .request import CompositeRequest
from .selection import CandidateGraph
from .service_graph import ServiceGraph

__all__ = ["SessionState", "RecoveryConfig", "ServiceSession", "SessionManager"]


class SessionState(enum.Enum):
    ACTIVE = "active"
    FAILED = "failed"
    CLOSED = "closed"


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the proactive recovery scheme.

    Failure detection (the paper omits its design, footnote 4): with
    ``heartbeat_interval`` unset, departures are detected after a fixed
    ``detection_delay`` (an oracle with constant lag).  With it set, the
    source pings the session's peers every interval, so detection takes
    the residual time to the next heartbeat — uniform in [0, interval) —
    plus ``detection_delay`` as the reply-timeout margin, and heartbeat
    traffic is charged to the ledger.
    """

    upper_bound: float = 1.0  # U of Eq. 2
    maintenance_interval: float = 5.0  # backup probing period (virtual s)
    detection_delay: float = 0.5  # failure detection latency / reply timeout
    heartbeat_interval: Optional[float] = None  # None -> oracle detection
    proactive: bool = True  # ablation: backups on/off
    reactive: bool = True  # fall back to re-running BCP when backups fail

    def __post_init__(self) -> None:
        if self.heartbeat_interval is not None and self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")


@dataclass
class ServiceSession:
    """One active composed service session."""

    session_id: int
    request: CompositeRequest
    current: ServiceGraph
    tokens: List[Tuple]
    backups: List[CandidateGraph] = field(default_factory=list)
    spare_qualified: List[CandidateGraph] = field(default_factory=list)
    state: SessionState = SessionState.ACTIVE
    established_at: float = 0.0
    target_backups: int = 0
    recoveries: int = 0
    maintenance_task: Optional[object] = None  # repro.sim.vtime.every handles
    heartbeat_task: Optional[object] = None

    @property
    def active(self) -> bool:
        return self.state is SessionState.ACTIVE


@dataclass
class SessionManagerStats:
    sessions_established: int = 0
    sessions_rejected: int = 0
    failures: int = 0  # session-breaking peer departures observed
    proactive_recoveries: int = 0
    reactive_recoveries: int = 0
    unrecovered_failures: int = 0
    recovery_times: List[float] = field(default_factory=list)
    backup_counts: List[int] = field(default_factory=list)

    @property
    def mean_backups(self) -> float:
        return sum(self.backup_counts) / len(self.backup_counts) if self.backup_counts else 0.0


FailureListener = Callable[[float, bool], None]  # (time, recovered)


class SessionManager:
    """Establishes sessions via BCP and keeps them alive through churn."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        bcp: BCP,
        config: Optional[RecoveryConfig] = None,
        alive: Optional[Callable[[int], bool]] = None,
        ledger: Optional[MessageLedger] = None,
        rng=None,
    ) -> None:
        from ..sim.rng import as_generator

        self.loop = loop
        self.bcp = bcp
        self.pool = bcp.pool
        self.overlay = bcp.overlay
        self.config = config or RecoveryConfig()
        self.alive = alive or bcp.alive
        self.ledger = ledger if ledger is not None else bcp.ledger
        self.rng = as_generator(rng)
        self.sessions: Dict[int, ServiceSession] = {}
        self.stats = SessionManagerStats()
        self._ids = itertools.count(1)
        self._failure_listeners: List[FailureListener] = []
        self._pending_detection: Dict[int, float] = {}

    def _detection_delay(self) -> float:
        """Time from a peer departure to the source noticing it."""
        cfg = self.config
        if cfg.heartbeat_interval is None:
            return cfg.detection_delay
        residual = float(self.rng.uniform(0.0, cfg.heartbeat_interval))
        return residual + cfg.detection_delay

    def on_failure(self, fn: FailureListener) -> None:
        """Subscribe to session-failure events: fn(time, recovered)."""
        self._failure_listeners.append(fn)

    # ------------------------------------------------------------------
    # establishment / teardown
    # ------------------------------------------------------------------
    def establish(
        self, request: CompositeRequest, budget: Optional[int] = None
    ) -> Optional[ServiceSession]:
        """Compose and admit a session; None when composition fails."""
        result = self.bcp.compose(request, budget=budget, confirm=True)
        if not result.success or result.best is None:
            self.stats.sessions_rejected += 1
            return None
        session = ServiceSession(
            session_id=next(self._ids),
            request=request,
            current=result.best,
            tokens=list(result.session_tokens),
            established_at=self.loop.time(),
        )
        self._install_backups(session, result)
        self.sessions[session.session_id] = session
        self.stats.sessions_established += 1
        self.stats.backup_counts.append(len(session.backups))
        self.loop.call_later(request.duration, self._expire, session.session_id)
        if self.config.proactive and self.config.maintenance_interval > 0:
            session.maintenance_task = every(
                self.loop, self.config.maintenance_interval, self._maintain, session.session_id
            )
        if self.config.heartbeat_interval is not None:
            session.heartbeat_task = every(
                self.loop, self.config.heartbeat_interval, self._heartbeat, session.session_id
            )
        return session

    def _heartbeat(self, session_id: int) -> None:
        session = self.sessions.get(session_id)
        if session is None or not session.active:
            return
        self.ledger.record("heartbeat", 32, len(session.current.peers()))

    def _install_backups(self, session: ServiceSession, result: CompositionResult) -> None:
        if not self.config.proactive:
            session.target_backups = 0
            return
        assert result.best_qos is not None and result.best is not None
        f_lambda = result.best.failure_probability(self.bcp.peer_failure)
        gamma = backup_count(
            result.best_qos,
            session.request.qos,
            f_lambda,
            session.request.failure_req,
            n_qualified=max(len(result.qualified), 1),
            upper_bound=self.config.upper_bound,
        )
        session.target_backups = gamma
        pool_candidates = result.backup_candidates
        session.backups = select_backups(
            result.best, pool_candidates, gamma, self.bcp.peer_failure
        )
        chosen = {c.graph.signature() for c in session.backups}
        session.spare_qualified = [
            c for c in pool_candidates if c.graph.signature() not in chosen
        ]

    def teardown(self, session_id: int) -> None:
        session = self.sessions.get(session_id)
        if session is None or session.state is SessionState.CLOSED:
            return
        self._release(session)
        session.state = SessionState.CLOSED

    def _expire(self, session_id: int) -> None:
        session = self.sessions.get(session_id)
        if session is not None and session.active:
            self.teardown(session_id)

    def _release(self, session: ServiceSession) -> None:
        for token in session.tokens:
            self.pool.release(token)
        session.tokens = []
        if session.maintenance_task is not None:
            session.maintenance_task.cancel()
            session.maintenance_task = None
        if session.heartbeat_task is not None:
            session.heartbeat_task.cancel()
            session.heartbeat_task = None

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def peer_departed(self, peer: int, _time: float = 0.0) -> None:
        """Churn hook: check every active session against the lost peer."""
        broken = [
            s
            for s in self.sessions.values()
            if s.active and (s.current.uses_peer(peer) or peer in (s.request.source_peer, s.request.dest_peer))
        ]
        for session in broken:
            if peer in (session.request.source_peer, session.request.dest_peer):
                # an endpoint died: nothing to recover to (paper assumes
                # stable endpoints; guarded here for robustness)
                self._fail(session)
                continue
            delay = self._detection_delay()
            self._pending_detection[session.session_id] = delay
            self.loop.call_later(delay, self._recover, session.session_id)

    def _fail(self, session: ServiceSession) -> None:
        self.stats.failures += 1
        self.stats.unrecovered_failures += 1
        self._emit_failure(recovered=False)
        self._release(session)
        session.state = SessionState.FAILED

    def _emit_failure(self, recovered: bool) -> None:
        now = self.loop.time()
        for fn in self._failure_listeners:
            fn(now, recovered)

    def _recover(self, session_id: int) -> None:
        session = self.sessions.get(session_id)
        if session is None or not session.active:
            return
        # the failure may have healed meanwhile (peer revived) — still
        # treat it as a failure event: streaming broke at departure time
        if all(self.alive(p) for p in session.current.peers()):
            dead_again = False
        else:
            dead_again = True
        if not dead_again:
            return
        self.stats.failures += 1
        # free the broken graph's firm claims *before* trying backups:
        # select_backups maximises overlap with the current graph, so its
        # strongest picks are exactly the graphs admission would reject
        # for capacity the failed session itself still holds.  The graph
        # is broken either way — nothing streams over those claims.
        self._release_claims_only(session)
        if self.config.proactive and self._switch_to_backup(session):
            return
        if self.config.reactive and self._reactive_recover(session):
            return
        self.stats.unrecovered_failures += 1
        self._emit_failure(recovered=False)
        self._release(session)
        session.state = SessionState.FAILED

    def _switch_to_backup(self, session: ServiceSession) -> bool:
        """Proactive path: first live, qualified, admittable backup wins."""
        while session.backups:
            cand = session.backups.pop(0)
            graph = cand.graph
            token = (session.session_id, "switch", session.recoveries, graph.signature()[1])
            if not revalidate_backup(cand, self.pool, self.alive, token):
                continue
            session.tokens = [token]
            session.current = graph
            session.recoveries += 1
            self.stats.proactive_recoveries += 1
            detection = self._pending_detection.pop(
                session.session_id, self.config.detection_delay
            )
            switch_time = detection + self._ack_time(graph)
            self.stats.recovery_times.append(switch_time)
            self.ledger.record("recovery_switch", 128, len(graph.components()) + 1)
            self._emit_failure(recovered=True)
            self._replenish(session)
            return True
        return False

    def _reactive_recover(self, session: ServiceSession) -> bool:
        """All backups unusable: re-run BCP (the reactive path)."""
        result = self.bcp.compose(session.request, confirm=True)
        if not result.success or result.best is None:
            return False
        session.tokens = list(result.session_tokens)
        session.current = result.best
        session.recoveries += 1
        self.stats.reactive_recoveries += 1
        detection = self._pending_detection.pop(
            session.session_id, self.config.detection_delay
        )
        self.stats.recovery_times.append(detection + result.setup_time)
        self._emit_failure(recovered=True)
        self._install_backups(session, result)
        return True

    def _release_claims_only(self, session: ServiceSession) -> None:
        for token in session.tokens:
            self.pool.release(token)
        session.tokens = []

    def _ack_time(self, graph: ServiceGraph) -> float:
        return max(
            sum(self.overlay.latency(u, v) for u, v in zip(p, p[1:]) if u != v)
            for p in graph.branch_paths()
        )

    # ------------------------------------------------------------------
    # backup maintenance (low-rate probing)
    # ------------------------------------------------------------------
    def _maintain(self, session_id: int) -> None:
        session = self.sessions.get(session_id)
        if session is None or not session.active:
            return
        kept: List[CandidateGraph] = []
        for cand in session.backups:
            # one low-rate measurement probe per branch of the backup
            self.ledger.record("maintenance_probe", 64, len(cand.graph.branch_paths()))
            if all(self.alive(p) for p in cand.graph.peers()):
                kept.append(cand)
        session.backups = kept
        self._replenish(session)

    def _replenish(self, session: ServiceSession) -> None:
        """Refill the backups from the qualified pool."""
        while len(session.backups) < session.target_backups and session.spare_qualified:
            chosen = {c.graph.signature() for c in session.backups}
            chosen.add(session.current.signature())
            pool = [
                c
                for c in session.spare_qualified
                if c.graph.signature() not in chosen
                and all(self.alive(p) for p in c.graph.peers())
            ]
            if not pool:
                break
            extra = select_backups(
                session.current,
                pool,
                session.target_backups - len(session.backups),
                self.bcp.peer_failure,
            )
            if not extra:
                break
            session.backups.extend(extra)
            extra_sigs = {c.graph.signature() for c in extra}
            session.spare_qualified = [
                c for c in session.spare_qualified if c.graph.signature() not in extra_sigs
            ]

    # ------------------------------------------------------------------
    def active_sessions(self) -> List[ServiceSession]:
        return [s for s in self.sessions.values() if s.active]
