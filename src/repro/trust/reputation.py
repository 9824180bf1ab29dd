"""Decentralized trust management (the paper's first future-work item).

§8: "In the future, we will integrate decentralized trust management
into the current service composition framework to support secure
service composition."  This module provides that integration point: a
fully decentralized beta-reputation system in the style of Jøsang's
beta model combined with one-level recommendation weighting (a
lightweight web-of-trust, avoiding any global iteration à la EigenTrust
that would need the very global state SpiderNet avoids).

Each peer keeps **direct experience** counters (positive/negative
session outcomes) about peers it actually used.  Evaluating a stranger
combines the evaluator's direct estimate with **recommendations** from
the peers the evaluator trusts most, weighted by that trust — all
information any peer can obtain with a handful of messages.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..sim.metrics import MessageLedger

__all__ = ["BetaReputation", "TrustManager"]


@dataclass
class BetaReputation:
    """Beta-model evidence: α positive and β negative observations.

    The trust estimate is the expected value of the Beta(α+1, β+1)
    posterior, E = (α+1)/(α+β+2): no evidence → 0.5; evidence moves the
    estimate toward the observed ratio with confidence growing in the
    sample size.  ``decay`` ages old evidence so behaviour changes are
    picked up (a peer cannot live on past goodwill forever).
    """

    alpha: float = 0.0
    beta: float = 0.0

    @property
    def expectation(self) -> float:
        return (self.alpha + 1.0) / (self.alpha + self.beta + 2.0)

    @property
    def confidence(self) -> float:
        """How much evidence backs the expectation, in [0, 1)."""
        n = self.alpha + self.beta
        return n / (n + 2.0)

    def record(self, positive: bool, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError(f"negative evidence weight: {weight}")
        if positive:
            self.alpha += weight
        else:
            self.beta += weight

    def decayed(self, factor: float) -> None:
        """Age the evidence in place: multiply both counters by ``factor``."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"decay factor must be in [0,1], got {factor}")
        self.alpha *= factor
        self.beta *= factor


class TrustManager:
    """Per-peer trust state plus decentralized evaluation.

    ``trust(evaluator, target)`` blends

    * the evaluator's **direct** beta estimate of the target, and
    * up to ``max_recommenders`` **recommendations** — the direct
      estimates held by the peers the evaluator trusts most — weighted
      by the evaluator's trust in each recommender,

    with the direct component's share growing with its confidence (an
    evaluator with lots of first-hand evidence barely needs gossip).
    Each evaluation charges ``trust_query`` messages to the ledger: this
    is a *protocol*, not an oracle.
    """

    def __init__(
        self,
        max_recommenders: int = 4,
        ledger: Optional[MessageLedger] = None,
        decay: float = 1.0,
    ) -> None:
        if max_recommenders < 0:
            raise ValueError("max_recommenders must be >= 0")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.max_recommenders = max_recommenders
        self.ledger = ledger if ledger is not None else MessageLedger()
        self.decay = decay
        # _direct[rater][target] -> BetaReputation
        self._direct: Dict[int, Dict[int, BetaReputation]] = defaultdict(dict)

    # ------------------------------------------------------------------
    # evidence
    # ------------------------------------------------------------------
    def record_interaction(self, rater: int, target: int, positive: bool, weight: float = 1.0) -> None:
        """The rater observed the target behave well/badly in a session."""
        if rater == target:
            return  # self-ratings are meaningless and exploitable
        rep = self._direct[rater].setdefault(target, BetaReputation())
        if self.decay < 1.0:
            rep.decayed(self.decay)
        rep.record(positive, weight)

    def direct(self, rater: int, target: int) -> BetaReputation:
        return self._direct[rater].get(target, BetaReputation())

    def interactions(self, rater: int) -> List[int]:
        return sorted(self._direct[rater])

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def trust(self, evaluator: int, target: int) -> float:
        """Decentralized trust estimate of ``target`` by ``evaluator``."""
        if evaluator == target:
            return 1.0
        own = self.direct(evaluator, target)
        direct_value = own.expectation
        direct_weight = own.confidence
        # recommenders: the peers the evaluator trusts most *directly*
        recommenders = sorted(
            (
                (rep.expectation * rep.confidence, peer)
                for peer, rep in self._direct[evaluator].items()
                if peer != target
            ),
            reverse=True,
        )[: self.max_recommenders]
        rec_value = 0.0
        rec_weight = 0.0
        for recommender_trust, recommender in recommenders:
            their = self.direct(recommender, target)
            if their.confidence == 0.0:
                continue
            self.ledger.record("trust_query", 96)
            w = recommender_trust * their.confidence
            rec_value += w * their.expectation
            rec_weight += w
        if rec_weight > 0.0:
            rec_value /= rec_weight
        # blend: direct evidence dominates as its confidence grows
        if direct_weight == 0.0 and rec_weight == 0.0:
            return 0.5  # total stranger
        blend = direct_weight / (direct_weight + min(rec_weight, 1.0)) if (
            direct_weight + rec_weight
        ) > 0 else 0.0
        if rec_weight == 0.0:
            return direct_value
        return blend * direct_value + (1.0 - blend) * rec_value

    # ------------------------------------------------------------------
    def session_feedback(
        self, source: int, peers: Iterable[int], positive: bool
    ) -> None:
        """Rate every service peer of a finished session at once."""
        for peer in peers:
            self.record_interaction(source, peer, positive)
