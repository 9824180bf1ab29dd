"""QoS vectors and requirements.

The paper's QoS model (§2.1): a request carries requirements
``Qreq = [q1, ..., qm]`` over quality parameters such as delay and data
loss rate, and "all QoS metrics are additive since a multiplicative
metric (e.g., loss rate) can be transformed into additive parameters
using logarithmic function".  We implement exactly that: a
:class:`QoSVector` is an additive vector over named metrics, with helpers
to move loss rates in and out of the additive (−log survival) domain.

Bandwidth is *not* a QoS metric here — the paper treats it as a resource
(§2.1 footnote), handled in :mod:`repro.core.resources`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

__all__ = [
    "QoSVector",
    "QoSRequirement",
    "loss_to_additive",
    "additive_to_loss",
    "DEFAULT_METRICS",
]

DEFAULT_METRICS: Tuple[str, ...] = ("delay", "loss")


def loss_to_additive(loss_rate: float) -> float:
    """Map a loss rate in [0, 1) to the additive domain: −ln(1 − loss).

    Additivity: if two hops independently lose ``a`` and ``b`` fractions,
    the end-to-end survival is (1−a)(1−b), so −ln survival adds.
    """
    if not 0.0 <= loss_rate < 1.0:
        raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
    return -math.log1p(-loss_rate)


def additive_to_loss(additive: float) -> float:
    """Inverse of :func:`loss_to_additive`."""
    if additive < 0:
        raise ValueError(f"additive loss must be >= 0, got {additive}")
    return -math.expm1(-additive)


@dataclass(frozen=True)
class QoSVector:
    """An immutable additive QoS vector (e.g. accumulated delay + loss).

    All arithmetic is metric-wise; adding vectors with different metric
    sets is an error (it would silently drop constraints).
    """

    values: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))
        for k, v in self.values.items():
            if v < 0 or math.isnan(v):
                raise ValueError(f"QoS metric {k!r} must be >= 0, got {v}")

    @classmethod
    def _from_trusted(cls, values: Dict[str, float]) -> "QoSVector":
        """Construct from an already-validated plain dict.

        Metric-wise arithmetic on validated vectors cannot produce a
        negative or NaN entry, so results of ``+`` / ``elementwise_max``
        skip the defensive copy and re-validation in ``__post_init__``
        (they dominate BCP's per-hop admission cost)."""
        self = object.__new__(cls)
        object.__setattr__(self, "values", values)
        return self

    @classmethod
    def zero(cls, metrics: Iterable[str] = DEFAULT_METRICS) -> "QoSVector":
        return cls._from_trusted({m: 0.0 for m in metrics})

    def metrics(self) -> Tuple[str, ...]:
        return tuple(sorted(self.values))

    def get(self, metric: str) -> float:
        return self.values[metric]

    def __add__(self, other: "QoSVector") -> "QoSVector":
        if set(self.values) != set(other.values):
            raise ValueError(
                f"metric mismatch: {sorted(self.values)} vs {sorted(other.values)}"
            )
        return QoSVector._from_trusted(
            {m: self.values[m] + other.values[m] for m in self.values}
        )

    def plus(self, link: "QoSVector", qp: "QoSVector") -> "QoSVector":
        """``self + link + qp`` in one dict build: each metric is summed as
        ``(self + link) + qp``, the order of the two additions, so the
        result is the same to the bit (BCP's admission adds a hop's link
        QoS and the component's Qp to the probe's)."""
        p, l, q = self.values, link.values, qp.values
        if p.keys() == l.keys() == q.keys():
            return QoSVector._from_trusted({m: (p[m] + l[m]) + q[m] for m in p})
        other = l if p.keys() != l.keys() else q
        raise ValueError(f"metric mismatch: {sorted(p)} vs {sorted(other)}")

    def elementwise_max(self, other: "QoSVector") -> "QoSVector":
        """Metric-wise maximum — aggregates parallel DAG branches, where the
        end-to-end value is dominated by the worst branch."""
        if set(self.values) != set(other.values):
            raise ValueError("metric mismatch in elementwise_max")
        return QoSVector._from_trusted(
            {m: max(self.values[m], other.values[m]) for m in self.values}
        )

    def scaled(self, factor: float) -> "QoSVector":
        if factor < 0:
            raise ValueError("negative scale factor")
        return QoSVector({m: v * factor for m, v in self.values.items()})

    def as_dict(self) -> Dict[str, float]:
        return dict(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:.4g}" for k, v in sorted(self.values.items()))
        return f"QoSVector({inner})"


@dataclass(frozen=True)
class QoSRequirement:
    """Upper bounds on each additive QoS metric (the user's ``Qreq``)."""

    bounds: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bounds", dict(self.bounds))
        for k, v in self.bounds.items():
            if v <= 0 or math.isnan(v):
                raise ValueError(f"QoS bound {k!r} must be > 0, got {v}")

    def metrics(self) -> Tuple[str, ...]:
        return tuple(sorted(self.bounds))

    def zero_vector(self) -> QoSVector:
        return QoSVector.zero(self.bounds)

    def satisfied_by(self, qos: QoSVector) -> bool:
        """All constrained metrics within bounds (extra metrics ignored)."""
        values = qos.values
        for m, b in self.bounds.items():
            if not values.get(m, math.inf) <= b:
                return False
        return True

    def violation(self, qos: QoSVector) -> float:
        """Worst relative overshoot; <= 0 means satisfied."""
        if not self.bounds:
            return 0.0
        values = qos.values
        worst = -math.inf
        for m, b in self.bounds.items():
            v = (values.get(m, math.inf) - b) / b
            if v > worst:
                worst = v
        return worst

    def utilisation(self, qos: QoSVector) -> float:
        """Σ qᵢ/qᵢ_req — the QoS term of the backup-count formula (Eq. 2)."""
        return sum(qos.values.get(m, math.inf) / b for m, b in self.bounds.items())

    def relax(self, factor: float) -> "QoSRequirement":
        """A requirement with every bound multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("relax factor must be positive")
        return QoSRequirement({m: b * factor for m, b in self.bounds.items()})

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}<={v:.4g}" for k, v in sorted(self.bounds.items()))
        return f"QoSRequirement({inner})"
