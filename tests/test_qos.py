"""Unit + property tests for the additive QoS model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qos import (
    QoSRequirement,
    QoSVector,
    additive_to_loss,
    loss_to_additive,
)

small_floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestLossTransform:
    def test_zero_loss_maps_to_zero(self):
        assert loss_to_additive(0.0) == 0.0

    def test_round_trip(self):
        for rate in (0.001, 0.01, 0.1, 0.5, 0.99):
            assert additive_to_loss(loss_to_additive(rate)) == pytest.approx(rate)

    def test_additivity_matches_survival_product(self):
        a, b = 0.1, 0.2
        combined = loss_to_additive(a) + loss_to_additive(b)
        expected = 1 - (1 - a) * (1 - b)
        assert additive_to_loss(combined) == pytest.approx(expected)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            loss_to_additive(1.0)
        with pytest.raises(ValueError):
            loss_to_additive(-0.1)
        with pytest.raises(ValueError):
            additive_to_loss(-1.0)

    @given(st.floats(min_value=0.0, max_value=0.999))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, rate):
        assert additive_to_loss(loss_to_additive(rate)) == pytest.approx(rate, abs=1e-12)


class TestQoSVector:
    def test_zero_constructor(self):
        z = QoSVector.zero(["delay", "loss"])
        assert z.get("delay") == 0.0 and z.get("loss") == 0.0

    def test_addition_metric_wise(self):
        a = QoSVector({"delay": 1.0, "loss": 0.1})
        b = QoSVector({"delay": 2.0, "loss": 0.2})
        s = a + b
        assert s.get("delay") == 3.0
        assert s.get("loss") == pytest.approx(0.3)

    def test_addition_metric_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QoSVector({"delay": 1.0}) + QoSVector({"loss": 1.0})

    def test_negative_metric_rejected(self):
        with pytest.raises(ValueError):
            QoSVector({"delay": -1.0})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            QoSVector({"delay": float("nan")})

    def test_elementwise_max(self):
        a = QoSVector({"delay": 1.0, "loss": 0.5})
        b = QoSVector({"delay": 2.0, "loss": 0.1})
        m = a.elementwise_max(b)
        assert m.get("delay") == 2.0 and m.get("loss") == 0.5

    def test_scaled(self):
        v = QoSVector({"delay": 2.0}).scaled(1.5)
        assert v.get("delay") == 3.0
        with pytest.raises(ValueError):
            QoSVector({"delay": 1.0}).scaled(-1.0)

    def test_immutability(self):
        v = QoSVector({"delay": 1.0})
        d = v.as_dict()
        d["delay"] = 99.0
        assert v.get("delay") == 1.0

    def test_metrics_sorted(self):
        assert QoSVector({"loss": 0, "delay": 0}).metrics() == ("delay", "loss")

    @given(small_floats, small_floats, small_floats, small_floats)
    @settings(max_examples=30, deadline=None)
    def test_addition_commutative(self, d1, l1, d2, l2):
        a = QoSVector({"delay": d1, "loss": l1})
        b = QoSVector({"delay": d2, "loss": l2})
        assert (a + b).as_dict() == pytest.approx((b + a).as_dict())

    @given(*[small_floats] * 6)
    @settings(max_examples=50, deadline=None)
    def test_plus_is_two_additions_to_the_bit(self, d1, l1, d2, l2, d3, l3):
        p = QoSVector({"delay": d1, "loss": l1})
        link = QoSVector({"delay": d2, "loss": l2})
        qp = QoSVector({"delay": d3, "loss": l3})
        fused = p.plus(link, qp)
        assert fused.as_dict() == (p + link + qp).as_dict()
        assert list(fused.values) == list(p.values)

    def test_plus_metric_mismatch_rejected(self):
        both = QoSVector({"delay": 1.0, "loss": 0.1})
        for link, qp in ((QoSVector({"delay": 1.0}), both), (both, QoSVector({"loss": 1.0}))):
            with pytest.raises(ValueError, match="metric mismatch"):
                both.plus(link, qp)


class TestQoSRequirement:
    def test_satisfied_by(self):
        req = QoSRequirement({"delay": 1.0, "loss": 0.5})
        assert req.satisfied_by(QoSVector({"delay": 0.9, "loss": 0.5}))
        assert not req.satisfied_by(QoSVector({"delay": 1.1, "loss": 0.1}))

    def test_missing_metric_fails(self):
        req = QoSRequirement({"delay": 1.0})
        assert not req.satisfied_by(QoSVector({"loss": 0.0}))

    def test_extra_metrics_ignored(self):
        req = QoSRequirement({"delay": 1.0})
        assert req.satisfied_by(QoSVector({"delay": 0.5, "loss": 123.0}))

    def test_violation_sign(self):
        req = QoSRequirement({"delay": 1.0})
        assert req.violation(QoSVector({"delay": 0.5})) < 0
        assert req.violation(QoSVector({"delay": 1.0})) == 0.0
        assert req.violation(QoSVector({"delay": 2.0})) == pytest.approx(1.0)

    def test_utilisation_is_eq2_qos_term(self):
        req = QoSRequirement({"delay": 2.0, "loss": 0.5})
        qos = QoSVector({"delay": 1.0, "loss": 0.25})
        assert req.utilisation(qos) == pytest.approx(0.5 + 0.5)

    def test_zero_vector_matches_metrics(self):
        req = QoSRequirement({"delay": 1.0, "loss": 0.1})
        z = req.zero_vector()
        assert set(z.as_dict()) == {"delay", "loss"}

    def test_relax(self):
        req = QoSRequirement({"delay": 1.0}).relax(2.0)
        assert req.bounds["delay"] == 2.0
        with pytest.raises(ValueError):
            req.relax(0.0)

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError):
            QoSRequirement({"delay": 0.0})

    def test_empty_requirement_always_satisfied(self):
        req = QoSRequirement({})
        assert req.satisfied_by(QoSVector({"delay": 1e9}))
        assert req.violation(QoSVector({})) == 0.0

    @given(st.floats(min_value=0.01, max_value=100), st.floats(min_value=0.0, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_satisfied_iff_violation_nonpositive(self, bound, value):
        req = QoSRequirement({"delay": bound})
        qos = QoSVector({"delay": value})
        assert req.satisfied_by(qos) == (req.violation(qos) <= 0)
