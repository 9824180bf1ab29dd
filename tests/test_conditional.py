"""Tests for conditional branch semantics (§8 future-work extension)."""

import pytest

from repro.core.conditional import (
    ConditionalAnnotation,
    branch_probabilities,
    conditional_link_bandwidths,
    expected_qos,
    select_by_expected_qos,
)
from repro.core.function_graph import FunctionGraph
from repro.core.qos import QoSVector
from repro.core.resources import ResourceVector
from repro.core.selection import CandidateGraph
from repro.core.service_graph import ServiceGraph
from repro.discovery.metadata import ServiceMetadata
from repro.services.component import QualitySpec

from worlds import micro_overlay


def meta(cid, fn, peer, delay=0.01):
    return ServiceMetadata(
        component_id=cid,
        function=fn,
        peer=peer,
        qp=QoSVector({"delay": delay, "loss": 0.0}),
        resources=ResourceVector({"cpu": 10.0}),
        input_quality=QualitySpec(),
        output_quality=QualitySpec(),
    )


def diamond_graph(peers=(2, 3, 4, 5), delays=(0.01, 0.01, 0.01, 0.01)):
    fg = FunctionGraph.from_edges(
        ["fa", "fb", "fc", "fd"],
        [("fa", "fb"), ("fa", "fc"), ("fb", "fd"), ("fc", "fd")],
    )
    assignment = {
        "fa": meta(1, "fa", peers[0], delays[0]),
        "fb": meta(2, "fb", peers[1], delays[1]),
        "fc": meta(3, "fc", peers[2], delays[2]),
        "fd": meta(4, "fd", peers[3], delays[3]),
    }
    return ServiceGraph(fg, assignment, source_peer=0, dest_peer=7, base_bandwidth=1.0)


DIAMOND_FORK = ConditionalAnnotation({"fa": {"fb": 0.7, "fc": 0.3}})


class TestAnnotation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ConditionalAnnotation({"fa": {"fb": 0.7, "fc": 0.7}})

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            ConditionalAnnotation({"fa": {"fb": 1.5, "fc": -0.5}})

    def test_validate_against_requires_full_successor_cover(self):
        graph = diamond_graph().pattern
        with pytest.raises(ValueError):
            ConditionalAnnotation({"fa": {"fb": 1.0}}).validate_against(graph)

    def test_validate_against_unknown_function(self):
        graph = diamond_graph().pattern
        with pytest.raises(ValueError):
            ConditionalAnnotation({"zz": {"fb": 1.0}}).validate_against(graph)

    def test_unannotated_fork_is_parallel(self):
        assert ConditionalAnnotation().probability("fa", "fb") == 1.0


class TestBranchProbabilities:
    def test_conditional_fork_splits(self):
        probs = branch_probabilities(diamond_graph().pattern, DIAMOND_FORK)
        assert probs[("fa", "fb", "fd")] == pytest.approx(0.7)
        assert probs[("fa", "fc", "fd")] == pytest.approx(0.3)
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_parallel_default_all_ones(self):
        probs = branch_probabilities(diamond_graph().pattern, ConditionalAnnotation())
        assert all(p == 1.0 for p in probs.values())

    def test_linear_graph_single_branch(self):
        fg = FunctionGraph.linear(["a", "b"])
        probs = branch_probabilities(fg, ConditionalAnnotation())
        assert probs == {("a", "b"): 1.0}


class TestExpectedQoS:
    def test_expectation_between_branch_extremes(self):
        mov = micro_overlay(8)
        sg = diamond_graph(delays=(0.01, 0.5, 0.01, 0.01))  # fb slow
        worst = sg.end_to_end_qos(mov).get("delay")
        fast_branch = sg.branch_qos(mov, ("fa", "fc", "fd")).get("delay")
        expected = expected_qos(sg, mov, DIAMOND_FORK).get("delay")
        assert fast_branch < expected < worst

    def test_weights_follow_probabilities(self):
        mov = micro_overlay(8)
        sg = diamond_graph(delays=(0.0, 0.4, 0.0, 0.0))
        slow = sg.branch_qos(mov, ("fa", "fb", "fd")).get("delay")
        fast = sg.branch_qos(mov, ("fa", "fc", "fd")).get("delay")
        e = expected_qos(sg, mov, DIAMOND_FORK).get("delay")
        assert e == pytest.approx(0.7 * slow + 0.3 * fast)

    def test_zero_probability_branch_excluded(self):
        mov = micro_overlay(8)
        sg = diamond_graph(delays=(0.0, 9.9, 0.0, 0.0))  # fb catastrophic
        ann = ConditionalAnnotation({"fa": {"fb": 0.0, "fc": 1.0}})
        e = expected_qos(sg, mov, ann).get("delay")
        fast = sg.branch_qos(mov, ("fa", "fc", "fd")).get("delay")
        assert e == pytest.approx(fast)


class TestConditionalBandwidth:
    def test_expected_mode_scales_fork_links(self):
        sg = diamond_graph()
        links = {
            (l.from_fn, l.to_fn): l.bandwidth
            for l in conditional_link_bandwidths(sg, DIAMOND_FORK, mode="expected")
        }
        assert links[("fa", "fb")] == pytest.approx(0.7)
        assert links[("fa", "fc")] == pytest.approx(0.3)
        assert links[(None, "fa")] == pytest.approx(1.0)
        # the join sees all traffic again
        assert links[("fd", None)] == pytest.approx(1.0)

    def test_peak_mode_unscaled(self):
        sg = diamond_graph()
        links = {
            (l.from_fn, l.to_fn): l.bandwidth
            for l in conditional_link_bandwidths(sg, DIAMOND_FORK, mode="peak")
        }
        assert links[("fa", "fb")] == pytest.approx(1.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            conditional_link_bandwidths(diamond_graph(), DIAMOND_FORK, mode="average")


class TestSelectByExpectedQoS:
    def test_reranks_toward_probable_branch(self):
        mov = micro_overlay(8)
        # graph A: slow component on the *rare* branch (fc)
        a = diamond_graph(delays=(0.01, 0.01, 0.5, 0.01))
        # graph B: slow component on the *common* branch (fb)
        b_fg = diamond_graph(delays=(0.01, 0.5, 0.01, 0.01))
        cands = [
            CandidateGraph(graph=b_fg, qos=b_fg.end_to_end_qos(mov)),
            CandidateGraph(graph=a, qos=a.end_to_end_qos(mov)),
        ]
        # worst-branch QoS is (nearly) identical, but expectation prefers A
        best = select_by_expected_qos(cands, mov, DIAMOND_FORK)
        assert best.graph is a

    def test_empty_qualified_none(self):
        mov = micro_overlay(8)
        assert select_by_expected_qos([], mov, DIAMOND_FORK) is None
