"""Unit + property tests for resources and soft-state allocation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resources import (
    InsufficientResources,
    ResourcePool,
    ResourceVector,
)


class TestResourceVector:
    def test_zero(self):
        z = ResourceVector.zero(("cpu", "memory"))
        assert z.get("cpu") == 0.0

    def test_add_union_of_keys(self):
        s = ResourceVector({"cpu": 1.0}) + ResourceVector({"memory": 2.0})
        assert s.get("cpu") == 1.0 and s.get("memory") == 2.0

    def test_sub_clamps_epsilon_but_rejects_negative(self):
        a = ResourceVector({"cpu": 3.0})
        b = ResourceVector({"cpu": 1.0})
        assert (a - b).get("cpu") == 2.0
        with pytest.raises(ValueError):
            b - a

    def test_fits_within(self):
        cap = ResourceVector({"cpu": 10.0, "memory": 100.0})
        assert ResourceVector({"cpu": 10.0}).fits_within(cap)
        assert not ResourceVector({"cpu": 10.1}).fits_within(cap)

    def test_missing_type_treated_as_zero(self):
        cap = ResourceVector({"cpu": 1.0})
        assert not ResourceVector({"gpu": 0.5}).fits_within(cap)
        assert ResourceVector({}).fits_within(cap)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector({"cpu": -1.0})

    def test_get_unknown_zero(self):
        assert ResourceVector({}).get("cpu") == 0.0

    @given(
        st.floats(min_value=0, max_value=1e6),
        st.floats(min_value=0, max_value=1e6),
    )
    @settings(max_examples=30, deadline=None)
    def test_add_then_sub_round_trip(self, a, b):
        va, vb = ResourceVector({"cpu": a}), ResourceVector({"cpu": b})
        assert ((va + vb) - vb).get("cpu") == pytest.approx(a, rel=1e-9, abs=1e-9)


@pytest.fixture
def pool(overlay):
    caps = {p: ResourceVector({"cpu": 100.0, "memory": 512.0}) for p in overlay.peers()}
    return ResourcePool(overlay, caps)


class TestPoolAllocation:
    def test_available_initially_full(self, pool):
        assert pool.available(0).get("cpu") == 100.0

    def test_soft_allocate_reduces_availability(self, pool):
        assert pool.soft_allocate_peer("t1", 0, ResourceVector({"cpu": 30.0}))
        assert pool.available(0).get("cpu") == 70.0

    def test_allocation_beyond_capacity_refused(self, pool):
        assert not pool.soft_allocate_peer("t1", 0, ResourceVector({"cpu": 200.0}))
        assert pool.available(0).get("cpu") == 100.0

    def test_cancel_restores(self, pool):
        pool.soft_allocate_peer("t1", 0, ResourceVector({"cpu": 30.0}))
        pool.cancel("t1")
        assert pool.available(0).get("cpu") == 100.0
        assert not pool.has_token("t1")

    def test_cancel_unknown_token_noop(self, pool):
        pool.cancel("missing")  # no raise

    def test_confirm_then_cancel_rejected(self, pool):
        pool.soft_allocate_peer("t1", 0, ResourceVector({"cpu": 30.0}))
        pool.confirm("t1")
        with pytest.raises(InsufficientResources):
            pool.cancel("t1")
        # claim must survive the failed cancel
        assert pool.has_token("t1")
        assert pool.available(0).get("cpu") == 70.0

    def test_release_firm_claim(self, pool):
        pool.soft_allocate_peer("t1", 0, ResourceVector({"cpu": 30.0}))
        pool.confirm("t1")
        pool.release("t1")
        assert pool.available(0).get("cpu") == 100.0

    def test_confirm_unknown_token_raises(self, pool):
        with pytest.raises(KeyError):
            pool.confirm("nope")

    def test_token_accumulates_multiple_peers(self, pool):
        pool.soft_allocate_peer("t1", 0, ResourceVector({"cpu": 10.0}))
        pool.soft_allocate_peer("t1", 1, ResourceVector({"cpu": 20.0}))
        pool.cancel("t1")
        assert pool.available(0).get("cpu") == 100.0
        assert pool.available(1).get("cpu") == 100.0

    def test_transfer_rekeys_claim(self, pool):
        pool.soft_allocate_peer("old", 0, ResourceVector({"cpu": 10.0}))
        pool.transfer("old", "new")
        assert pool.has_token("new") and not pool.has_token("old")
        pool.cancel("new")
        assert pool.available(0).get("cpu") == 100.0

    def test_transfer_to_existing_token_rejected(self, pool):
        pool.soft_allocate_peer("a", 0, ResourceVector({"cpu": 1.0}))
        pool.soft_allocate_peer("b", 0, ResourceVector({"cpu": 1.0}))
        with pytest.raises(KeyError):
            pool.transfer("a", "b")

    def test_utilisation(self, pool):
        pool.soft_allocate_peer("t", 0, ResourceVector({"cpu": 25.0}))
        assert pool.utilisation(0, "cpu") == pytest.approx(0.25)

    def test_missing_capacity_for_peer_rejected(self, overlay):
        with pytest.raises(ValueError):
            ResourcePool(overlay, {0: ResourceVector({"cpu": 1.0})})


class TestBandwidth:
    def test_link_availability_decreases_on_path_alloc(self, pool, overlay):
        a, b = 0, 5
        links = overlay.router.links(a, b)
        before = [pool.link_available(l) for l in links]
        assert pool.soft_allocate_path("t", a, b, 0.5)
        after = [pool.link_available(l) for l in links]
        for x, y in zip(before, after):
            assert y == pytest.approx(x - 0.5)

    def test_path_allocation_atomic_on_failure(self, pool, overlay):
        a, b = 0, 5
        links = overlay.router.links(a, b)
        bottleneck = min(pool.link_available(l) for l in links)
        assert not pool.soft_allocate_path("t", a, b, bottleneck + 1.0)
        # nothing was deducted
        assert min(pool.link_available(l) for l in links) == pytest.approx(bottleneck)

    def test_path_available_is_bottleneck(self, pool, overlay):
        a, b = 0, 5
        links = overlay.router.links(a, b)
        assert pool.path_available_bandwidth(a, b) == pytest.approx(
            min(pool.link_available(l) for l in links)
        )

    def test_headroom_of_many_paths_equals_one_path_at_a_time(self, pool):
        assert pool.soft_allocate_path("t", 0, 5, 0.5)
        dsts = [5, 0, 7, 5, 12]
        assert pool.paths_available_bandwidth(0, dsts) == [
            pool.path_available_bandwidth(0, d) for d in dsts
        ]

    def test_self_path_infinite(self, pool):
        assert math.isinf(pool.path_available_bandwidth(3, 3))
        assert pool.soft_allocate_path("t", 3, 3, 1e9)

    def test_can_carry(self, pool):
        assert pool.can_carry(0, 5, 0.001)
        assert not pool.can_carry(0, 5, 1e9)

    def test_zero_bandwidth_trivially_allocates(self, pool):
        assert pool.soft_allocate_path("t", 0, 5, 0.0)


class TestInvariants:
    def test_check_invariants_clean_pool(self, pool):
        pool.check_invariants()

    def test_random_workload_never_overcommits(self, pool, overlay):
        rng = np.random.default_rng(0)
        router = overlay.router
        capacity = {l: overlay.graph.edges[l]["bandwidth"] for l in router.link_order}
        pairs = [(a, b) for a in overlay.peers()[::4] for b in overlay.peers() if a != b]
        link_claims = {}  # token -> [(link, bandwidth), ...], kept test-side
        left = dict(capacity)
        live_tokens = []
        for i in range(300):
            action = rng.random()
            if action < 0.5 or not live_tokens:
                token = f"t{i}"
                if rng.random() < 0.5:
                    peer = int(rng.integers(0, overlay.n_peers))
                    req = ResourceVector({"cpu": float(rng.uniform(1, 40))})
                    ok = pool.soft_allocate_peer(token, peer, req)
                else:
                    a, b = (int(p) for p in rng.choice(overlay.n_peers, 2, replace=False))
                    # sized to the path's headroom: links fill up, some
                    # claims are refused, and drained links have carried
                    # enough for float residue to show
                    headroom = max(min(left[l] for l in router.links(a, b)), 0.0)
                    bw = float(rng.uniform(0.2, 1.2)) * headroom
                    ok = pool.soft_allocate_path(token, a, b, bw)
                    if ok:
                        link_claims[token] = [(l, bw) for l in router.links(a, b)]
                if ok:
                    live_tokens.append((token, False))
            elif action < 0.75:
                idx = int(rng.integers(0, len(live_tokens)))
                token, firm = live_tokens.pop(idx)
                link_claims.pop(token, None)
                if firm:
                    pool.release(token)
                else:
                    pool.cancel(token)
            else:
                idx = int(rng.integers(0, len(live_tokens)))
                token, firm = live_tokens[idx]
                if not firm:
                    pool.confirm(token)
                    live_tokens[idx] = (token, True)
            pool.check_invariants()
            # oracle: each link's capacity minus the live claims on it
            left = dict(capacity)
            for claims in link_claims.values():
                for link, bw in claims:
                    left[link] -= bw
            for a, b in pairs:
                want = max(min(left[l] for l in router.links(a, b)), 0.0)
                assert pool.path_available_bandwidth(a, b) == pytest.approx(want, abs=1e-9)
            # a freed claim never hands back more than the link carries
            for link, cap in capacity.items():
                assert pool.link_available(link) <= cap
        for token, firm in live_tokens:
            pool.release(token) if firm else pool.cancel(token)
        for p in overlay.peers():
            assert pool.available(p).get("cpu") == pytest.approx(100.0)
        for link, cap in capacity.items():
            assert cap - 1e-9 <= pool.link_available(link) <= cap
