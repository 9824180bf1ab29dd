"""Unit tests for decentralized service discovery (registry over DHT)."""

import numpy as np
import pytest

from repro.core.qos import QoSVector
from repro.core.resources import ResourceVector
from repro.dht.pastry import PastryNetwork
from repro.discovery.metadata import ServiceMetadata
from repro.discovery.registry import ServiceRegistry
from repro.services.component import ComponentSpec


def make_spec(function: str, peer: int) -> ComponentSpec:
    return ComponentSpec.create(
        function=function,
        peer=peer,
        qp=QoSVector({"delay": 0.01, "loss": 0.0}),
        resources=ResourceVector({"cpu": 5.0, "memory": 16.0}),
    )


@pytest.fixture
def registry(overlay):
    dht = PastryNetwork(overlay, rng=np.random.default_rng(3))
    dht.build()
    return ServiceRegistry(dht)


class TestRegistration:
    def test_register_then_lookup(self, registry):
        spec = make_spec("transcode", peer=4)
        registry.register(spec)
        result = registry.lookup("transcode", origin_peer=10)
        assert len(result.components) == 1
        meta = result.components[0]
        assert meta.component_id == spec.component_id
        assert meta.peer == 4
        assert meta.function == "transcode"

    def test_duplicates_all_returned(self, registry):
        specs = [make_spec("filter", peer=p) for p in (1, 2, 3)]
        for s in specs:
            registry.register(s)
        result = registry.lookup("filter", origin_peer=0)
        assert {m.peer for m in result.components} == {1, 2, 3}

    def test_unknown_function_empty(self, registry):
        assert registry.lookup("nope", origin_peer=0).components == []

    def test_metadata_from_spec_carries_static_fields(self):
        spec = make_spec("scale", peer=9)
        meta = ServiceMetadata.from_spec(spec, registered_at=5.0)
        assert meta.qp == spec.qp
        assert meta.resources == spec.resources
        assert meta.registered_at == 5.0
        assert meta.function == "scale"

    def test_deregister_peer_removes_from_dht(self, registry):
        s1, s2 = make_spec("mix", peer=1), make_spec("mix", peer=2)
        registry.register(s1)
        registry.register(s2)
        removed = registry.deregister_peer(1)
        assert removed >= 1
        result = registry.lookup("mix", origin_peer=0)
        assert {m.peer for m in result.components} == {2}


class TestLiveness:
    def test_down_peer_filtered(self, registry):
        registry.register(make_spec("f", peer=1))
        registry.register(make_spec("f", peer=2))
        registry.peer_departed(1)
        result = registry.lookup("f", origin_peer=0)
        assert {m.peer for m in result.components} == {2}

    def test_include_down_override(self, registry):
        registry.register(make_spec("f", peer=1))
        registry.peer_departed(1)
        result = registry.lookup("f", origin_peer=0, include_down=True)
        assert {m.peer for m in result.components} == {1}

    def test_peer_return_restores_visibility(self, registry):
        registry.register(make_spec("f", peer=1))
        registry.peer_departed(1)
        registry.peer_arrived(1)
        assert len(registry.lookup("f", origin_peer=0).components) == 1

    def test_duplicates_view_respects_liveness(self, registry):
        registry.register(make_spec("g", peer=1))
        registry.register(make_spec("g", peer=2))
        registry.peer_departed(2)
        assert {m.peer for m in registry.duplicates("g")} == {1}
        assert {m.peer for m in registry.duplicates("g", include_down=True)} == {1, 2}


class TestViews:
    def test_functions_sorted(self, registry):
        for fn in ("zeta", "alpha"):
            registry.register(make_spec(fn, peer=0))
        assert registry.functions() == ["alpha", "zeta"]

    def test_registered_on(self, registry):
        spec = make_spec("f", peer=6)
        registry.register(spec)
        metas = registry.registered_on(6)
        assert len(metas) == 1 and metas[0].component_id == spec.component_id
        assert registry.registered_on(7) == []

    def test_lookup_rtt_doubles_latency(self, registry):
        registry.register(make_spec("f", peer=1))
        r = registry.lookup("f", origin_peer=30)
        assert r.rtt == pytest.approx(2 * r.latency)
