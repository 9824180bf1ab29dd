"""Shared fixtures: small deterministic topologies and wired middleware.

Topology generation is the slow part, so IP graphs and overlays are
session-scoped (they are never mutated); everything stateful (resource
pools, DHTs, registries, SpiderNet stacks) is rebuilt per test.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import SpiderNet
from repro.topology import generate_ip_network, mesh_overlay, wan_overlay
from repro.workload import PopulationConfig, RequestConfig, RequestGenerator, generate_population

# ``--hypothesis-profile=long``: the seed budget of CI's long-schedule job.
# Tests that defer to a selected profile (tests/worlds.py::fuzz_settings)
# run this many fresh examples instead of their short derandomized tier-1
# schedule, and print the blob that reproduces a failure.
settings.register_profile(
    "long", max_examples=5000, derandomize=False, print_blob=True, deadline=None
)


@pytest.fixture(scope="session")
def ip_graph():
    return generate_ip_network(200, rng=np.random.default_rng(1234))


@pytest.fixture(scope="session")
def overlay(ip_graph):
    return mesh_overlay(ip_graph, n_peers=40, k=3, rng=np.random.default_rng(99))


@pytest.fixture(scope="session")
def wan():
    return wan_overlay(n_peers=30, rng=np.random.default_rng(7))


@pytest.fixture
def net(overlay):
    """A freshly wired SpiderNet stack over the shared overlay."""
    return SpiderNet.build(overlay, rng=np.random.default_rng(5))


@pytest.fixture
def populated_net(overlay):
    """SpiderNet with a deployed 12-function population and a request source."""
    spider = SpiderNet.build(overlay, rng=np.random.default_rng(5))
    population = generate_population(
        overlay, PopulationConfig(n_functions=12), rng=np.random.default_rng(17)
    )
    spider.deploy(population)
    return spider, population


@pytest.fixture
def request_gen(populated_net):
    spider, _ = populated_net
    return RequestGenerator(
        spider.overlay,
        spider.registry.functions(),
        RequestConfig(function_count=(2, 3)),
        rng=np.random.default_rng(23),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(42)
