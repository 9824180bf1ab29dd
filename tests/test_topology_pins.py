"""SHA-256 pins of the topologies the benchmark and the figures build.

Every number a figure or a benchmark workload reports starts from an IP
graph, an overlay over it and the overlay's shortest paths.  This test
pins all three, for each world the benchmark builds:

* every node and edge of the IP graph and of the overlay, with every
  attribute, in iteration order (``generate_ip_network`` draws one random
  value per edge in edge order, so that order *is* the topology);
* the overlay router's peer order, link order, delay matrix (its float64
  bytes) and predecessor matrix, and the same of one re-weighted router
  (the measurement plane's re-price: some links slower, one priced out).

A change to the graph type, the generators or the shortest-path code
that moves one bit of any of these fails here.  The pins hold under
every ``PYTHONHASHSEED``.
"""

import hashlib

import numpy as np
import pytest

from repro.sim.rng import as_generator, spawn
from repro.topology.inet import generate_ip_network
from repro.topology.overlay import mesh_overlay, random_overlay, wan_overlay
from repro.workload.scenarios import simulation_testbed


def _mesh_world(n_ip: int, n_peers: int, seed: int):
    """The topology ``simulation_testbed(n_ip, n_peers, seed=seed)`` builds
    (and so a ``LiveCluster`` of ``n_peers``, with ``n_ip = max(4 n, 64)``,
    and ``largegraph_world``, which draws its streams the same way)."""
    rng_topo, rng_overlay, *_ = spawn(as_generator(seed), 5)
    ip = generate_ip_network(n_ip, rng=rng_topo)
    return mesh_overlay(ip, n_peers, k=4, rng=rng_overlay)


def _random_world():
    rng_topo, rng_overlay, *_ = spawn(as_generator(5), 5)
    ip = generate_ip_network(1000, rng=rng_topo)
    return random_overlay(ip, 200, k=4, rng=rng_overlay)


def _planetlab_world():
    """The topology of ``planetlab_testbed()`` (102 peers, seed 0)."""
    rng_topo, *_ = spawn(as_generator(0), 4)
    return wan_overlay(102, rng=rng_topo)


WORLDS = {
    "sync-sim": lambda: _mesh_world(1000, 200, 5),
    "live-5": lambda: _mesh_world(64, 5, 3),
    "live-10": lambda: _mesh_world(64, 10, 11),
    "live-16": lambda: _mesh_world(64, 16, 11),
    "live-16-seed-5": lambda: _mesh_world(64, 16, 5),
    "live-48": lambda: _mesh_world(192, 48, 11),
    "large-graph": lambda: _mesh_world(300, 60, 2),
    "random-200": _random_world,
    "planetlab": _planetlab_world,
}

PINS = {
    "sync-sim": "cf2bbd8df71ceef344f47740668c4c5ab5183158c87b8dc9bbbda37b16e9d83d",
    "live-5": "6712508b4b304eace1ab8d3b3def61d7d5ac4093d4c407fd0ab2fd4a839dba6d",
    "live-10": "99563706636fe7e64991f83ff8f476d1ebc4d757a1dfdd63a71dc8f3d1adbdfa",
    "live-16": "785d6fda1dcec1577c3aa3d46dd8d49ea9b5e9dbae05017a31f16f7ff08ba4a1",
    "live-16-seed-5": "f8be2b4666e1b1f9adaab109297581a112143c71a9335d21adb70fbce89a0761",
    "live-48": "d4edd3861010cfe5791a7a0b4b4e2d10a8006dbe7c5f41e7c4e8f2c0b15cc130",
    "large-graph": "14a9b1bb8366470fe866cbf7a8749a2074d1739b76b7a0ffc213f786750d20ea",
    "random-200": "1f72a46622cb504d3dad01b8dac0dacaa01bfc30a346e753a759cc6592a9799e",
    "planetlab": "fa72811f7d10f77a8b2ecb9b6dffe2ace2837a029236d554df5c5269476ecab5",
}


def _graph_lines(graph):
    for n, data in graph.nodes(data=True):
        yield repr(("node", n, list(data.items())))
    for u, v, data in graph.edges(data=True):
        yield repr(("edge", u, v, list(data.items())))


def _router_lines(router):
    yield repr(("peers", router.peers))
    yield repr(("links", router.link_order))
    yield np.asarray(router._dist, dtype=np.float64).tobytes().hex()
    yield np.asarray(router._pred, dtype=np.int64).tobytes().hex()


def _reweighting(router) -> dict:
    """Every third link 2.5 times slower, and the first one priced out."""
    links = router.link_order
    out = {link: 2.5 * router.link_delay(*link) for link in links[::3]}
    out[links[0]] = float("inf")
    return out


def digest(overlay) -> str:
    h = hashlib.sha256()
    lines = [repr(("kind", overlay.kind))]
    if overlay.ip_graph is not None:
        lines += _graph_lines(overlay.ip_graph)
        lines.append(repr(("ip_of", sorted(overlay.ip_of.items()))))
    lines += _graph_lines(overlay.graph)
    lines += _router_lines(overlay.router)
    lines += _router_lines(overlay.router.reweighted(_reweighting(overlay.router)))
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_topology_and_routes_are_the_pinned_ones(world):
    assert digest(WORLDS[world]()) == PINS[world]


def test_the_pinned_mesh_is_the_one_the_testbed_builds():
    scenario = simulation_testbed(n_ip=64, n_peers=5, n_functions=6, seed=3)
    assert digest(scenario.overlay) == PINS["live-5"]
