"""The topology graph against networkx (a test-only reference).

:class:`repro.topology.graph.Graph` must iterate exactly as
``networkx.Graph`` does after the same calls: the IP generator draws one
random value per edge in edge order, and every link-indexed list follows
that order, so an order that differed would be another topology.
"""

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.topology.graph import Graph, connected_components, is_connected

from worlds import as_networkx, fuzz_settings

_NODES = st.integers(0, 11)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("node"), _NODES, st.dictionaries(st.sampled_from("ab"), st.integers())),
        st.tuples(st.just("edge"), _NODES, _NODES, st.dictionaries(st.sampled_from("xy"), st.integers())),
    ),
    max_size=40,
)


def _build(cls, ops):
    g = cls()
    for op in ops:
        if op[0] == "node":
            g.add_node(op[1], **op[2])
        else:
            g.add_edge(op[1], op[2], **op[3])
    return g


@fuzz_settings(300)
@given(ops=_OPS)
def test_iterates_as_networkx_does_after_the_same_calls(ops):
    g, ref = _build(Graph, ops), _build(nx.Graph, ops)
    assert list(g.nodes(data=True)) == list(ref.nodes(data=True))
    assert list(g.edges) == list(ref.edges)
    assert list(g.edges(data=True)) == list(ref.edges(data=True))
    assert list(g.edges(data="x")) == list(ref.edges(data="x"))
    assert list(g.nodes(data="a")) == list(ref.nodes(data="a"))
    assert g.degree() == list(ref.degree())
    assert g.number_of_nodes() == ref.number_of_nodes()
    assert g.number_of_edges() == ref.number_of_edges()
    for n in ref.nodes:
        assert list(g.neighbors(n)) == list(ref.neighbors(n))
        assert g.degree(n) == ref.degree[n]
    for u, v in ref.edges:
        assert g.has_edge(v, u) and g.edges[v, u] is g.edges[u, v]
    assert [sorted(c) for c in connected_components(g)] == [
        sorted(c) for c in nx.connected_components(ref)
    ]
    if len(ref):
        assert is_connected(g) == nx.is_connected(ref)


def test_edge_attributes_are_one_dict_for_both_directions():
    g = Graph()
    g.add_edge(1, 2, delay=0.5)
    g.edges[2, 1]["delay"] = 0.25
    g.add_edge(2, 1, bandwidth=10.0)
    assert list(g.edges(data=True)) == [(1, 2, {"delay": 0.25, "bandwidth": 10.0})]


def test_empty_graph_is_not_connected():
    assert not is_connected(Graph())


def test_round_trip_through_networkx_keeps_the_order():
    g = Graph()
    g.add_nodes_from([3, 1, 2])
    g.add_edge(2, 3, delay=1.0)
    g.add_edge(1, 3, delay=2.0)
    assert list(as_networkx(g).edges(data=True)) == list(g.edges(data=True))
    with pytest.raises(KeyError):
        g.edges[1, 2]
