"""Unit tests for the peer liveness table."""

import pytest

from repro.sim.network import MessageNetwork, UnknownNodeError


@pytest.fixture
def network():
    net = MessageNetwork()
    for i in range(4):
        net.register(i)
    return net


class TestLiveness:
    def test_alive_nodes(self, network):
        network.set_alive(1, False)
        assert sorted(network.alive_nodes()) == [0, 2, 3]
        assert not network.is_alive(1)

    def test_unregister(self, network):
        network.unregister(3)
        assert 3 not in network.nodes()
        assert not network.is_alive(3)


class TestErrors:
    def test_set_alive_unknown_raises(self, network):
        with pytest.raises(UnknownNodeError):
            network.set_alive(99, True)
