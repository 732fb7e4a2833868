"""Unit tests for topology wiring and BFS routing."""

from dataclasses import replace

import pytest

from repro.config import NetworkProfile
from repro.errors import ConfigurationError, NetworkError, RoutingError
from repro.net.device import Node, Port
from repro.net.packet import Frame
from repro.net.switch import Switch
from repro.net.topology import Topology
from repro.sim import Simulator


class _Host(Node):
    """Routing-table-free endpoint (terminates paths)."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.arrivals = []

    def handle_frame(self, frame: Frame, in_port: Port) -> None:
        self.arrivals.append(frame)


def _linear_topology(sim):
    """host_a - s1 - s2 - host_b"""
    profile = NetworkProfile()
    topo = Topology(sim, profile)
    a = topo.add(_Host(sim, "a"))
    s1 = topo.add(Switch(sim, "s1", profile))
    s2 = topo.add(Switch(sim, "s2", profile))
    b = topo.add(_Host(sim, "b"))
    topo.connect(a, s1)
    topo.connect(s1, s2)
    topo.connect(s2, b)
    topo.compute_routes()
    return topo, a, s1, s2, b


class TestRouting:
    def test_end_to_end_delivery_through_two_switches(self):
        sim = Simulator()
        _topo, a, _s1, _s2, b = _linear_topology(sim)
        a.ports[0].transmit(Frame("a", "b", None, 100))
        sim.run()
        assert len(b.arrivals) == 1
        assert b.arrivals[0].hops == 3  # s1, s2, b

    def test_reverse_direction(self):
        sim = Simulator()
        _topo, a, _s1, _s2, b = _linear_topology(sim)
        b.ports[0].transmit(Frame("b", "a", None, 100))
        sim.run()
        assert len(a.arrivals) == 1

    def test_path_reports_node_sequence(self):
        sim = Simulator()
        topo, *_rest = _linear_topology(sim)
        assert topo.path("a", "b") == ["a", "s1", "s2", "b"]

    def test_no_transit_through_hosts(self):
        """A path between two switches must not cut through a host."""
        sim = Simulator()
        profile = NetworkProfile()
        topo = Topology(sim, profile)
        s1 = topo.add(Switch(sim, "s1", profile))
        s2 = topo.add(Switch(sim, "s2", profile))
        h = topo.add(_Host(sim, "h"))
        # s1 - h - s2 is the only "path"; it must be rejected.
        topo.connect(s1, h)
        topo.connect(h, s2)
        with pytest.raises(RoutingError):
            topo.path("s1", "s2")

    def test_star_topology_routes_each_leaf(self):
        sim = Simulator()
        profile = NetworkProfile()
        topo = Topology(sim, profile)
        hub = topo.add(Switch(sim, "hub", profile))
        leaves = [topo.add(_Host(sim, f"h{i}")) for i in range(5)]
        for leaf in leaves:
            topo.connect(leaf, hub)
        topo.compute_routes()
        leaves[0].ports[0].transmit(Frame("h0", "h3", None, 10))
        sim.run()
        assert len(leaves[3].arrivals) == 1


class TestValidation:
    def test_duplicate_name_rejected(self):
        sim = Simulator()
        topo = Topology(sim, NetworkProfile())
        topo.add(_Host(sim, "x"))
        with pytest.raises(NetworkError):
            topo.add(_Host(sim, "x"))

    def test_connect_requires_registration(self):
        sim = Simulator()
        topo = Topology(sim, NetworkProfile())
        a = _Host(sim, "a")
        b = topo.add(_Host(sim, "b"))
        with pytest.raises(NetworkError):
            topo.connect(a, b)

    @pytest.mark.parametrize("field", ["propagation_ns",
                                       "header_overhead_bytes",
                                       "queue_capacity_packets"])
    def test_bad_per_link_profile_rejected_at_connect(self, field):
        # A per-link override is validated when the link is built, not
        # left to fail on the first frame it carries.
        sim = Simulator()
        topo = Topology(sim, NetworkProfile())
        a = topo.add(_Host(sim, "a"))
        b = topo.add(_Host(sim, "b"))
        with pytest.raises(ConfigurationError, match=field):
            topo.connect(a, b, profile=replace(NetworkProfile(),
                                               **{field: -1}))
        assert topo.links == []

    def test_unknown_path_endpoint_rejected(self):
        sim = Simulator()
        topo = Topology(sim, NetworkProfile())
        topo.add(_Host(sim, "a"))
        with pytest.raises(RoutingError):
            topo.path("a", "ghost")

    def test_switch_without_route_raises(self):
        sim = Simulator()
        profile = NetworkProfile()
        topo = Topology(sim, profile)
        s = topo.add(Switch(sim, "s", profile))
        a = topo.add(_Host(sim, "a"))
        topo.connect(a, s)
        topo.compute_routes()
        a.ports[0].transmit(Frame("a", "nowhere", None, 10))
        with pytest.raises(NetworkError):
            sim.run()
