"""Additional substrate tests: switch behaviour and channel counters."""

from repro.config import NetworkProfile, SystemConfig
from repro.core.pmnet_device import PMNetDevice
from repro.net.device import ForwardingTable, Node, Port
from repro.net.packet import Frame
from repro.net.switch import Switch
from repro.net.topology import Topology
from repro.sim import Simulator

import pytest

from repro.errors import NetworkError, RoutingError


class _Host(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.arrivals = []

    def handle_frame(self, frame, in_port):
        self.arrivals.append((self.sim.now, frame))


def _wired(sim):
    profile = NetworkProfile()
    topo = Topology(sim, profile)
    a = topo.add(_Host(sim, "a"))
    b = topo.add(_Host(sim, "b"))
    sw = topo.add(Switch(sim, "sw", profile))
    link_a = topo.connect(a, sw)
    link_b = topo.connect(sw, b)
    topo.compute_routes()
    return topo, a, b, sw, link_a, link_b


class TestSwitch:
    def test_forwarding_delay_charged(self):
        sim = Simulator()
        _topo, a, b, sw, _la, _lb = _wired(sim)
        a.ports[0].transmit(Frame("a", "b", None, 100))
        sim.run()
        arrival, _frame = b.arrivals[0]
        # two link traversals (117+100 each) + 300 ns switch.
        assert arrival == 2 * (117 + 100) + 300

    def test_forwarded_counter(self):
        sim = Simulator()
        _topo, a, b, sw, _la, _lb = _wired(sim)
        for _ in range(5):
            a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert int(sw.forwarded) == 5

    def test_failed_switch_drops_everything(self):
        sim = Simulator()
        _topo, a, b, sw, _la, _lb = _wired(sim)
        sw.fail()
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert b.arrivals == []

    def test_crash_before_ingress_drops_frame(self):
        # The frame reaches the switch at 1137 ns (1037 serialize + 100
        # wire).  A crash 1 ns earlier finds it still on the wire: the
        # dead switch drops it on arrival.
        sim = Simulator()
        _topo, a, b, sw, _la, _lb = _wired(sim)
        a.ports[0].transmit(Frame("a", "b", None, 1250))
        sim.schedule_at(1136, sw.fail)
        sim.run()
        assert b.arrivals == []
        assert int(sw.forwarded) == 0

    def test_crash_inside_forward_window_still_forwards(self):
        # Liveness is checked on arrival: the frame the live switch
        # received at 1137 ns was committed to the egress channel then,
        # so a crash at 1300 ns, inside the forwarding window that runs
        # to 1437 ns, does not stop it.
        sim = Simulator()
        _topo, a, b, sw, _la, _lb = _wired(sim)
        a.ports[0].transmit(Frame("a", "b", None, 1250))
        sim.schedule_at(1300, sw.fail)
        sim.run()
        assert [time for time, _frame in b.arrivals] == [
            1137 + 300 + 1037 + 100]
        assert int(sw.forwarded) == 1

    def test_forwarded_counts_at_commit(self):
        # Counted on arrival, when the frame is committed one
        # forwarding delay ahead, not when the window ends.
        sim = Simulator()
        _topo, a, b, sw, _la, link_b = _wired(sim)
        a.ports[0].transmit(Frame("a", "b", None, 1250))
        sim.run(until=1_200)
        assert int(sw.forwarded) == 1
        assert int(link_b.forward.bytes_sent) == 1250 + 46
        assert b.arrivals == []
        sim.run()
        assert len(b.arrivals) == 1

    def test_unconnected_route_raises(self):
        sim = Simulator()
        _topo, a, _b, sw, _la, _lb = _wired(sim)
        sw.table.set_route("b", sw.add_port())
        a.ports[0].transmit(Frame("a", "b", None, 10))
        with pytest.raises(NetworkError, match="not connected"):
            sim.run()
        assert int(sw.forwarded) == 0

    def test_committed_ahead_frames_fill_the_egress_queue(self):
        # a and c each send three back-to-back frames at t=0 into one
        # switch whose egress to b holds one waiting frame.  Pairs
        # arrive at 1137, 2174 and 3211 ns and are committed 300 ns
        # ahead.  At 2174 a's second frame is committed to start at
        # 3511, after c's first; so c's second, committed right after
        # it, finds the queue full and is dropped at once, before the
        # forwarding window ends.  The same happens at 3211.
        sim = Simulator()
        profile = NetworkProfile()
        topo = Topology(sim, profile)
        a = topo.add(_Host(sim, "a"))
        c = topo.add(_Host(sim, "c"))
        b = topo.add(_Host(sim, "b"))
        sw = topo.add(Switch(sim, "sw", profile))
        topo.connect(a, sw)
        topo.connect(c, sw)
        egress = topo.connect(sw, b, profile=NetworkProfile(
            queue_capacity_packets=1)).forward
        topo.compute_routes()
        for index in range(3):
            a.ports[0].transmit(Frame("a", "b", f"a{index}", 1250))
            c.ports[0].transmit(Frame("c", "b", f"c{index}", 1250))
        sim.run(until=2_174)
        assert int(egress.dropped_full) == 1
        sim.run()
        assert [(t, f.payload) for t, f in b.arrivals] == [
            (2574, "a0"), (3611, "c0"), (4648, "a1"), (5685, "a2")]
        assert int(egress.dropped_full) == 2
        assert int(sw.forwarded) == 6

    def test_recovered_switch_forwards_again(self):
        sim = Simulator()
        _topo, a, b, sw, _la, _lb = _wired(sim)
        sw.fail()
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        sw.recover()
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert len(b.arrivals) == 1


    def test_handle_frame_forwards_like_a_channel_delivery(self):
        # ``receive`` (a channel delivery) and a direct ``handle_frame``
        # share one forwarding path: the same commit, the same arrival
        # and the same count.  Only the hop count differs — a direct
        # call is not a wire hop.
        def forward(entry):
            sim = Simulator()
            _topo, _a, b, sw, link_a, link_b = _wired(sim)
            frame = Frame("a", "b", None, 100)
            sim.schedule_at(1_000, getattr(sw, entry), frame,
                            link_a.port_b)
            sim.run()
            return (b.arrivals[0][0], int(sw.forwarded),
                    sim.executed_events, frame.hops)

        delivered = forward("receive")
        direct = forward("handle_frame")
        assert direct[:3] == delivered[:3]
        assert (delivered[3], direct[3]) == (2, 1)

    def test_failed_switch_drops_a_direct_handle_frame(self):
        sim = Simulator()
        _topo, _a, b, sw, link_a, _lb = _wired(sim)
        sw.fail()
        sw.handle_frame(Frame("a", "b", None, 10), link_a.port_b)
        sim.run()
        assert b.arrivals == []
        assert int(sw.forwarded) == 0


class TestEgressBinding:
    """``ForwardingTable`` binds each destination's channel on first use;
    a route change must unbind it on every forwarding node."""

    @staticmethod
    def _fabric():
        # a -- sw -- dev -- b, with c reachable from both sw and dev.
        sim = Simulator()
        config = SystemConfig()
        topo = Topology(sim, config.network)
        a = topo.add(_Host(sim, "a"))
        b = topo.add(_Host(sim, "b"))
        c = topo.add(_Host(sim, "c"))
        sw = topo.add(Switch(sim, "sw", config.network))
        dev = topo.add(PMNetDevice(sim, "dev", config))
        topo.connect(a, sw)
        topo.connect(sw, dev)
        dev_b = topo.connect(dev, b)
        sw_c = topo.connect(sw, c)
        dev_c = topo.connect(dev, c)
        topo.compute_routes()
        return sim, a, b, c, sw, dev, dev_b, sw_c, dev_c

    @pytest.mark.parametrize("repoint", ["sw", "dev"])
    def test_set_route_repoints_a_bound_destination(self, repoint):
        sim, a, b, c, sw, dev, dev_b, sw_c, dev_c = self._fabric()
        a.ports[0].transmit(Frame("a", "b", None, 100))
        sim.run()
        assert len(b.arrivals) == 1
        assert sw.table.bound["b"] is sw.table.lookup("b").channel
        assert dev.table.bound["b"] is dev_b.forward
        node, port = ((sw, sw_c.port_a) if repoint == "sw"
                      else (dev, dev_c.port_a))
        node.table.set_route("b", port)
        assert "b" not in node.table.bound
        a.ports[0].transmit(Frame("a", "b", None, 100))
        sim.run()
        # The second frame leaves by the new port and reaches c.
        assert len(b.arrivals) == 1
        assert [frame.dst for _time, frame in c.arrivals] == ["b"]
        assert node.table.bound["b"] is port.channel


class TestChannelCounters:
    def test_bytes_and_delivered(self):
        sim = Simulator()
        _topo, a, b, _sw, link_a, _lb = _wired(sim)
        a.ports[0].transmit(Frame("a", "b", None, 100))
        sim.run()
        assert int(link_a.forward.delivered) == 1
        assert int(link_a.forward.bytes_sent) == 146  # 100 + 46 framing

    def test_queue_depth_visible_mid_burst(self):
        sim = Simulator()
        _topo, a, _b, _sw, link_a, _lb = _wired(sim)
        for _ in range(4):
            a.ports[0].transmit(Frame("a", "b", None, 1000))
        # One serializing, three queued.
        assert link_a.forward.queue_depth == 3
        gauge = link_a.forward.queue_depth_highwater
        assert (gauge.value, gauge.highwater) == (3, 3)


class TestForwardingTable:
    def test_default_route_fallback(self):
        sim = Simulator()
        table = ForwardingTable()
        node = _Host(sim, "x")
        port = Port(node, 0)
        table.default = port
        assert table.lookup("anywhere") is port

    def test_no_route_no_default_raises(self):
        table = ForwardingTable()
        with pytest.raises(NetworkError):
            table.lookup("nowhere")

    def test_missing_route_raises_routing_error(self):
        # Both the lookup and the bound egress path, on first use.
        table = ForwardingTable()
        with pytest.raises(RoutingError, match="nowhere"):
            table.lookup("nowhere")
        with pytest.raises(RoutingError, match="nowhere"):
            table.egress("nowhere")
        assert table.bound == {}

    def test_switch_without_a_route_raises_routing_error(self):
        sim = Simulator()
        _topo, a, _b, _sw, _la, _lb = _wired(sim)
        a.ports[0].transmit(Frame("a", "nowhere", None, 10))
        with pytest.raises(RoutingError, match="nowhere"):
            sim.run()

    def test_new_default_unbinds(self):
        sim = Simulator()
        _topo, _a, _b, sw, _la, link_b = _wired(sim)
        table = sw.table
        assert table.egress("b") is link_b.forward
        assert "b" in table.bound
        table.default = table.lookup("a")
        assert table.bound == {}

    def test_destinations_listing(self):
        sim = Simulator()
        table = ForwardingTable()
        node = _Host(sim, "x")
        table.set_route("b", Port(node, 0))
        table.set_route("a", Port(node, 1))
        assert table.destinations() == ["a", "b"]
        assert len(table) == 2
