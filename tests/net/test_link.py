"""Unit tests for links: serialization, queueing, impairments."""

import pytest

from repro.config import NetworkProfile
from repro.net.device import Node, Port
from repro.net.link import Impairments, Link
from repro.net.packet import Frame
from repro.sim import Simulator


class _Sink(Node):
    """A node that records arrivals with timestamps."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.arrivals = []

    def handle_frame(self, frame: Frame, in_port: Port) -> None:
        self.arrivals.append((self.sim.now, frame))


def _pair(sim, profile=None, **impair):
    profile = profile or NetworkProfile()
    a, b = _Sink(sim, "a"), _Sink(sim, "b")
    link = Link(sim, profile, a.add_port(), b.add_port(),
                impairments_ab=Impairments(**impair) if impair else None)
    return a, b, link


class TestTiming:
    def test_delivery_time_is_serialization_plus_propagation(self):
        sim = Simulator()
        profile = NetworkProfile(bandwidth_bps=10e9, propagation_ns=100,
                                 header_overhead_bytes=46)
        a, b, _link = _pair(sim, profile)
        a.ports[0].transmit(Frame("a", "b", None, 100))
        sim.run()
        # (100+46)*8 bits / 10 Gbps = 117 ns (rounded up), +100 ns wire.
        assert b.arrivals[0][0] == 117 + 100

    def test_back_to_back_frames_serialize_sequentially(self):
        sim = Simulator()
        profile = NetworkProfile(bandwidth_bps=10e9, propagation_ns=0,
                                 header_overhead_bytes=0)
        a, b, _link = _pair(sim, profile)
        for _ in range(3):
            a.ports[0].transmit(Frame("a", "b", None, 1250))  # 1 us each
        sim.run()
        times = [t for t, _f in b.arrivals]
        assert times == [1000, 2000, 3000]

    def test_send_at_serialize_end_queues_behind_it(self):
        # B queues while A serializes.  C is sent at exactly A's
        # serialize end, by an event scheduled after A's `_serialized`:
        # that callback has already started B, so C queues behind it.
        sim = Simulator()
        a, b, _link = _pair(sim, _fast_profile())
        channel = a.ports[0].channel
        channel.send(Frame("a", "b", "A", 1250))  # busy until 1000
        sim.schedule(400, channel.send, Frame("a", "b", "B", 1250))
        sim.schedule(1000, channel.send, Frame("a", "b", "C", 1250))
        sim.run()
        assert [(t, f.payload) for t, f in b.arrivals] == [
            (1100, "A"), (2100, "B"), (3100, "C")]

    def test_duplex_is_independent(self):
        sim = Simulator()
        a, b, _link = _pair(sim)
        a.ports[0].transmit(Frame("a", "b", None, 10))
        b.ports[0].transmit(Frame("b", "a", None, 10))
        sim.run()
        assert len(a.arrivals) == 1
        assert len(b.arrivals) == 1


class TestQueueing:
    def test_drop_tail_when_queue_full(self):
        sim = Simulator()
        profile = NetworkProfile(queue_capacity_packets=2)
        a, b, link = _pair(sim, profile)
        for _ in range(10):
            a.ports[0].transmit(Frame("a", "b", None, 1000))
        sim.run()
        # 1 in flight + 2 queued survive the burst; later sends enqueue
        # as the transmitter drains, so some drops must be recorded.
        assert int(link.forward.dropped_full) > 0
        assert len(b.arrivals) + int(link.forward.dropped_full) == 10

    def test_zero_capacity_drops_even_into_an_idle_transmitter(self):
        # ``queue_capacity_packets=0`` is a valid profile: the channel
        # has room for no frame at all, so every send is a drop-tail
        # drop, the first one too, although the transmitter is idle.
        sim = Simulator()
        profile = NetworkProfile(queue_capacity_packets=0,
                                 header_overhead_bytes=46)
        a, b, link = _pair(sim, profile)
        for _ in range(3):
            a.ports[0].transmit(Frame("a", "b", None, 100))
        sim.run()
        assert b.arrivals == []
        assert sim.executed_events == 0
        summary = link.forward.summary()
        assert summary["dropped_full"] == 3
        assert summary["dropped_full_bytes"] == 3 * (100 + 46)
        assert summary["bytes"] == 0
        assert summary["queue_depth_highwater"] == 0

    def test_send_into_an_idle_channel_marks_depth_one(self):
        # The frame is queued and starts serializing in the same
        # instant: the gauge reads 0 with a high-water mark of 1.
        sim = Simulator()
        a, b, link = _pair(sim)
        a.ports[0].transmit(Frame("a", "b", None, 100))
        gauge = link.forward.queue_depth_highwater
        assert (gauge.value, gauge.highwater) == (0, 1)
        assert link.forward.queue_depth == 0
        sim.run()
        assert (gauge.value, gauge.highwater) == (0, 1)
        assert len(b.arrivals) == 1


class TestImpairments:
    def test_loss_drops_frames(self):
        sim = Simulator()
        a, b, link = _pair(sim, loss_probability=1.0)
        for _ in range(5):
            a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert b.arrivals == []
        assert int(link.forward.dropped_loss) == 5

    def test_duplication_delivers_twice(self):
        sim = Simulator()
        a, b, _link = _pair(sim, duplicate_probability=1.0)
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert len(b.arrivals) == 2

    def test_reordering_delays_marked_frames(self):
        sim = Simulator()
        profile = NetworkProfile(propagation_ns=100)
        a, b = _Sink(sim, "a"), _Sink(sim, "b")
        Link(sim, profile, a.add_port(), b.add_port(),
             impairments_ab=Impairments(reorder_probability=1.0,
                                        reorder_extra_ns=5_000))
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert b.arrivals[0][0] > 5_000

    def test_duplicate_copy_draws_its_own_loss(self):
        # loss=0.5 + duplicate=1.0: each copy draws independently, so
        # frames arriving exactly once (one copy lost) and exactly
        # twice (both survive) must both occur — combinations the old
        # shared-draw code made unreachable.
        sim = Simulator()
        a, b, link = _pair(sim, loss_probability=0.5,
                           duplicate_probability=1.0)
        n = 200
        for i in range(n):
            sim.schedule(i * 50_000, a.ports[0].transmit,
                         Frame("a", "b", i, 10))
        sim.run()
        delivered = len(b.arrivals)
        dropped = int(link.forward.dropped_loss)
        # Every one of the 2n copies met exactly one fate.
        assert delivered + dropped == 2 * n
        per_frame = {}
        for _t, frame in b.arrivals:
            per_frame[frame.payload] = per_frame.get(frame.payload, 0) + 1
        counts = set(per_frame.values())
        assert 1 in counts, "a lone surviving copy never happened"
        assert 2 in counts, "both copies surviving never happened"
        assert len(per_frame) < n, "a fully-lost frame never happened"

    def test_duplicate_copy_draws_its_own_reorder(self):
        # duplicate=1.0 + reorder=0.5: some frame must arrive with one
        # copy on time and the other delayed by exactly
        # reorder_extra_ns — impossible when the copy skipped the
        # reorder draw.
        sim = Simulator()
        profile = NetworkProfile(propagation_ns=100)
        a, b = _Sink(sim, "a"), _Sink(sim, "b")
        Link(sim, profile, a.add_port(), b.add_port(),
             impairments_ab=Impairments(duplicate_probability=1.0,
                                        reorder_probability=0.5,
                                        reorder_extra_ns=5_000))
        n = 100
        for i in range(n):
            sim.schedule(i * 50_000, a.ports[0].transmit,
                         Frame("a", "b", i, 10))
        sim.run()
        assert len(b.arrivals) == 2 * n
        gaps = {}
        for t, frame in b.arrivals:
            gaps.setdefault(frame.payload, []).append(t)
        split = [times for times in gaps.values()
                 if max(times) - min(times) == 5_000]
        together = [times for times in gaps.values()
                    if max(times) == min(times)]
        assert split, "copies never took different reorder fates"
        assert together, "copies never shared a reorder fate"

    def test_impaired_draw_sequence_is_pinned(self):
        # The corrected per-frame draw order is load-bearing for seeded
        # reproducibility: loss(original), duplicate, then per surviving
        # copy a reorder draw, plus the duplicate's own loss draw.  This
        # replays the channel's dedicated stream and predicts every
        # arrival/drop exactly.
        import random as _random

        seed = 11
        imp = dict(loss_probability=0.4, duplicate_probability=0.5,
                   reorder_probability=0.3)
        sim = Simulator(seed=seed)
        a, b, link = _pair(sim, **imp)
        n = 150
        for i in range(n):
            sim.schedule(i * 50_000, a.ports[0].transmit,
                         Frame("a", "b", i, 10))
        sim.run()

        rng = _random.Random(f"{seed}/channel:a->b")
        expected_delivered = 0
        expected_dropped = 0
        for _ in range(n):
            lost = rng.random() < imp["loss_probability"]
            duplicated = rng.random() < imp["duplicate_probability"]
            if lost:
                expected_dropped += 1
            else:
                rng.random()  # the original's reorder draw
                expected_delivered += 1
            if duplicated:
                if rng.random() < imp["loss_probability"]:
                    expected_dropped += 1
                else:
                    rng.random()  # the duplicate's reorder draw
                    expected_delivered += 1
        assert len(b.arrivals) == expected_delivered
        assert int(link.forward.dropped_loss) == expected_dropped

    def test_failed_node_blackholes(self):
        sim = Simulator()
        a, b, _link = _pair(sim)
        b.fail()
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert b.arrivals == []

    def test_disconnected_port_raises(self):
        sim = Simulator()
        node = _Sink(sim, "lonely")
        port = node.add_port()
        from repro.errors import NetworkError
        with pytest.raises(NetworkError):
            port.transmit(Frame("lonely", "x", None, 1))


def _fast_profile():
    """1000 ns serialization for a 1250 B frame, 100 ns propagation."""
    return NetworkProfile(bandwidth_bps=10e9, propagation_ns=100,
                          header_overhead_bytes=0)


    @pytest.mark.parametrize("field, value", [
        ("loss_probability", 1.5),
        ("loss_probability", -0.1),
        ("duplicate_probability", -0.1),
        ("duplicate_probability", 1.01),
        ("reorder_probability", 2.0),
        ("reorder_probability", float("nan")),
        ("reorder_extra_ns", -5),
    ])
    def test_out_of_range_input_rejected_at_construction(self, field, value):
        # A negative probability used to switch its impairment off
        # silently; a negative extra delay failed only at the first
        # reordered frame.
        with pytest.raises(ValueError, match=field):
            Impairments(**{field: value})


class TestFoldedFastPath:
    """The wire keeps no folded fast path: at both fold levels every
    frame takes ``send`` -> ``_serialized`` -> delivery, so the timing
    the fast path had to reproduce is now the only timing."""

    def test_fast_path_times_match_unfolded(self, monkeypatch):
        def burst(sim):
            a, b, _link = _pair(sim, _fast_profile())
            for _ in range(4):
                a.ports[0].transmit(Frame("a", "b", None, 1250))
            sim.schedule(2_500, a.ports[0].transmit,
                         Frame("a", "b", None, 1250))
            sim.run()
            return [t for t, _f in b.arrivals]

        folded = burst(Simulator())
        monkeypatch.setenv("PMNET_FOLD", "none")
        unfolded = burst(Simulator())
        assert folded == unfolded
        assert folded == [1100, 2100, 3100, 4100, 5100]

    def test_folded_sends_counted(self):
        # The counter stays for its readers and counts no send.
        sim = Simulator()
        a, b, link = _pair(sim, _fast_profile())
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert len(b.arrivals) == 1
        assert int(link.forward.folded_sends) == 0

    def test_impaired_channel_never_folds(self):
        sim = Simulator()
        a, b, link = _pair(sim, loss_probability=1.0)
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert int(link.forward.folded_sends) == 0
        assert b.arrivals == []

    def test_impairments_checked_per_send_not_cached(self):
        sim = Simulator()
        a, b, link = _pair(sim, _fast_profile())
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        # A loss window opened mid-run applies to the very next frame.
        link.forward.impairments.loss_probability = 1.0
        a.ports[0].transmit(Frame("a", "b", None, 10))
        sim.run()
        assert int(link.forward.dropped_loss) == 1
        assert len(b.arrivals) == 1


class TestReservations:
    """``Channel.send_in`` keeps its signature and never reserves: it
    returns ``False`` and schedules nothing, and the caller sends the
    frame itself."""

    def test_reservation_refused_while_transmitter_busy(self):
        sim = Simulator()
        a, b, link = _pair(sim, _fast_profile())
        channel = a.ports[0].channel
        assert channel.send_in(500, Frame("a", "b", None, 1250)) is False
        channel.send(Frame("a", "b", None, 1250))  # busy until 1000
        assert channel.send_in(200, Frame("a", "b", None, 1250)) is False
        sim.run()
        assert [t for t, _f in b.arrivals] == [1100]
        assert int(link.forward.bytes_sent) == 1250

    def test_stacked_reservations_serialize_exactly(self):
        # Both requests are refused; the callers' own sends at 500 and
        # 1,700 serialize back to back at the unfolded times.
        sim = Simulator()
        a, b, _link = _pair(sim, _fast_profile())
        channel = a.ports[0].channel
        for lead in (500, 1_700):
            frame = Frame("a", "b", None, 1250)
            assert channel.send_in(lead, frame) is False
            sim.schedule(lead, channel.send, frame)
        sim.run()
        assert [t for t, _f in b.arrivals] == [1600, 2800]

    def test_zero_propagation_never_folds(self):
        sim = Simulator()
        profile = NetworkProfile(bandwidth_bps=10e9, propagation_ns=0,
                                 header_overhead_bytes=0)
        a, b, link = _pair(sim, profile)
        assert a.ports[0].channel.send_in(500, Frame("a", "b", None, 1250)) \
            is False
        a.ports[0].transmit(Frame("a", "b", None, 1250))
        sim.run()
        assert int(link.forward.folded_sends) == 0
        assert [t for t, _f in b.arrivals] == [1000]


class TestExactAdmission:
    """Same-nanosecond scenarios that once decided whether ``send_in``
    could reserve.  It refuses every one, and each caller follows the
    contract: on refusal it schedules a plain send at the reservation's
    start.  The pinned timelines are the unfolded ones at both levels.
    """

    @staticmethod
    def _reserve_or_send(sim, channel, lead, frame):
        if not channel.send_in(lead, frame):
            sim.schedule(lead, channel.send, frame)

    @staticmethod
    def _two_into_one(sim):
        """Sources ``a`` and ``c`` each wired to sink ``b``."""
        profile = _fast_profile()
        a, b, c = _Sink(sim, "a"), _Sink(sim, "b"), _Sink(sim, "c")
        Link(sim, profile, a.add_port(), b.add_port())
        Link(sim, profile, c.add_port(), b.add_port())
        return a.ports[0].channel, c.ports[0].channel, b

    def test_start_at_unstarted_serialize_end_is_refused(self,
                                                         monkeypatch):
        # X is sent at 500 and serializes over [500, 1500).  R is sent at
        # exactly 1500 by an event whose seq was taken at t=0, before
        # X's `_serialized` (seq taken at 500): R finds the transmitter
        # busy, queues, and takes its serialize-end seq inside
        # `_serialized`.  C, sent at 1500 on a second channel, lands on
        # the sink in the same nanosecond as R, so the two seqs decide
        # the arrival order.
        def scenario(sim):
            ab, cb, b = self._two_into_one(sim)
            refused = []
            for payload, lead in (("X", 500), ("R", 1_500)):
                frame = Frame("a", "b", payload, 1250)
                if not ab.send_in(lead, frame):
                    refused.append(payload)
                    sim.schedule(lead, ab.send, frame)
            sim.schedule(1_500, cb.send, Frame("c", "b", "C", 1250))
            sim.run()
            return refused, [(t, f.payload) for t, f in b.arrivals]

        refused, folded = scenario(Simulator())
        assert refused == ["X", "R"]
        monkeypatch.setenv("PMNET_FOLD", "none")
        _refused, unfolded = scenario(Simulator())
        assert folded == unfolded
        assert folded == [(1600, "X"), (2600, "C"), (2600, "R")]

    def test_no_reservation_before_a_declined_start(self, monkeypatch):
        # Y (sent at 200) takes the idle transmitter ahead of X (500);
        # Z, asked for at t=100, is refused too and sent at 3,100.
        def scenario(sim):
            a, b, _link = _pair(sim, _fast_profile())
            channel = a.ports[0].channel
            self._reserve_or_send(sim, channel, 500,
                                  Frame("a", "b", "X", 1250))
            assert channel.send_in(200, Frame("a", "b", "Y", 1250)) is False
            sim.schedule(200, channel.send, Frame("a", "b", "Y", 1250))
            z_reserved = []

            def attempt_z():
                frame = Frame("a", "b", "Z", 1250)
                z_reserved.append(channel.send_in(3_000, frame))
                if not z_reserved[-1]:
                    sim.schedule(3_000, channel.send, frame)

            sim.schedule(100, attempt_z)
            sim.run()
            return z_reserved, [(t, f.payload) for t, f in b.arrivals]

        z_reserved, folded = scenario(Simulator())
        assert z_reserved == [False]
        monkeypatch.setenv("PMNET_FOLD", "none")
        _z, unfolded = scenario(Simulator())
        assert folded == unfolded
        assert folded == [(1300, "Y"), (2300, "X"), (4200, "Z")]

    def test_no_reservation_before_a_revoked_start(self, monkeypatch):
        # A plain send at t=100 goes ahead of X (sent at 500), and Z,
        # asked for at t=300, is refused and sent at 2,300.
        def scenario(sim):
            a, b, _link = _pair(sim, _fast_profile())
            channel = a.ports[0].channel
            self._reserve_or_send(sim, channel, 500,
                                  Frame("a", "b", "X", 1250))
            sim.schedule(100, channel.send, Frame("a", "b", "P", 1250))
            z_reserved = []

            def attempt_z():
                frame = Frame("a", "b", "Z", 1250)
                z_reserved.append(channel.send_in(2_000, frame))
                if not z_reserved[-1]:
                    sim.schedule(2_000, channel.send, frame)

            sim.schedule(300, attempt_z)
            sim.run()
            return z_reserved, [(t, f.payload) for t, f in b.arrivals]

        z_reserved, folded = scenario(Simulator())
        assert z_reserved == [False]
        monkeypatch.setenv("PMNET_FOLD", "none")
        _z, unfolded = scenario(Simulator())
        assert folded == unfolded
        assert folded == [(1200, "P"), (2200, "X"), (3400, "Z")]


class TestChannelSummary:
    def test_queue_depth_highwater_in_summary(self):
        sim = Simulator()
        profile = NetworkProfile(queue_capacity_packets=8)
        a, _b, link = _pair(sim, profile)
        for _ in range(5):
            a.ports[0].transmit(Frame("a", "b", None, 1000))
        summary = link.forward.summary()
        # One serializing, four waiting behind it.
        assert summary["queue_depth"] == 4
        sim.run()
        drained = link.forward.summary()
        assert drained["queue_depth"] == 0
        # The gauge's mark keeps the worst pressure seen.
        assert drained["queue_depth_highwater"] == 4

    def test_dropped_full_bytes_counted(self):
        sim = Simulator()
        profile = NetworkProfile(queue_capacity_packets=1,
                                 header_overhead_bytes=46)
        a, _b, link = _pair(sim, profile)
        for _ in range(4):
            a.ports[0].transmit(Frame("a", "b", None, 100))
        summary = link.forward.summary()
        assert summary["dropped_full"] == 2
        assert summary["dropped_full_bytes"] == 2 * (100 + 46)
