"""Pins of the request-path scenarios that once compared fold levels.

Every pipeline stage is its own event and every wire hop one heap
entry, so there is one timeline.  The scenarios that once compared
``PMNET_FOLD=none`` with ``whole`` stay, each pinned to its observables:
arrival logs, completion timelines, recovered stores, trace digests and
the end-of-run clock.

* a switch with bursty contending senders, and two frames that reach
  it in the same nanosecond, which leave in the order they were
  committed to their uplinks;
* a lossy channel in the same topology;
* mid-run crashes — a switch failing before and inside its forwarding
  window, a PMNet device power-cut at swept instants across the
  request's pipeline windows (the Fig 12 scenarios), a chain member
  power-cut at each event of its CHAIN_UPDATE handling, a client host
  dying with a send in flight;
* a loaded cross-rack chain fabric.

The one optimisation left on the request path is the client's
cancellation of completed-request timers.  A property over random
deployments holds it to the same bar: with the timers left armed
(:func:`tests.conftest.leave_completed_timers_armed`), every latency,
completion route, store and trace stays the same, and so does the
end-of-run clock.  The slow tests do the same for every registry
experiment's report.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkProfile, SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.driver import run_closed_loop
from repro.failure.injector import FailureInjector
from repro.failure.scenarios import client_failure_mid_run
from repro.net.device import Node
from repro.net.link import Impairments
from repro.net.packet import Frame
from repro.net.switch import Switch
from repro.net.topology import Topology
from repro.sim import Simulator
from repro.sim.clock import microseconds
from repro.sim.trace import Tracer
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.loadgen import LoadGenConfig, run_loadgen
from repro.workloads.pmdk.hashmap import PMHashmap
from repro.workloads.ycsb import YCSBConfig, make_op_maker

from tests.conftest import fingerprint, leave_completed_timers_armed


def _set_impairments(channel, impairments):
    """Swap a channel's impairments mid-run, as the chaos engine does."""
    channel.impairments = impairments


class _Host(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.arrivals = []

    def handle_frame(self, frame, in_port):
        self.arrivals.append((self.sim.now, frame.src, frame.payload))


def _run_star(num_hosts, sends, loss_seed=None, profile=None,
              fail_switch_at=None):
    """Build hosts around one switch, replay ``sends``, return
    ``(arrivals per host, the star, end-of-run clock)``.

    ``sends`` is a list of ``(time_ns, src_index, dst_index, size)``.
    When ``loss_seed`` is set, the uplink of host 0 gets probabilistic
    loss — an impaired channel mixed into the same topology.  When
    ``fail_switch_at`` is set, the switch power-cuts at that instant and
    recovers 30 µs later, so frames in flight around the crash meet its
    arrival-time ``failed`` check.
    """
    sim = Simulator(seed=loss_seed or 0)
    profile = profile if profile is not None else NetworkProfile()
    topo = Topology(sim, profile)
    hosts = [topo.add(_Host(sim, f"h{i}")) for i in range(num_hosts)]
    switch = topo.add(Switch(sim, "sw", profile))
    for index, host in enumerate(hosts):
        impair = None
        if loss_seed is not None and index == 0:
            impair = Impairments(loss_probability=0.5)
        topo.connect(host, switch, impairments_ab=impair)
    topo.compute_routes()
    for marker, (time, src, dst, size) in enumerate(sends):
        frame = Frame(f"h{src}", f"h{dst % num_hosts}", marker, size)
        sim.schedule(time, hosts[src].ports[0].transmit, frame)
    if fail_switch_at is not None:
        sim.schedule_at(fail_switch_at, switch.fail)
        sim.schedule_at(fail_switch_at + 30_000, switch.recover)
    sim.run()
    return [host.arrivals for host in hosts], hosts, sim.now


_COLLISION_PROFILE = NetworkProfile(header_overhead_bytes=0)


class TestSameInstantTies:
    def test_downlink_tie_follows_uplink_commit_order(self):
        # h1's second frame is sent at exactly the nanosecond its first
        # frame finishes serializing, so it starts at once; h0's frame
        # is sent in the same nanosecond, after it.  Both reach the
        # switch at 6400 ns.  A delivery's seq is taken at commit, so
        # h1's frame, committed first, arrives first and wins the
        # downlink.
        sends = [(4300, 1, 0, 1250), (5300, 1, 0, 1250), (5300, 0, 0, 1250)]
        arrivals, _hosts, final_now = _run_star(
            2, sends, profile=_COLLISION_PROFILE)
        assert arrivals[0] == [(6800, "h1", 0), (7800, "h1", 1),
                               (8800, "h0", 2)]
        assert final_now == 8800


class TestImpairedNeverFolds:
    def test_lossy_channel_takes_unfolded_path(self):
        sends = [(i * 5_000, 0, 1, 100) for i in range(10)]
        arrivals, hosts, final_now = _run_star(2, sends, loss_seed=7)
        channel = hosts[0].ports[0].channel
        assert int(channel.dropped_loss) == 5
        assert [marker for _t, _src, marker in arrivals[1]] == \
            [1, 4, 5, 6, 9]
        assert (fingerprint(arrivals), final_now) == ("a0696935aea10991",
                                                      45_734)


def _device_crash_run(crash_offset_ns):
    """One client, three updates, PMNet device power-cut mid-request.

    ``crash_offset_ns`` is relative to the client stack's send cost, so
    offsets sweep the crash instant across the first request's life:
    still in the client stack, on the wire, inside the device's
    ingress/PM/egress/ACK windows, and after the ACK departs.  Returns
    every observable a change to the request path could disturb, the
    end-of-run clock last.
    """
    cfg = SystemConfig().with_clients(1)
    handler = StructureHandler(PMHashmap())
    deployment = build(DeploymentSpec(placement="switch"), cfg,
                       handler=handler)
    sim = deployment.sim
    injector = FailureInjector(sim)
    device = deployment.devices[0]
    client = deployment.clients[0]
    crash_at = cfg.client_stack.send_ns + crash_offset_ns
    record = injector.crash_device_at(device, crash_at)
    injector.recover_device_at(device, crash_at + microseconds(400), record)
    timeline = []

    def client_proc():
        for i in range(3):
            completion = yield client.send_update(
                Operation(OpKind.SET, key=f"k{i}", value=f"v{i}"))
            timeline.append((sim.now, i, completion.result.ok,
                             completion.via))
            yield cfg.client.think_time_ns

    deployment.open_all_sessions()
    process = sim.spawn(client_proc(), "client")
    sim.run()
    assert not process.alive, "client never finished"
    return (tuple(timeline),
            tuple(sorted(handler.structure.items())),
            int(client.retransmissions),
            int(device.acks_sent),
            int(device.forwarded_plain),
            sim.now)


#: 2 racks x 2 devices, chain of 3: every chain crosses the spine and
#: has a head, a middle and a tail.
CHAIN_FABRIC = DeploymentSpec(racks=2, devices_per_rack=2,
                              servers_per_rack=1, chain_length=3,
                              clients_per_rack=1, placement="switch")


#: The member callbacks that handle a CHAIN_UPDATE, one event each, and
#: how each finds the packet in its arguments: the wire arrival, the
#: ingress end, the log write, the persist completion and the forward
#: to the next member.
_CHAIN_STAGES = {
    "handle_frame": lambda frame, _port: frame.payload,
    "_after_ingress": lambda frame: frame.payload,
    "_log_chain_update": lambda _frame, packet: packet,
    "_on_chain_persisted": lambda entry: entry.packet,
    "_transmit_packet": lambda packet, _dst: packet,
}


def _chain_event_offsets(member):
    """``(offset, stage)`` of every event of the member's handling of the
    run's first CHAIN_UPDATE, offsets from its wire arrival (a probe run
    without a crash)."""
    return _chain_crash_run(member, None)


def _chain_crash_run(member, crash_offset_ns):
    """Chain updates with one member power-cut mid-pipeline.

    The crash lands ``crash_offset_ns`` after the instant the member
    receives the first CHAIN_UPDATE of the run (found by a probe run),
    so offsets sweep the events of its handling.  Returns every
    observable a change to the request path could disturb, the
    end-of-run clock last; with ``crash_offset_ns=None``, the probe's
    :func:`_chain_event_offsets` instead.
    """
    from repro.protocol.packet import reset_request_ids
    from repro.protocol.types import PacketType

    def run(crash_at):
        reset_request_ids()
        config = SystemConfig(seed=3)
        handlers = []

        def handler_factory():
            handlers.append(StructureHandler(PMHashmap()))
            return handlers[-1]

        deployment = build(CHAIN_FABRIC, config,
                           handler_factory=handler_factory)
        sim = deployment.sim
        name = deployment.chains[deployment.server.host.name][member]
        victim = next(device for device in deployment.devices
                      if device.name == name)
        stages = []
        if crash_at is None:
            first = []

            def probe(stage, packet_of, callback):
                def recorded(*args):
                    packet = packet_of(*args)
                    if (getattr(packet, "packet_type", None)
                            is PacketType.CHAIN_UPDATE):
                        if not first:
                            first.append(packet.request_id)
                        if packet.request_id == first[0]:
                            stages.append((sim.now, stage))
                    callback(*args)
                return recorded

            for stage, packet_of in _CHAIN_STAGES.items():
                setattr(victim, stage, probe(stage, packet_of,
                                             getattr(victim, stage)))
        else:
            injector = FailureInjector(sim)
            record = injector.crash_device_at(victim, crash_at)
            injector.recover_device_at(
                victim, crash_at + microseconds(400), record)
        timeline = []

        def client_proc(index, client):
            for i in range(4):
                completion = yield client.send_update(
                    Operation(OpKind.SET, key=(index, i), value=i))
                timeline.append((sim.now, index, i, completion.result.ok,
                                 completion.via))
                yield config.client.think_time_ns

        deployment.open_all_sessions()
        processes = [sim.spawn(client_proc(i, client), f"c{i}")
                     for i, client in enumerate(deployment.clients)]
        sim.run()
        assert all(not process.alive for process in processes)
        state = sorted((key, value) for handler in handlers
                       for key, value in handler.structure.items())
        return stages, (tuple(timeline), tuple(state),
                        int(victim.acks_sent), sim.now)

    stages, _ = run(None)
    assert stages, f"chain member {member} never saw a CHAIN_UPDATE"
    arrival = stages[0][0]
    if crash_offset_ns is None:
        return [(time - arrival, stage) for time, stage in stages]
    return run(arrival + crash_offset_ns)[1]


class TestCrashIdentity:
    """Nodes that die mid-request: every observable is pinned as
    ``(fingerprint, end-of-run clock)``."""

    SWITCH_SENDS = [(t, 0, 1, 1250) for t in range(0, 15_000, 700)]

    SWITCH_PINS = {
        500: ("a683096011db3975", 30_500),
        1137: ("a683096011db3975", 31_137),
        1300: ("9074a6eb0ea93913", 31_300),
        1437: ("9074a6eb0ea93913", 31_437),
        2100: ("9074a6eb0ea93913", 32_100),
        12_345: ("a28435a729a9ea28", 42_345),
    }

    @pytest.mark.parametrize("crash_at", [
        500,     # first frame still serializing on the uplink
        1137,    # the switch's arrival instant: dead on arrival
        1300,    # inside the forwarding window: the frame still leaves
        1437,    # the end of the forwarding window
        2100,    # downlink serialization underway
        12_345,  # steady-state mid-burst
    ])
    def test_switch_crash_timing_sweep(self, crash_at):
        arrivals, _hosts, final_now = _run_star(
            2, self.SWITCH_SENDS, fail_switch_at=crash_at)
        assert (fingerprint(arrivals), final_now) == \
            self.SWITCH_PINS[crash_at]

    DEVICE_PINS = {
        -500: ("3fcc400440232fe6", 2_509_776),
        800: ("3fcc400440232fe6", 2_509_776),
        1200: ("3fcc400440232fe6", 2_509_776),
        1600: ("6d4627c5fd8b7e11", 2_112_079),
        2400: ("73b1554c9fc0a0e1", 3_010_875),
        15_000: ("73b1554c9fc0a0e1", 3_010_875),
    }

    @pytest.mark.parametrize("crash_offset_ns", [
        -500,    # request still inside the client stack's send window
        800,     # on the wire / merge switch
        1_200,   # the Fig 12 case-2b instant: device ingress
        1_600,   # PM write window
        2_400,   # egress / ACK generation
        15_000,  # long after the ACK: crash between requests
    ])
    def test_device_crash_timing_sweep(self, crash_offset_ns):
        observed = _device_crash_run(crash_offset_ns)
        assert (fingerprint(observed), observed[-1]) == \
            self.DEVICE_PINS[crash_offset_ns]

    #: Every event of a member's CHAIN_UPDATE handling, as an offset
    #: from its wire arrival.  A crash at an event's instant runs before
    #: it (the crash was scheduled first), so the event meets a dead
    #: member.
    CHAIN_EVENTS = [(0, "handle_frame"), (250, "_after_ingress"),
                    (400, "_log_chain_update"),
                    (717, "_on_chain_persisted"),
                    (1300, "_transmit_packet")]

    CHAIN_PINS = {
        (0, 0): ("45aa2eda6bda8191", 2_572_559),
        (0, 100): ("45aa2eda6bda8191", 2_572_559),
        (0, 250): ("45aa2eda6bda8191", 2_572_559),
        (0, 330): ("45aa2eda6bda8191", 2_572_559),
        (0, 400): ("45aa2eda6bda8191", 2_572_559),
        (0, 717): ("45aa2eda6bda8191", 2_572_559),
        (0, 1300): ("120f4ceca3891187", 2_572_242),
        (0, 1301): ("1ab247346871369e", 3_015_740),
        (1, 0): ("1ea348c3ef99615b", 2_572_242),
        (1, 100): ("1ea348c3ef99615b", 2_572_242),
        (1, 250): ("1ea348c3ef99615b", 2_572_242),
        (1, 330): ("1ea348c3ef99615b", 2_572_242),
        (1, 400): ("1ea348c3ef99615b", 2_572_242),
        (1, 717): ("1ea348c3ef99615b", 2_572_242),
        (1, 1300): ("c7ddc2ad8fc6ce86", 2_571_925),
        (1, 1301): ("4f44d1c49d0ce422", 3_015_740),
    }

    @pytest.mark.parametrize("member", [0, 1])
    @pytest.mark.parametrize("crash_offset_ns", [
        0,       # the wire arrival
        100,     # inside ingress
        250,     # the ingress end
        330,     # inside the PM stage
        400,     # the log write
        717,     # the persist completion
        1300,    # the forward to the next member
        1301,    # just after the forward
    ])
    def test_chain_member_crash_timing_sweep(self, member, crash_offset_ns):
        observed = _chain_crash_run(member, crash_offset_ns)
        assert (fingerprint(observed), observed[-1]) == \
            self.CHAIN_PINS[member, crash_offset_ns]

    @pytest.mark.parametrize("member", [0, 1])
    def test_chain_sweep_has_an_offset_at_every_event(self, member):
        assert _chain_event_offsets(member) == self.CHAIN_EVENTS
        swept = {offset for offset, _stage in self.CHAIN_EVENTS}
        assert swept <= {offset for pinned_member, offset in self.CHAIN_PINS
                         if pinned_member == member}

    @pytest.mark.parametrize("member", [0, 1])
    def test_chain_crash_outcomes_split_at_persist_and_forward(self,
                                                               member):
        # A crash up to the persist completion loses the copy; one at
        # the forward keeps a durable copy that never left; one after
        # the forward loses nothing in flight.  Three outcomes.
        offsets = [offset for offset, _stage in self.CHAIN_EVENTS] + [1301]
        outcomes = [self.CHAIN_PINS[member, offset] for offset in offsets]
        assert len(set(outcomes)) == 3
        assert len(set(outcomes[:4])) == 1

    def test_client_crash_scenario_identical(self):
        outcome = client_failure_mid_run()
        assert outcome.durable
        assert fingerprint((sorted(outcome.acknowledged_updates.items()),
                            sorted(outcome.server_state.items()),
                            outcome.client_completions,
                            outcome.retransmissions)) == "3864b31e31882f6a"


def _whole_request_run(clients, replication, cache, update_ratio, seed,
                       impair_window=None, crash_at=None):
    """One full client->switch->PMNet->server run.

    Returns every observable the client's timer cancellation could
    plausibly disturb: the per-request latency samples (byte-identity
    surface), the completion routing, the final store contents, a
    digest of the full trace, and the drained-queue end time.
    """
    from repro.protocol.packet import reset_request_ids

    # Request ids are process-global; reset so the traces of the runs
    # being compared are identical line for line, not just in shape.
    reset_request_ids()
    cfg = SystemConfig(seed=seed).with_clients(clients)
    tracer = Tracer(enabled=True)
    handler = StructureHandler(PMHashmap())
    deployment = build(DeploymentSpec(placement="switch",
                                      chain_length=replication,
                                      enable_cache=cache), cfg,
                       handler=handler, tracer=tracer)
    sim = deployment.sim
    if impair_window is not None:
        start, duration = impair_window
        channel = deployment.clients[0].host.ports[0].channel
        sim.schedule_at(start, _set_impairments, channel,
                        Impairments(loss_probability=0.3))
        sim.schedule_at(start + duration, _set_impairments, channel,
                        Impairments())
    if crash_at is not None:
        injector = FailureInjector(sim)
        device = deployment.devices[0]
        record = injector.crash_device_at(device, crash_at)
        injector.recover_device_at(device, crash_at + microseconds(400),
                                   record)
    op_maker = make_op_maker(YCSBConfig(update_ratio=update_ratio,
                                        population=32))
    stats = run_closed_loop(deployment, op_maker, requests_per_client=6)
    digest = hashlib.sha256(
        "\n".join(str(record) for record in tracer.records)
        .encode("utf-8")).hexdigest()
    return (tuple(stats.all_latencies.samples),
            dict(sorted(stats.completions_by_via.items())),
            stats.errors, stats.misses,
            tuple(sorted(handler.structure.items())),
            digest, sim.now)


@st.composite
def _whole_request_plans(draw):
    """Random deployment shapes x YCSB mixes x impairment/fault windows."""
    clients = draw(st.integers(min_value=1, max_value=4))
    replication = draw(st.integers(min_value=1, max_value=3))
    cache = draw(st.booleans())
    update_ratio = draw(st.sampled_from([1.0, 0.5, 0.2]))
    seed = draw(st.integers(min_value=0, max_value=9_999))
    scenario = draw(st.sampled_from(["clean", "impair", "crash"]))
    impair_window = None
    crash_at = None
    if scenario == "impair":
        impair_window = (draw(st.integers(min_value=0, max_value=60_000)),
                         draw(st.integers(min_value=5_000,
                                          max_value=80_000)))
    elif scenario == "crash":
        crash_at = draw(st.integers(min_value=500, max_value=40_000))
    return (clients, replication, cache, update_ratio, seed,
            impair_window, crash_at)


class TestWholeRequestFoldProperty:
    """The client's timer cancellation holds the identity bar end to end.

    Random star deployments — client count, replication depth, cache
    on/off — crossed with YCSB mixes and impairment/fault windows must
    produce byte-identical per-request latencies, trace digests and
    end-of-run clocks with the completed-request timers cancelled (the
    default) and left armed to fire as no-ops.
    """

    @settings(max_examples=15, deadline=None)
    @given(plan=_whole_request_plans())
    def test_levels_agree_on_random_deployments(self, plan):
        default = _whole_request_run(*plan)
        with pytest.MonkeyPatch.context() as patch:
            leave_completed_timers_armed(patch)
            armed = _whole_request_run(*plan)
        assert default == armed


class TestFabricChainLoadIdentity:
    """A loaded chain fabric (the benchmark's fabric-chain shape): its
    sample digest, trace and end-of-run clock are pinned.

    Seeds 2 and 5 are the seeds whose same-nanosecond ties once broke
    differently between fold levels, so they are the ones that show a
    change of tie order first.
    """

    SPEC = DeploymentSpec(racks=2, spines=1, devices_per_rack=2,
                          servers_per_rack=2, chain_length=3,
                          clients_per_rack=2, placement="switch")

    PINS = {
        2: ("5363de2ecfe3e716", "0175574b0cf5db7d",
            1_512_549),
        5: ("760419adca9f6d64", "6d33ae82a5ad861a",
            1_512_955),
    }

    @pytest.mark.parametrize("seed", [2, 5])
    def test_loaded_chain_is_pinned(self, seed):
        from repro.protocol.packet import reset_request_ids

        reset_request_ids()
        tracer = Tracer(enabled=True)
        deployment = build(self.SPEC, SystemConfig(seed=seed),
                           tracer=tracer)
        result = run_loadgen(deployment, LoadGenConfig(
            mode="closed", users=12_000, window=16, total_requests=600))
        trace = [str(record) for record in tracer.records]
        assert (result.digest(), fingerprint(trace),
                deployment.sim.now) == self.PINS[seed]
        assert {"update_logged", "chain_forward", "pmnet_ack",
                "chain_invalidate"} <= {record.event
                                        for record in tracer.records}


class TestExperimentIdentity:
    @pytest.mark.slow
    def test_fig07_formats_identically_with_timers_left_armed(self,
                                                              monkeypatch):
        # fig07 runs the packet-loss scenarios: impaired channels plus
        # retransmission storms, where timers fire for real.
        from repro.experiments import fig07_ordering

        default = fig07_ordering.run(quick=True).format()
        leave_completed_timers_armed(monkeypatch)
        assert fig07_ordering.run(quick=True).format() == default

    @pytest.mark.slow
    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_every_registry_table_ignores_timer_cancellation(
            self, experiment_id, monkeypatch):
        """Every experiment's quick report, with the completed-request
        timers cancelled and left armed."""
        entry = EXPERIMENTS[experiment_id]
        default = entry.run(quick=True)
        leave_completed_timers_armed(monkeypatch)
        assert entry.run(quick=True) == default, experiment_id
