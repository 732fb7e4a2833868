"""The folding correctness bar: fold on == fold off, byte for byte.

The latency-folded paths (``net/link.py`` arrival extensions,
``core/pmnet_device.py`` stage folds, ``host/node.py`` express claims,
``host/client.py`` timer cancellation and inline completion) claim to
change only the executed-event count, never a delivery time, a queue
decision, or an RNG draw.  This file holds that claim to account:

* a hypothesis property over random star topologies — random frame
  sizes, send times, and sources, driven through a real ``Switch`` so
  queueing and forwarding interleave — must produce identical arrival
  logs with ``PMNET_FOLD`` at ``none`` and ``whole``;
* a second property with frame sizes and send times quantized so that
  sends collide with serialization boundaries on the same nanosecond,
  stressing same-nanosecond tie-breaking;
* impaired channels must never fold, deterministically;
* mid-run crashes — a switch failing inside its forwarding window, a
  PMNet device power-cut at swept instants across the request's
  pipeline windows (the Fig 12 scenarios), a chain member power-cut
  inside its ingress and PM-stage windows, a client host dying with a
  send in flight — must leave every observable identical, because
  every folded chain ends in a callback that re-checks liveness;
* a loaded cross-rack chain fabric must produce the same sample digest
  and trace at every fold level; and
* a full experiment (including the impaired fig07 loss scenarios) must
  format byte-identically in both modes.
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

from tests.conftest import FOLD_LEVELS, fold

def _set_impairments(channel, impairments):
    """Swap a channel's impairments mid-run, as the chaos engine does."""
    channel.impairments = impairments
    channel.on_impairments_changed()


class _Host(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.arrivals = []

    def handle_frame(self, frame, in_port):
        self.arrivals.append((self.sim.now, frame.src, frame.payload))


def _run_star(num_hosts, sends, no_fold, loss_seed=None, profile=None,
              fail_switch_at=None):
    """Build hosts around one switch, replay ``sends``, return arrivals.

    ``sends`` is a list of ``(time_ns, src_index, dst_index, size)``.
    When ``loss_seed`` is set, the uplink of host 0 gets probabilistic
    loss — an impaired channel mixed into the same topology.  When
    ``fail_switch_at`` is set, the switch power-cuts at that instant and
    recovers 30 µs later, so frames in flight around the crash exercise
    the revocation path in one mode and the fire-time ``failed`` check
    in the other.
    """
    with fold("none" if no_fold else "whole"):
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
    executed = sim.executed_events
    return [host.arrivals for host in hosts], executed


@st.composite
def _send_plans(draw):
    num_hosts = draw(st.integers(min_value=2, max_value=5))
    sends = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=20_000),
                  st.integers(min_value=0, max_value=num_hosts - 1),
                  st.integers(min_value=0, max_value=num_hosts - 1),
                  st.integers(min_value=1, max_value=3_000)),
        min_size=1, max_size=25))
    return num_hosts, sends


@st.composite
def _collision_plans(draw):
    """Send plans engineered to land on serialization boundaries.

    With zero header overhead and a 10 Gb/s line, a 1250-byte frame
    serializes in exactly 1000 ns; quantizing send times to multiples of
    100 ns makes sends routinely coincide — on the same nanosecond —
    with another transmitter's ``_busy_until``, the switch's forwarding
    instant, and each other.  Every such tie must be broken by event
    seq numbers exactly as the unfolded path breaks it.
    """
    num_hosts = draw(st.integers(min_value=2, max_value=4))
    sends = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=60).map(
                      lambda slot: slot * 100),
                  st.integers(min_value=0, max_value=num_hosts - 1),
                  st.integers(min_value=0, max_value=num_hosts - 1),
                  st.just(1250)),
        min_size=2, max_size=20))
    return num_hosts, sends


_COLLISION_PROFILE = NetworkProfile(header_overhead_bytes=0)


class TestFoldIdentityProperty:
    @settings(max_examples=60, deadline=None)
    @given(plan=_send_plans())
    def test_random_topologies_deliver_identically(self, plan):
        num_hosts, sends = plan
        folded, folded_events = _run_star(num_hosts, sends, no_fold=False)
        unfolded, unfolded_events = _run_star(num_hosts, sends, no_fold=True)
        assert folded == unfolded
        assert folded_events <= unfolded_events

    @settings(max_examples=60, deadline=None)
    @given(plan=_collision_plans())
    def test_same_ns_collisions_tie_break_identically(self, plan):
        num_hosts, sends = plan
        folded, folded_events = _run_star(
            num_hosts, sends, no_fold=False, profile=_COLLISION_PROFILE)
        unfolded, unfolded_events = _run_star(
            num_hosts, sends, no_fold=True, profile=_COLLISION_PROFILE)
        assert folded == unfolded
        assert folded_events <= unfolded_events

    @settings(max_examples=20, deadline=None)
    @given(plan=_send_plans(), seed=st.integers(min_value=1, max_value=999))
    def test_impaired_channels_stay_identical(self, plan, seed):
        num_hosts, sends = plan
        folded, _ = _run_star(num_hosts, sends, no_fold=False,
                              loss_seed=seed)
        unfolded, _ = _run_star(num_hosts, sends, no_fold=True,
                                loss_seed=seed)
        assert folded == unfolded


class TestFoldBoundaryRegression:
    def test_send_at_exact_serialize_end_queues_behind_pending_record(self):
        # h1's second frame lands at exactly the nanosecond its first
        # frame finishes serializing, via an event whose seq was
        # allocated *before* the pending folded record's: the unfolded
        # timeline finds `_transmitting` still True and queues it behind
        # `_serialized`.  The folded path used to treat `now ==
        # _busy_until` as a free transmitter and fold, letting h1's
        # frame overtake h0's contending frame at the switch downlink.
        sends = [(4300, 1, 0, 1250), (5300, 1, 0, 1250), (5300, 0, 0, 1250)]
        folded, folded_events = _run_star(
            2, sends, no_fold=False, profile=_COLLISION_PROFILE)
        unfolded, unfolded_events = _run_star(
            2, sends, no_fold=True, profile=_COLLISION_PROFILE)
        assert folded == unfolded
        assert folded_events <= unfolded_events
        # h0's frame reaches the switch with the earlier seq and must
        # win the downlink tie in both modes.
        assert folded[0] == [(6800, "h1", 0), (7800, "h0", 2),
                             (8800, "h1", 1)]


class TestImpairedNeverFolds:
    def test_lossy_channel_takes_unfolded_path(self):
        sends = [(i * 5_000, 0, 1, 100) for i in range(10)]
        sim_arrivals, _ = _run_star(2, sends, no_fold=False, loss_seed=7)
        # Build again to inspect the channel counters directly.
        with fold("whole"):
            sim = Simulator(seed=7)
            profile = NetworkProfile()
            topo = Topology(sim, profile)
            src = topo.add(_Host(sim, "h0"))
            dst = topo.add(_Host(sim, "h1"))
            switch = topo.add(Switch(sim, "sw", profile))
            topo.connect(src, switch,
                         impairments_ab=Impairments(loss_probability=0.5))
            topo.connect(dst, switch)
            topo.compute_routes()
        for i in range(10):
            sim.schedule(i * 5_000, src.ports[0].transmit,
                         Frame("h0", "h1", i, 100))
        sim.run()
        assert int(src.ports[0].channel.folded_sends) == 0
        assert int(src.ports[0].channel.dropped_loss) > 0


def _device_crash_run(crash_offset_ns, no_fold):
    """One client, three updates, PMNet device power-cut mid-request.

    ``crash_offset_ns`` is relative to the client stack's send cost, so
    offsets sweep the crash instant across the first request's life:
    still in the client stack, on the wire, inside the device's
    ingress/PM/egress/ACK windows, and after the ACK departs.  Returns
    every observable a fold could plausibly disturb.
    """
    with fold("none" if no_fold else "whole"):
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


def _chain_crash_run(level, member, crash_offset_ns):
    """Chain updates with one member power-cut mid-pipeline.

    The crash lands ``crash_offset_ns`` after the instant the member
    receives the first CHAIN_UPDATE of the run (found by an unfolded
    probe run), so offsets sweep its ingress and PM-stage windows.
    Returns every observable a fold could plausibly disturb.
    """
    from repro.protocol.packet import reset_request_ids
    from repro.protocol.types import PacketType

    def run(level, crash_at):
        reset_request_ids()
        with fold(level):
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
        arrivals = []
        if crash_at is None:
            handle_frame = victim.handle_frame

            def probe(frame, in_port):
                if (getattr(frame.payload, "packet_type", None)
                        is PacketType.CHAIN_UPDATE):
                    arrivals.append(sim.now)
                handle_frame(frame, in_port)

            victim.handle_frame = probe
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
        return arrivals, (tuple(timeline), tuple(state),
                          int(victim.acks_sent), sim.now)

    arrivals, _ = run("none", None)
    assert arrivals, f"chain member {member} never saw a CHAIN_UPDATE"
    return run(level, arrivals[0] + crash_offset_ns)[1]


class TestCrashIdentity:
    """Fold on == fold off even when nodes die with folds in flight."""

    SWITCH_SENDS = [(t, 0, 1, 1250) for t in range(0, 15_000, 700)]

    @pytest.mark.parametrize("crash_at", [
        500,     # first frame still serializing on the uplink
        1137,    # exactly at the switch's arrival instant
        1300,    # inside the forwarding window
        1437,    # exactly at the forwarding instant
        2100,    # downlink serialization underway
        12_345,  # steady-state mid-burst
    ])
    def test_switch_crash_timing_sweep(self, crash_at):
        folded, _ = _run_star(2, self.SWITCH_SENDS, no_fold=False,
                              fail_switch_at=crash_at)
        unfolded, _ = _run_star(2, self.SWITCH_SENDS, no_fold=True,
                                fail_switch_at=crash_at)
        assert folded == unfolded

    @pytest.mark.parametrize("crash_offset_ns", [
        -500,    # request still inside the client stack's send window
        800,     # on the wire / merge switch
        1_200,   # the Fig 12 case-2b instant: device ingress
        1_600,   # PM write window
        2_400,   # egress / ACK generation
        15_000,  # long after the ACK: crash between requests
    ])
    def test_device_crash_timing_sweep(self, crash_offset_ns):
        folded = _device_crash_run(crash_offset_ns, no_fold=False)
        unfolded = _device_crash_run(crash_offset_ns, no_fold=True)
        assert folded == unfolded

    @pytest.mark.parametrize("member", [0, 1])
    @pytest.mark.parametrize("crash_offset_ns", [
        0,       # the wire-arrival instant
        100,     # inside ingress
        250,     # exactly at the ingress -> PM-stage boundary
        330,     # inside the PM stage
        400,     # exactly at the log instant
    ])
    def test_chain_member_crash_timing_sweep(self, member, crash_offset_ns):
        runs = {level: _chain_crash_run(level, member, crash_offset_ns)
                for level in FOLD_LEVELS}
        assert runs["whole"] == runs["none"]

    def test_client_crash_scenario_identical(self):
        with fold("whole"):
            folded = client_failure_mid_run()
        with fold("none"):
            unfolded = client_failure_mid_run()
        for outcome in (folded, unfolded):
            assert outcome.durable
        assert (sorted(folded.acknowledged_updates.items())
                == sorted(unfolded.acknowledged_updates.items()))
        assert (sorted(folded.server_state.items())
                == sorted(unfolded.server_state.items()))
        assert folded.client_completions == unfolded.client_completions


def _whole_request_run(level, clients, replication, cache, update_ratio,
                       seed, impair_window=None, crash_at=None):
    """One full client->switch->PMNet->server run at a fold level.

    Returns every observable the whole-request fold could plausibly
    disturb: the per-request latency samples (byte-identity surface),
    the completion routing, the final store contents, a digest of the
    full trace, and the drained-queue end time.
    """
    from repro.protocol.packet import reset_request_ids

    # Request ids are process-global; reset so the traces of the runs
    # being compared are identical line for line, not just in shape.
    reset_request_ids()
    with fold(level):
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
    """The whole-request fold holds the identity bar end to end.

    Random star deployments — client count, replication depth, cache
    on/off — crossed with YCSB mixes and impairment/fault windows must
    produce byte-identical per-request latencies and trace digests at
    both fold levels: fully unfolded and whole-request folded.
    """

    @settings(max_examples=15, deadline=None)
    @given(plan=_whole_request_plans())
    def test_levels_agree_on_random_deployments(self, plan):
        (clients, replication, cache, update_ratio, seed,
         impair_window, crash_at) = plan
        runs = {level: _whole_request_run(level, clients, replication,
                                          cache, update_ratio, seed,
                                          impair_window, crash_at)
                for level in FOLD_LEVELS}
        assert runs["whole"] == runs["none"]


class TestFabricChainLoadIdentity:
    """A loaded chain fabric (the benchmark's fabric-chain shape) gives
    one sample digest and one trace at every fold level.

    Seeds 2 and 5 once diverged, when the wire still folded: a channel
    reservation whose start equalled an unstarted reservation's
    serialize end was admitted, so its serialize-end seq was drawn at
    its own slot instead of inside the earlier frame's ``_serialized``,
    and same-nanosecond ties further downstream broke differently.
    """

    SPEC = DeploymentSpec(racks=2, spines=1, devices_per_rack=2,
                          servers_per_rack=2, chain_length=3,
                          clients_per_rack=2, placement="switch")

    @pytest.mark.parametrize("seed", [2, 5])
    def test_fold_levels_give_one_digest(self, seed):
        from repro.protocol.packet import reset_request_ids

        runs = {}
        for level in FOLD_LEVELS:
            reset_request_ids()
            tracer = Tracer(enabled=True)
            with fold(level):
                deployment = build(self.SPEC, SystemConfig(seed=seed),
                                   tracer=tracer)
            result = run_loadgen(deployment, LoadGenConfig(
                mode="closed", users=12_000, window=16,
                total_requests=600))
            runs[level] = (result.digest(),
                           [str(record) for record in tracer.records])
        assert runs["whole"] == runs["none"]
        assert {"update_logged", "chain_forward", "pmnet_ack",
                "chain_invalidate"} <= {record.event
                                        for record in tracer.records}


class TestExperimentIdentity:
    @pytest.mark.slow
    def test_fig07_formats_identically_with_and_without_folding(self,
                                                                monkeypatch):
        # fig07 runs the packet-loss scenarios: impaired channels plus
        # retransmission storms — the hardest case for fold identity.
        from repro.experiments import fig07_ordering

        monkeypatch.setenv("PMNET_FOLD", "whole")
        folded = fig07_ordering.run(quick=True).format()
        monkeypatch.setenv("PMNET_FOLD", "none")
        unfolded = fig07_ordering.run(quick=True).format()
        assert folded == unfolded

    @pytest.mark.slow
    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_every_registry_table_is_fold_level_invariant(self,
                                                          experiment_id,
                                                          monkeypatch):
        """Every experiment's quick report, at every fold level."""
        entry = EXPERIMENTS[experiment_id]
        reports = {}
        for level in FOLD_LEVELS:
            monkeypatch.setenv("PMNET_FOLD", level)
            reports[level] = entry.run(quick=True)
        monkeypatch.delenv("PMNET_FOLD")
        assert reports["whole"] == reports["none"], experiment_id
