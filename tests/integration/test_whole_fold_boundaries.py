"""Request-path boundary regressions, pinned.

Two edges where a shortcut on the request path once risked moving an
instant (the module name predates the single request path, when these
held the whole-request fold to account):

* a second request hitting a shared channel at **exactly** the
  nanosecond its transmitter frees — a frame committed at that instant
  starts at once;
* an impairment window opening **mid-request** — the frames committed
  after it opens take the impairment draws (here: a loss window that
  must drop the frame and force a retransmission).

Each run's completion timeline, store and end-of-run clock are pinned.
All runs use jitter-free stacks so the interesting instants are exact,
not probabilistic.
"""

from dataclasses import replace

from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.net.link import Impairments
from repro.protocol.packet import reset_request_ids
from repro.sim.clock import transmission_delay
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.hashmap import PMHashmap

from tests.conftest import fingerprint


def _set_impairments(channel, impairments):
    channel.impairments = impairments


def _jitterless(config):
    """Deterministic stack costs: every instant is exact."""
    return replace(
        config,
        client_stack=replace(config.client_stack, jitter_sigma=0.0),
        server_stack=replace(config.server_stack, jitter_sigma=0.0))


def _build(clients, seed=3):
    reset_request_ids()
    cfg = _jitterless(SystemConfig(seed=seed).with_clients(clients))
    handler = StructureHandler(PMHashmap())
    deployment = build(DeploymentSpec(placement="switch"), cfg,
                       handler=handler)
    return deployment, handler


def _shared_uplink(deployment):
    """The merge-switch -> PMNet-device channel both clients contend on."""
    merge = deployment.switches[0]
    device = deployment.devices[0]
    for port in merge.ports:
        channel = port.channel
        if channel is not None and channel.sink.node is device:
            return channel
    raise AssertionError("no merge->device channel found")


def _request_serialize_ns():
    """Measured wire time of one update frame on the shared uplink."""
    deployment, _handler = _build(clients=1)
    sim = deployment.sim
    channel = _shared_uplink(deployment)
    client = deployment.clients[0]

    def proc():
        yield client.send_update(Operation(OpKind.SET, key="probe",
                                           value="v"))

    deployment.open_all_sessions()
    sim.spawn(proc(), "probe")
    sim.run()
    wire_bytes = int(channel.bytes_sent)
    assert wire_bytes > 0
    serialize = transmission_delay(
        wire_bytes, deployment.config.network.bandwidth_bps)
    assert serialize > 4  # the sweep below needs room around it
    return serialize


def _staggered_run(offset_ns, requests=2):
    """Two clients; client 1 starts ``offset_ns`` after client 0."""
    deployment, handler = _build(clients=2)
    sim = deployment.sim
    timeline = []

    def proc(index, client, start):
        if start:
            yield start
        for i in range(requests):
            completion = yield client.send_update(
                Operation(OpKind.SET, key=f"k{index}.{i}", value=i))
            timeline.append((sim.now, index, i, completion.via,
                             completion.result.ok))

    deployment.open_all_sessions()
    processes = [sim.spawn(proc(i, c, i * offset_ns), f"c{i}")
                 for i, c in enumerate(deployment.clients)]
    sim.run()
    assert all(not p.alive for p in processes)
    return (tuple(timeline), tuple(sorted(handler.structure.items())),
            sim.now)


#: The shared uplink's serialization time of one update frame, and per
#: start offset (in units of it, halved) the staggered run's
#: ``(fingerprint, end-of-run clock)``.
SERIALIZE_NS = 126
STAGGERED_PINS = {
    0: ("ffe68c6981e341f9", 1_510_974),
    1: ("ffe68c6981e341f9", 1_510_974),
    63: ("ffe68c6981e341f9", 1_510_974),
    125: ("ffe68c6981e341f9", 1_510_974),
    126: ("ffe68c6981e341f9", 1_510_974),
    127: ("ac35c3112a931cc8", 1_510_974),
    252: ("c8b02355c8693868", 1_510_974),
}


class TestExactBusyUntilArrival:
    def test_arrival_at_busy_until_instant_is_identical(self):
        # With jitter-free stacks the two clients' paths are exact
        # translates of each other, so a start offset equal to the
        # uplink serialization time makes client 1's frame reach the
        # shared merge->device channel at exactly the nanosecond client
        # 0's frame finishes serializing, a boundary that must count as
        # busy.  Sweep the exact instant plus its neighbours and
        # coarser spacings.
        serialize = _request_serialize_ns()
        assert serialize == SERIALIZE_NS
        offsets = sorted({0, 1, serialize // 2, serialize - 1, serialize,
                          serialize + 1, 2 * serialize})
        assert sorted(STAGGERED_PINS) == offsets
        for offset in offsets:
            observed = _staggered_run(offset)
            assert (fingerprint(observed), observed[-1]) == \
                STAGGERED_PINS[offset], f"offset={offset}"


def _impaired_window_run(open_at_ns, close_at_ns):
    """One client; a total-loss window opens mid-request on its uplink."""
    deployment, handler = _build(clients=1)
    sim = deployment.sim
    client = deployment.clients[0]
    channel = client.host.ports[0].channel
    sim.schedule_at(open_at_ns, _set_impairments, channel,
                    Impairments(loss_probability=1.0))
    sim.schedule_at(close_at_ns, _set_impairments, channel, Impairments())
    timeline = []

    def proc():
        for i in range(2):
            completion = yield client.send_update(
                Operation(OpKind.SET, key=f"k{i}", value=i))
            timeline.append((sim.now, i, completion.via,
                             completion.result.ok))

    deployment.open_all_sessions()
    process = sim.spawn(proc(), "client")
    sim.run()
    assert not process.alive
    return (tuple(timeline), tuple(sorted(handler.structure.items())),
            int(client.retransmissions), sim.now)


#: Per window-open instant: ``(fingerprint, retransmissions,
#: end-of-run clock)`` of the impaired run.
IMPAIRED_PINS = {
    4800: ("0d3f962e65d9ac88", 1, 2_510_974),
    9663: ("0d3f962e65d9ac88", 1, 2_510_974),
}


class TestImpairmentOpensMidFoldedRequest:
    def test_window_opening_mid_request_revokes_and_replays(self):
        # The first request leaves at t=0: stack send cost, then wire
        # serialization.  Opening a 100 %-loss window inside the stack
        # window and inside the serialization window must drop the frame
        # and force a retransmission.
        serialize = _request_serialize_ns()
        send_ns = SystemConfig().client_stack.send_ns
        opens = (send_ns // 2,                 # mid stack window
                 send_ns + serialize // 2)     # mid serialization
        assert sorted(IMPAIRED_PINS) == sorted(opens)
        for open_at in opens:
            close_at = send_ns + serialize + 50_000
            observed = _impaired_window_run(open_at, close_at)
            assert (fingerprint(observed), observed[2], observed[-1]) == \
                IMPAIRED_PINS[open_at], f"open_at={open_at}"
            # The window really did bite: the dropped first attempt
            # shows up as at least one retransmission.
            assert observed[2] >= 1, f"open_at={open_at}"
