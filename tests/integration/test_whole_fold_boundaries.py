"""Whole-request folding boundary regressions.

Three edges where the whole-request fold is most likely to cheat:

* a second request hitting a shared channel at **exactly** the
  nanosecond its transmitter frees — the boundary instant is busy
  until the pending ``_serialized`` runs, at every level;
* an impairment window opening **mid-folded-request** — the frames
  not yet serialized take the impairment draws (here: a loss window
  that must drop the frame and force a retransmission in every mode);
* **cache-hit requests must never whole-request fold** — the bypass
  path's lookup outcome steers mid-pipeline branching, so the device
  must refuse to extend arrival chains for it.

All runs use jitter-free stacks so the interesting instants are exact,
not probabilistic.
"""

from dataclasses import replace

from repro.config import SystemConfig
from repro.core.mat import MATAction, classify
from repro.experiments.deploy import DeploymentSpec, build
from repro.net.link import Impairments
from repro.protocol.packet import reset_request_ids
from repro.sim.clock import transmission_delay
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.hashmap import PMHashmap

from tests.conftest import FOLD_LEVELS, fold

def _set_impairments(channel, impairments):
    channel.impairments = impairments
    channel.on_impairments_changed()


def _jitterless(config):
    """Deterministic stack costs: every instant is exact."""
    return replace(
        config,
        client_stack=replace(config.client_stack, jitter_sigma=0.0),
        server_stack=replace(config.server_stack, jitter_sigma=0.0))


def _build(level, clients, enable_cache=False, seed=3):
    reset_request_ids()
    with fold(level):
        cfg = _jitterless(SystemConfig(seed=seed).with_clients(clients))
        handler = StructureHandler(PMHashmap())
        deployment = build(DeploymentSpec(placement="switch",
                                          enable_cache=enable_cache), cfg,
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
    deployment, _handler = _build("none", clients=1)
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


def _staggered_run(level, offset_ns, requests=2):
    """Two clients; client 1 starts ``offset_ns`` after client 0."""
    deployment, handler = _build(level, clients=2)
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


class TestExactBusyUntilArrival:
    def test_arrival_at_busy_until_instant_is_identical(self):
        # With jitter-free stacks the two clients' paths are exact
        # translates of each other, so a start offset equal to the
        # uplink serialization time makes client 1's frame reach the
        # shared merge->device channel at exactly the nanosecond client
        # 0's frame finishes serializing, a boundary that must count as
        # busy at every level.  Sweep the exact
        # instant plus its neighbours and coarser spacings.
        serialize = _request_serialize_ns()
        offsets = sorted({0, 1, serialize // 2, serialize - 1, serialize,
                          serialize + 1, 2 * serialize})
        for offset in offsets:
            runs = {level: _staggered_run(level, offset)
                    for level in FOLD_LEVELS}
            assert runs["whole"] == runs["none"], f"offset={offset}"


def _impaired_window_run(level, open_at_ns, close_at_ns):
    """One client; a total-loss window opens mid-request on its uplink."""
    deployment, handler = _build(level, clients=1)
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


class TestImpairmentOpensMidFoldedRequest:
    def test_window_opening_mid_request_revokes_and_replays(self):
        # The first request's whole fold commits at t=0: stack send
        # cost, then wire serialization.  Opening a 100 %-loss window
        # inside the stack window (reservation unstarted -> revoked)
        # and inside the serialization window (record mid-flight ->
        # unfolded in place) must drop the frame and force the same
        # retransmission on every timeline.
        serialize = _request_serialize_ns()
        send_ns = SystemConfig().client_stack.send_ns
        for open_at in (send_ns // 2,                 # mid stack window
                        send_ns + serialize // 2):    # mid serialization
            close_at = send_ns + serialize + 50_000
            runs = {level: _impaired_window_run(level, open_at, close_at)
                    for level in FOLD_LEVELS}
            assert runs["whole"] == runs["none"], f"open_at={open_at}"
            # The window really did bite: the dropped first attempt
            # shows up as at least one retransmission in every mode.
            assert runs["none"][2] >= 1, f"open_at={open_at}"


class TestCacheHitNeverWholeFolds:
    def test_bypass_frames_get_no_arrival_extension(self):
        results = {}
        for level in FOLD_LEVELS:
            deployment, _handler = _build(level, clients=1,
                                          enable_cache=True)
            sim = deployment.sim
            device = deployment.devices[0]
            client = deployment.clients[0]
            seen = []
            original = device.arrival_extension

            def spy(frame, _original=original, _seen=seen):
                extension = _original(frame)
                _seen.append((classify(frame), extension is not None))
                return extension

            device.arrival_extension = spy
            timeline = []

            def proc():
                completion = yield client.send_update(
                    Operation(OpKind.SET, key="hot", value="v1"))
                timeline.append((sim.now, completion.via,
                                 completion.result.ok))
                completion = yield client.bypass(
                    Operation(OpKind.GET, key="hot"))
                timeline.append((sim.now, completion.via,
                                 completion.result.ok))

            deployment.open_all_sessions()
            process = sim.spawn(proc(), "client")
            sim.run()
            assert not process.alive
            results[level] = tuple(timeline)
            bypass = [ext for action, ext in seen
                      if action is MATAction.BYPASS]
            if level == "whole":
                # The read reached the device and was refused a fold.
                assert bypass and not any(bypass)
                # Control: the update path did extend.
                assert any(ext for action, ext in seen
                           if action is MATAction.LOG_AND_FORWARD)
            else:
                assert not any(ext for _action, ext in seen)
        assert results["whole"] == results["none"]
        # The read was served from the device cache, not the server.
        assert results["none"][1][1] == "cache"
