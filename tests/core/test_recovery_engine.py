"""Unit tests for the resend engine and the redo scrubber."""

import pytest

from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.net.link import Impairments
from repro.sim.clock import microseconds, milliseconds
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.hashmap import PMHashmap


def _loaded_deployment(requests=15, clients=2):
    """A deployment whose server is down, so the log fills up.

    The redo scrubber is pushed out of the way (huge timeout) so these
    tests observe the poll-driven resend engine in isolation.
    """
    from dataclasses import replace
    base = SystemConfig().with_clients(clients)
    config = replace(base, log=replace(base.log,
                                       redo_timeout_ns=10_000_000_000))
    handler = StructureHandler(PMHashmap())
    deployment = build(DeploymentSpec(placement="switch"), config,
                       handler=handler)
    deployment.server.crash()
    acknowledged = []

    def client_proc(index, client):
        for i in range(requests):
            completion = yield client.send_update(
                Operation(OpKind.SET, key=(index, i), value=i))
            if completion.result.ok:
                acknowledged.append((index, i))

    deployment.open_all_sessions()
    for index, client in enumerate(deployment.clients):
        deployment.sim.spawn(client_proc(index, client), f"c{index}")
    return deployment, handler, acknowledged


class TestResendEngine:
    def test_window_one_is_stop_and_wait(self):
        deployment, handler, acknowledged = _loaded_deployment()
        engine = deployment.devices[0].resend_engine
        assert engine.window == 1
        recovery = None

        def recover():
            nonlocal recovery
            recovery = deployment.server.recover(deployment.pmnet_names)

        deployment.sim.schedule_at(milliseconds(1.5), recover)
        deployment.sim.run()
        assert recovery is not None and recovery.triggered
        # Stop-and-wait: resends == acknowledged updates pending.
        assert int(engine.resends) == 30
        assert engine.pending == 0
        assert not engine.active

    def test_duration_reported(self):
        deployment, _handler, _acked = _loaded_deployment()
        engine = deployment.devices[0].resend_engine
        deployment.sim.schedule_at(
            milliseconds(1.5),
            lambda: deployment.server.recover(deployment.pmnet_names))
        deployment.sim.run()
        duration = engine.duration_ns()
        assert duration is not None
        # 30 stop-and-wait resends at ~68 us each.
        assert 30 * microseconds(40) < duration < 30 * microseconds(120)

    def test_wider_window_drains_faster(self):
        def drain_time(window):
            deployment, _h, _a = _loaded_deployment()
            engine = deployment.devices[0].resend_engine
            engine.window = window
            deployment.sim.schedule_at(
                milliseconds(1.5),
                lambda: deployment.server.recover(deployment.pmnet_names))
            deployment.sim.run()
            return engine.duration_ns()

        assert drain_time(8) < drain_time(1)

    def test_invalid_window_rejected(self):
        from repro.core.recovery import ResendEngine
        deployment, _h, _a = _loaded_deployment()
        with pytest.raises(ValueError):
            ResendEngine(deployment.devices[0], window=0)

    def test_reset_abandons_resend(self):
        deployment, _h, _a = _loaded_deployment()
        engine = deployment.devices[0].resend_engine
        deployment.sim.schedule_at(
            milliseconds(1.5),
            lambda: deployment.server.recover(deployment.pmnet_names))
        # Reset immediately after the poll arrives.
        deployment.sim.schedule_at(milliseconds(1.8), engine.reset)
        deployment.sim.run(until=milliseconds(4))
        assert not engine.active
        assert engine.pending == 0


class TestLossRepair:
    """Regression tests for the recovery-under-loss livelock.

    The seed implementation deadlocked whenever any packet of the
    recovery conversation was dropped: a lost replayed request stalled
    the stop-and-wait resend engine forever (with the scrubber standing
    down in deference to it, re-arming eternally), and a lost
    ``resend_done`` left the server waiting for a completion that would
    never come.  These tests drop each packet deterministically.
    """

    def _recover_under_loss(self, drop) -> tuple:
        """Recover the server while deterministically dropping the
        ``drop``-indexed frames the device sends after recovery starts
        (with stop-and-wait, frame k < 10 is the k-th replayed request
        and frame 10 is the ``resend_done`` control message)."""
        deployment, handler, acknowledged = _loaded_deployment(requests=5)
        channel = next(l for l in deployment.topology.links
                       if l.forward.name == "pmnet1->server").forward
        recovery = None

        def recover():
            nonlocal recovery
            # Reservations bypass ``send``; force the unfolded path so
            # the drop hook sees every frame the device sends.
            channel._fold = False
            original_send = channel.send
            sent = iter(range(10_000))

            def send_with_drops(frame):
                if next(sent) in drop:
                    channel.dropped_loss.increment()
                    return
                original_send(frame)

            channel.send = send_with_drops
            recovery = deployment.server.recover(deployment.pmnet_names)

        deployment.sim.schedule_at(milliseconds(1.5), recover)
        # The retry and re-poll timers tick at the redo timeout, which
        # _loaded_deployment stretches to 10 s to sideline the scrubber
        # — so one repair cycle lands at ~10.2 s of (cheap) sim time.
        # A livelock, by contrast, would never drain at any bound.
        deployment.sim.run(until=milliseconds(15_000))
        return deployment, handler, acknowledged, recovery

    def test_lost_replayed_request_is_retried(self):
        """Drop the first replayed request: the engine must retry it
        rather than wait forever for the ack."""
        deployment, handler, acknowledged, recovery = (
            self._recover_under_loss(drop={0}))
        engine = deployment.devices[0].resend_engine
        assert recovery is not None and recovery.triggered
        assert not engine.active
        assert int(engine.retries) >= 1
        assert set(dict(handler.structure.items())) == set(acknowledged)

    def test_lost_resend_done_is_repolled(self):
        """Drop the last frame of the replay (the resend_done control
        message): the server must re-poll instead of waiting forever."""
        # 5 requests x 2 clients = 10 replayed entries; frame 10 (0-based)
        # from the device is the resend_done.
        deployment, handler, acknowledged, recovery = (
            self._recover_under_loss(drop={10}))
        server = deployment.server
        assert recovery is not None and recovery.triggered
        assert int(server.recovery_repolls) >= 1
        assert set(dict(handler.structure.items())) == set(acknowledged)

    def test_duplicate_poll_ignored_mid_replay(self):
        """A re-poll during a healthy replay must not restart it."""
        deployment, _h, _acked, recovery = self._recover_under_loss(drop=set())
        engine = deployment.devices[0].resend_engine
        assert recovery is not None and recovery.triggered
        # Clean network: exactly one resend per pending entry, no retries.
        assert int(engine.retries) == 0
        assert int(engine.resends) == 10


class TestRedoScrubber:
    def test_tail_loss_repaired_by_scrubber(self):
        """Lose a forwarded update with no successors: only the device's
        redo timer can get it to the server."""
        config = SystemConfig(seed=2).with_clients(1)
        handler = StructureHandler(PMHashmap())
        deployment = build(DeploymentSpec(placement="switch"), config,
                           handler=handler)
        # Drop everything the device forwards for the first 300 us.
        link = next(l for l in deployment.topology.links
                    if l.forward.name == "pmnet1->server")
        link.forward.impairments = Impairments(loss_probability=1.0)
        deployment.sim.schedule_at(
            microseconds(300),
            lambda: setattr(link.forward, "impairments", Impairments()))
        client = deployment.clients[0]
        results = []

        def proc():
            completion = yield client.send_update(
                Operation(OpKind.SET, key="k", value="v"))
            results.append(completion)

        deployment.open_all_sessions()
        deployment.sim.spawn(proc())
        deployment.sim.run()
        device = deployment.devices[0]
        assert results[0].via == "pmnet"  # client never waited on the server
        assert int(device.redo_resends) >= 1
        assert dict(handler.structure.items()) == {"k": "v"}
        assert device.log.occupancy == 0  # server-ACK cleaned up

    def test_scrubber_idle_when_log_empty(self):
        """No periodic events linger after the log drains (the sim's
        event queue must go quiet)."""
        config = SystemConfig().with_clients(1)
        deployment = build(DeploymentSpec(placement="switch"), config)
        client = deployment.clients[0]

        def proc():
            yield client.send_update(Operation(OpKind.SET, key=1, value=2))

        deployment.open_all_sessions()
        deployment.sim.spawn(proc())
        end_time = deployment.sim.run()
        # The run must terminate well before a second redo period.
        assert end_time < 2 * config.log.redo_timeout_ns
