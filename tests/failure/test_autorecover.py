"""Tests for heartbeat-driven automatic recovery."""

from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.failure.autorecover import attach_recovery_manager
from repro.sim.clock import microseconds, milliseconds
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.hashmap import PMHashmap


def _run_auto_recovery(outage_us=1_200):
    config = SystemConfig(seed=4).with_clients(2)
    handler = StructureHandler(PMHashmap())
    deployment = build(DeploymentSpec(placement="switch"), config,
                       handler=handler)
    manager = attach_recovery_manager(deployment,
                                      period_ns=microseconds(100))
    sim = deployment.sim
    acknowledged = {}

    def client_proc(index, client):
        for i in range(30):
            completion = yield client.send_update(
                Operation(OpKind.SET, key=(index, i), value=i))
            if completion.result.ok:
                acknowledged[(index, i)] = i

    deployment.open_all_sessions()
    for index, client in enumerate(deployment.clients):
        sim.spawn(client_proc(index, client), f"c{index}")
    manager.start()

    crash_at = microseconds(250)
    # Power-cut the server; the machine (not the app) boots later.
    sim.schedule_at(crash_at, deployment.server.crash)
    sim.schedule_at(crash_at + microseconds(outage_us),
                    deployment.server.machine_boot)
    # Let the heartbeat loop observe the reboot, then stop pinging so
    # the simulation can drain.
    sim.run(until=milliseconds(8))
    manager.stop()
    sim.run()
    return deployment, manager, handler, acknowledged


class TestAutomaticRecovery:
    def test_outage_is_detected_and_recovered(self):
        deployment, manager, handler, acknowledged = _run_auto_recovery()
        assert manager.detections == 1
        assert manager.recoveries_started == 1
        assert manager.recovery_done is not None
        assert manager.recovery_done.triggered

    def test_detection_latency_is_a_few_periods(self):
        deployment, manager, _h, _a = _run_auto_recovery()
        detected = manager.detected_at_ns[0]
        # Crash at 250 us, 100 us period, threshold 3: detect < 1 ms.
        assert microseconds(250) < detected < microseconds(1_300)

    def test_no_acknowledged_update_lost(self):
        _d, manager, handler, acknowledged = _run_auto_recovery()
        state = dict(handler.structure.items())
        for key, value in acknowledged.items():
            assert state.get(key) == value

    def test_healthy_run_triggers_nothing(self):
        config = SystemConfig(seed=4).with_clients(1)
        deployment = build(DeploymentSpec(placement="switch"), config)
        manager = attach_recovery_manager(deployment)
        manager.start()
        deployment.sim.run(until=milliseconds(2))
        manager.stop()
        deployment.sim.run()
        assert manager.detections == 0
        assert manager.recoveries_started == 0


class TestFlappingSchedule:
    """The overlapping-recovery guard: pong bursts during an in-flight
    recovery must not spawn a duplicate recovery, while a genuine
    re-crash (host epoch moved AND the application is down again) must.

    Application recovery takes ~150 ms, so everything scheduled in the
    first few milliseconds after the reboot lands squarely inside the
    in-flight window."""

    def _deployment(self):
        config = SystemConfig(seed=4).with_clients(2)
        handler = StructureHandler(PMHashmap())
        deployment = build(DeploymentSpec(placement="switch"), config,
                           handler=handler)
        manager = attach_recovery_manager(deployment,
                                          period_ns=microseconds(100))
        acknowledged = {}

        def client_proc(index, client):
            for i in range(30):
                completion = yield client.send_update(
                    Operation(OpKind.SET, key=(index, i), value=i))
                if completion.result.ok:
                    acknowledged[(index, i)] = i

        deployment.open_all_sessions()
        for index, client in enumerate(deployment.clients):
            deployment.sim.spawn(client_proc(index, client), f"c{index}")
        manager.start()
        return deployment, manager, handler, acknowledged

    def test_lossy_window_flap_is_skipped(self):
        deployment, manager, handler, acknowledged = self._deployment()
        sim = deployment.sim
        sim.schedule_at(microseconds(250), deployment.server.crash)
        sim.schedule_at(microseconds(1_450),
                        deployment.server.machine_boot)
        # Fake a lossy window: the monitor loses a few pongs while the
        # recovery started by the real reboot is still in flight.  The
        # next real pong re-fires on_recovery with an unchanged host
        # epoch — the guard must swallow it.
        sim.schedule_at(
            milliseconds(3),
            lambda: setattr(manager.monitor, "target_alive", False))
        sim.run(until=milliseconds(8))
        manager.stop()
        sim.run()
        assert manager.recoveries_started == 1
        assert manager.recoveries_skipped >= 1
        assert manager.recovery_done is not None
        assert manager.recovery_done.triggered
        state = dict(handler.structure.items())
        for key, value in acknowledged.items():
            assert state.get(key) == value

    def test_genuine_recrash_starts_a_second_recovery(self):
        deployment, manager, handler, acknowledged = self._deployment()
        sim = deployment.sim
        sim.schedule_at(microseconds(250), deployment.server.crash)
        sim.schedule_at(microseconds(1_450),
                        deployment.server.machine_boot)
        # Crash again mid-recovery: the epoch moves and the app is down,
        # so the repeat trigger after the second reboot is legitimate.
        sim.schedule_at(milliseconds(3), deployment.server.crash)
        sim.schedule_at(milliseconds(4.5),
                        deployment.server.machine_boot)
        sim.run(until=milliseconds(10))
        manager.stop()
        sim.run()
        assert manager.detections == 2
        assert manager.recoveries_started == 2
        assert manager.recovery_done is not None
        assert manager.recovery_done.triggered
        state = dict(handler.structure.items())
        for key, value in acknowledged.items():
            assert state.get(key) == value
