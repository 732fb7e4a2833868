"""Recovery-correctness tests: the Fig 12/13 scenarios end to end."""

import pytest

from repro.config import SystemConfig
from repro.failure import (
    FailureInjector,
    device_failure_before_ack,
    intermittent_server_failure,
    permanent_device_failure_with_replication,
)
from repro.sim.clock import microseconds, milliseconds


class TestIntermittentServerFailure:
    def test_no_acknowledged_update_lost(self):
        outcome = intermittent_server_failure(crash_after=microseconds(400))
        assert outcome.durable, "an acknowledged update vanished"
        assert outcome.client_completions == 160

    def test_log_replay_happens(self):
        outcome = intermittent_server_failure(crash_after=microseconds(300))
        assert outcome.resent > 0
        assert outcome.recovery_duration_ns is not None
        assert outcome.recovery_duration_ns > 0

    @pytest.mark.parametrize("crash_us", [150, 350, 550, 800])
    def test_durability_across_crash_points(self, crash_us):
        outcome = intermittent_server_failure(
            crash_after=microseconds(crash_us))
        assert outcome.durable

    def test_durability_across_seeds(self):
        for seed in (2, 5, 9):
            outcome = intermittent_server_failure(
                config=SystemConfig(seed=seed),
                crash_after=microseconds(400))
            assert outcome.durable, f"seed {seed} lost an update"

    def test_exactly_once_application(self):
        """Replay must not double-apply: every key holds its single
        written value and the store holds nothing else unexpected."""
        outcome = intermittent_server_failure(crash_after=microseconds(400))
        assert set(outcome.server_state) >= set(outcome.acknowledged_updates)
        for key, value in outcome.acknowledged_updates.items():
            assert outcome.server_state[key] == value


class TestDeviceFailures:
    def test_device_failure_before_ack_client_retransmits(self):
        outcome = device_failure_before_ack()
        assert outcome.durable
        assert outcome.client_completions == 1
        assert outcome.retransmissions >= 1

    def test_permanent_failure_survivor_recovers(self):
        outcome = permanent_device_failure_with_replication()
        assert outcome.durable
        assert outcome.resent > 0
        assert outcome.client_completions == 40


class TestInjectorBookkeeping:
    def test_failure_records(self):
        from repro.experiments.deploy import DeploymentSpec, build
        deployment = build(DeploymentSpec(placement="switch"),
                           SystemConfig().with_clients(1))
        injector = FailureInjector(deployment.sim)
        record = injector.crash_server_at(deployment.server,
                                          microseconds(10))
        injector.recover_server_at(deployment.server, microseconds(50),
                                   deployment.pmnet_names, record)
        deployment.sim.run(until=milliseconds(1))
        assert record.failed_at_ns == microseconds(10)
        assert record.recovered_at_ns == microseconds(50)


class TestReplacementKeepsInstrumentIdentity:
    def test_replaced_device_cache_is_wiped_in_place(self):
        # Regression: replace_device_at used to swap in a fresh
        # ReadCache whose new counters were never registered, so every
        # post-replacement hit was invisible to the metrics registry.
        from repro.experiments.deploy import DeploymentSpec, build
        from repro.obs.context import Observability

        obs = Observability(spans=False)
        deployment = build(DeploymentSpec(placement="switch",
                                          enable_cache=True),
                           SystemConfig().with_clients(1), obs=obs)
        device = deployment.devices[0]
        cache = device.cache
        cache.on_update_logged("k", "v")
        assert cache.lookup("k") == "v"
        hits_before = int(cache.hits)

        injector = FailureInjector(deployment.sim)
        injector.kill_device_permanently_at(device, microseconds(10))
        injector.replace_device_at(device, microseconds(50))
        deployment.sim.run(until=microseconds(100))

        assert device.cache is cache, "replacement must wipe in place"
        assert len(cache) == 0, "blank board: old contents gone"
        assert cache.lookup("k") is None

        # Post-replacement hits land in the counter the registry holds.
        cache.on_update_logged("k2", "v2")
        assert cache.lookup("k2") == "v2"
        registered = obs.registry.get(f"{device.name}.cache.hits")
        assert registered is cache.hits
        assert int(registered) == hits_before + 1


class TestAdditionalScenarios:
    def test_device_failure_before_receive(self):
        from repro.failure import device_failure_before_receive
        outcome = device_failure_before_receive()
        assert outcome.durable
        assert outcome.client_completions == 1
        assert outcome.retransmissions >= 1

    def test_client_failure_leaves_system_consistent(self):
        from repro.failure import client_failure_mid_run
        outcome = client_failure_mid_run()
        # Every acknowledged update (including the dead client's early
        # ones) is in the store.
        assert outcome.durable
        # Survivors completed their full runs: 2 clients x 30 requests,
        # plus whatever the dead client acked before dying.
        assert outcome.client_completions >= 60
