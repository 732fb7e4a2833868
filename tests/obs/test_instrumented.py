"""Instrumented-scenario tests: span/driver consistency, the metrics
payload invariants, and the result-neutrality guarantee (observability
on vs off must not move a single simulated number)."""

import pytest

from repro.config import SystemConfig
from repro.errors import ExperimentError
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.driver import run_closed_loop
from repro.experiments.instrumented import (
    SCENARIOS,
    check_consistency,
    format_breakdown,
    metrics_report,
    run_instrumented,
)
from repro.obs.context import Observability
from repro.obs.export import validate_metrics
from repro.workloads.kv import OpKind, Operation


@pytest.fixture(scope="module")
def fig02_run():
    return run_instrumented("fig02")


class TestRunInstrumented:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ExperimentError):
            run_instrumented("fig99")

    def test_scenario_table_covers_both_systems(self):
        systems = {s.system for s in SCENARIOS.values()}
        assert systems == {"baseline", "pmnet"}

    def test_driver_latencies_contained_in_spans(self, fig02_run):
        assert check_consistency(fig02_run) == []

    def test_metrics_payload_validates(self, fig02_run):
        payload = metrics_report(fig02_run)
        assert validate_metrics(payload) == []
        assert payload["scenario"] == "fig02"
        assert payload["requests"] == 8 * 20

    def test_stage_sums_equal_end_to_end(self, fig02_run):
        payload = metrics_report(fig02_run)
        groups = payload["spans"]["groups"]
        assert groups
        for group in groups:
            stage_sum = sum(s["total_ns"] for s in group["stages"])
            assert stage_sum == group["end_to_end"]["total_ns"]

    def test_breakdown_formats(self, fig02_run):
        text = format_breakdown(metrics_report(fig02_run))
        assert "fig02" in text
        assert "end-to-end" in text
        assert "client_send" in text


class TestCacheInstrumentsExported:
    def test_cache_counters_reach_the_registry(self):
        # Regression: PMNetDevice.instruments() used to omit the
        # embedded ReadCache, so exports silently lacked cache stats.
        obs = Observability(spans=False)
        config = SystemConfig(seed=3).with_clients(2).with_payload(128)
        deployment = build(DeploymentSpec(placement="switch",
                                          enable_cache=True), config, obs=obs)
        names = obs.registry.names()
        device = deployment.devices[0].name
        for metric in ("hits", "misses", "evictions", "pinned_overflow"):
            assert f"{device}.cache.{metric}" in names
        # The registered objects ARE the live cache counters.
        cache = deployment.devices[0].cache
        assert obs.registry.get(f"{device}.cache.hits") is cache.hits

    def test_no_cache_no_cache_instruments(self):
        obs = Observability(spans=False)
        config = SystemConfig(seed=3).with_clients(2).with_payload(128)
        build(DeploymentSpec(placement="switch", enable_cache=False), config,
              obs=obs)
        assert not [n for n in obs.registry.names() if ".cache." in n]


class TestResultNeutrality:
    def _run(self, obs, spec=DeploymentSpec(placement="switch")):
        config = SystemConfig(seed=3).with_clients(4).with_payload(256)
        deployment = build(spec, config, obs=obs)

        def op_maker(ci, ri, _rng):
            return Operation(OpKind.SET, key=(ci, ri), value=b"v"), 256

        stats = run_closed_loop(deployment, op_maker,
                                requests_per_client=6, warmup_requests=2)
        return stats.all_latencies.samples, deployment.sim.executed_events

    def test_observability_is_result_neutral(self):
        plain_samples, plain_events = self._run(obs=None)
        obs = Observability(spans=True, trace=True)
        observed_samples, observed_events = self._run(obs=obs)
        assert observed_samples == plain_samples
        assert observed_events == plain_events
        # And the run actually recorded something.
        assert len(obs.spans) > 0
        assert len(obs.registry) > 0

    @pytest.mark.parametrize("placement", [
        "client-log", "server-log", "server-replication"])
    def test_baseline_placements_accept_observability(self, placement):
        # The alternative designs are build() placements, so they take
        # obs= like every other shape, without moving a number.
        spec = DeploymentSpec(placement=placement, chain_length=3)
        plain = self._run(obs=None, spec=spec)
        obs = Observability(spans=True, trace=True)
        assert self._run(obs=obs, spec=spec) == plain
        assert len(obs.registry) > 0
