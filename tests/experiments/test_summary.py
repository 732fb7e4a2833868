"""Tests for the deployment summary/health reporting."""

from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.driver import run_closed_loop
from repro.experiments.summary import format_summary, health_check, summarize
from repro.workloads.kv import OpKind, Operation


def _op_maker(ci, ri, rng):
    return Operation(OpKind.SET, key=(ci, ri), value=b"x"), 100


class TestSummarize:
    def test_structure_after_clean_run(self):
        deployment = build(DeploymentSpec(placement="switch",
                                          enable_cache=True),
                           SystemConfig().with_clients(2))
        run_closed_loop(deployment, _op_maker, 20, 2)
        summary = summarize(deployment)
        assert summary["config"]["clients"] == 2
        assert summary["sim"]["executed_events"] > 0
        assert summary["server"]["processed"] == 44
        device = summary["devices"]["pmnet1"]
        assert device["logged"] == 44
        assert device["occupancy"] == 0
        assert "cache_hit_rate" in device
        total_pmnet = sum(c["completed_pmnet"]
                          for c in summary["clients"].values())
        assert total_pmnet == 44

    def test_baseline_has_no_device_section_entries(self):
        deployment = build(DeploymentSpec(placement="none"),
                           SystemConfig().with_clients(1))
        run_closed_loop(deployment, _op_maker, 10, 0)
        assert summarize(deployment)["devices"] == {}


class TestHealthCheck:
    def test_clean_run_passes_all_checks(self):
        deployment = build(DeploymentSpec(placement="switch"),
                           SystemConfig().with_clients(2))
        run_closed_loop(deployment, _op_maker, 20, 2)
        checks = health_check(deployment)
        assert all(checks.values()), checks

    def test_undrained_log_detected(self):
        deployment = build(DeploymentSpec(placement="switch"),
                           SystemConfig().with_clients(1))
        deployment.server.crash()  # entries will never be invalidated
        client = deployment.clients[0]

        def proc():
            yield client.send_update(Operation(OpKind.SET, key=1, value=2))

        deployment.open_all_sessions()
        deployment.sim.spawn(proc())
        deployment.sim.run(until=500_000)
        checks = health_check(deployment)
        assert not checks["logs_drained"]


class TestFormat:
    def test_report_renders_all_sections(self):
        deployment = build(DeploymentSpec(placement="switch"),
                           SystemConfig().with_clients(2))
        run_closed_loop(deployment, _op_maker, 15, 1)
        report = format_summary(deployment)
        assert "Clients" in report
        assert "PMNet devices" in report
        assert "Server" in report
        assert "all checks pass" in report
