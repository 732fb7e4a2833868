"""Tests for the PMTest-style persistence checker."""

import pytest

from repro.analysis.persistcheck import PersistenceChecker, Violation
from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.failure.injector import FailureInjector
from repro.sim.clock import microseconds, milliseconds
from repro.sim.trace import Tracer
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.hashmap import PMHashmap


def _traced_run(clients=2, requests=20, crash=False, seed=1):
    tracer = Tracer(enabled=True)
    config = SystemConfig(seed=seed).with_clients(clients)
    deployment = build(DeploymentSpec(placement="switch"), config,
                       handler=StructureHandler(PMHashmap()), tracer=tracer)
    sim = deployment.sim

    def client_proc(index, client):
        for i in range(requests):
            yield client.send_update(
                Operation(OpKind.SET, key=(index, i), value=i))
            yield config.client.think_time_ns

    deployment.open_all_sessions()
    for index, client in enumerate(deployment.clients):
        sim.spawn(client_proc(index, client), f"c{index}")
    if crash:
        injector = FailureInjector(sim)
        injector.crash_server_at(deployment.server, microseconds(200))
        injector.recover_server_at(deployment.server,
                                   microseconds(200) + milliseconds(2),
                                   deployment.pmnet_names)
    sim.run()
    return tracer


class TestCleanRuns:
    def test_normal_run_is_clean(self):
        tracer = _traced_run()
        checker = PersistenceChecker(tracer)
        assert checker.check() == []
        assert "clean" in checker.report()

    def test_crash_recovery_run_is_clean(self):
        tracer = _traced_run(crash=True)
        assert PersistenceChecker(tracer).check() == []

    @pytest.mark.parametrize("seed", [3, 7, 13])
    def test_clean_across_seeds(self, seed):
        tracer = _traced_run(seed=seed, crash=True)
        assert PersistenceChecker(tracer).check() == []


class TestViolationDetection:
    """Corrupt a real trace and verify each rule fires."""

    def _clean_trace(self):
        return _traced_run(clients=1, requests=5)

    def test_r1_ack_without_log(self):
        tracer = self._clean_trace()
        # Remove every update_logged record: all ACKs become orphans.
        tracer.records = [r for r in tracer.records
                          if r.event != "update_logged"]
        violations = PersistenceChecker(tracer).check()
        assert any(v.rule == "R1" for v in violations)

    def test_r2_completion_without_processing(self):
        tracer = self._clean_trace()
        tracer.records = [r for r in tracer.records
                          if r.event != "processed"]
        violations = PersistenceChecker(tracer).check()
        assert any(v.rule == "R2" for v in violations)

    def test_r2_skipped_when_not_quiesced(self):
        tracer = self._clean_trace()
        tracer.records = [r for r in tracer.records
                          if r.event != "processed"]
        checker = PersistenceChecker(tracer, expect_quiesced=False)
        assert not any(v.rule == "R2" for v in checker.check())

    def test_r3_invalidate_before_commit(self):
        tracer = self._clean_trace()
        tracer.records = [r for r in tracer.records
                          if r.event != "server_ack"]
        violations = PersistenceChecker(tracer).check()
        assert any(v.rule == "R3" for v in violations)

    def test_r4_double_processing(self):
        tracer = self._clean_trace()
        duplicate = next(r for r in tracer.records
                         if r.event == "processed")
        tracer.records.append(duplicate)
        violations = PersistenceChecker(tracer).check()
        assert any(v.rule == "R4" for v in violations)

    def test_r5_out_of_order_processing(self):
        tracer = self._clean_trace()
        processed = [r for r in tracer.records if r.event == "processed"]
        assert len(processed) >= 2
        # Swap the seq fields of the first two processed records.
        a, b = processed[0], processed[1]
        a_index = tracer.records.index(a)
        b_index = tracer.records.index(b)
        import dataclasses
        tracer.records[a_index] = dataclasses.replace(
            a, details={**a.details, "seq": b.details["seq"]})
        tracer.records[b_index] = dataclasses.replace(
            b, details={**b.details, "seq": a.details["seq"]})
        violations = PersistenceChecker(tracer).check()
        assert any(v.rule == "R5" for v in violations)

    def test_r6_pmnet_completion_without_any_log(self):
        tracer = self._clean_trace()
        tracer.records = [r for r in tracer.records
                          if r.event != "update_logged"]
        violations = PersistenceChecker(tracer).check()
        assert any(v.rule == "R6" for v in violations)

    def test_report_lists_violations(self):
        tracer = self._clean_trace()
        tracer.records = [r for r in tracer.records
                          if r.event != "update_logged"]
        report = PersistenceChecker(tracer).report()
        assert "FAILED" in report and "R1" in report

    def test_violation_str(self):
        violation = Violation("R9", "made up")
        assert "R9" in str(violation)
