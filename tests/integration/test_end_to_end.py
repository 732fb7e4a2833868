"""Full-system integration tests: the headline behaviours in one place."""

import pytest

from repro.config import SystemConfig, baseline_rtt_estimate, pmnet_rtt_estimate
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.driver import run_closed_loop, run_sessions
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.btree import PMBTree
from repro.workloads.ycsb import YCSBConfig, make_op_maker
from repro.workloads import tpcc


def _set_maker(ci, ri, rng):
    return Operation(OpKind.SET, key=(ci, ri), value=b"x"), 100


class TestHeadlineLatency:
    def test_pmnet_beats_baseline_by_2x_or_more(self):
        config = SystemConfig().with_clients(2)
        base = run_closed_loop(
            build(DeploymentSpec(placement="none"), config),
            _set_maker, 60, 6)
        pmnet = run_closed_loop(
            build(DeploymentSpec(placement="switch"), config),
            _set_maker, 60, 6)
        ratio = base.update_latencies.mean() / pmnet.update_latencies.mean()
        assert ratio > 2.0

    def test_simulated_latency_matches_analytic_estimate(self):
        """The simulator and the closed-form stage model must agree to
        within jitter (a few percent)."""
        config = SystemConfig().with_clients(1)
        base = run_closed_loop(
            build(DeploymentSpec(placement="none"), config),
            _set_maker, 150, 15)
        predicted = baseline_rtt_estimate(config)
        assert base.update_latencies.mean() == pytest.approx(
            predicted, rel=0.10)
        pmnet = run_closed_loop(
            build(DeploymentSpec(placement="switch"), config),
            _set_maker, 150, 15)
        assert pmnet.update_latencies.mean() == pytest.approx(
            pmnet_rtt_estimate(config), rel=0.10)

    def test_switch_and_nic_within_a_microsecond(self):
        config = SystemConfig().with_clients(1)
        switch = run_closed_loop(
            build(DeploymentSpec(placement="switch"), config),
            _set_maker, 100, 10)
        nic = run_closed_loop(
            build(DeploymentSpec(placement="nic"), config),
            _set_maker, 100, 10)
        gap = abs(switch.update_latencies.mean()
                  - nic.update_latencies.mean())
        assert gap < 1_000  # < 1 us (Sec VI-B1)


class TestRealWorkloadIntegration:
    def test_btree_store_consistent_after_run(self):
        config = SystemConfig().with_clients(4)
        handler = StructureHandler(PMBTree())
        deployment = build(DeploymentSpec(placement="switch"), config,
                           handler=handler)
        op_maker = make_op_maker(YCSBConfig(update_ratio=0.7,
                                            population=200))
        stats = run_closed_loop(deployment, op_maker, 50, 5)
        assert stats.errors == 0
        handler.structure.check_invariants()
        assert int(deployment.server.processed) >= 4 * 50

    def test_tpcc_locks_enforce_mutual_exclusion(self):
        config = SystemConfig().with_clients(4)
        handler = tpcc.TPCCHandler(warehouses=1)
        deployment = build(DeploymentSpec(placement="switch"), config,
                           handler=handler)

        def session(index, api, rng):
            return tpcc.session(index, api, rng, transactions=30,
                                update_ratio=1.0, payload_bytes=100,
                                warehouses=1)

        stats = run_sessions(deployment, session)
        server = deployment.server
        # Every acquired lock was released: nothing held at the end.
        assert server.locks._holders == {}
        assert server.locks.acquisitions > 0
        assert handler.new_orders + handler.payments > 0

    def test_lock_requests_bypass_the_log(self):
        config = SystemConfig().with_clients(2)
        deployment = build(DeploymentSpec(placement="switch"), config,
                           handler=tpcc.TPCCHandler(warehouses=1))

        def session(index, api, rng):
            return tpcc.session(index, api, rng, transactions=40,
                                update_ratio=1.0, payload_bytes=100,
                                warehouses=1)

        run_sessions(deployment, session)
        device = deployment.devices[0]
        server = deployment.server
        # Locks were acquired, yet only update-reqs were ever logged:
        # logged count equals processed updates (PMNet never logged a
        # lock/unlock bypass).
        assert server.locks.acquisitions > 0
        assert int(device.log.logged) < int(server.processed)


class TestStress:
    def test_many_clients_all_complete(self):
        config = SystemConfig().with_clients(32)
        deployment = build(DeploymentSpec(placement="switch"), config)
        stats = run_closed_loop(deployment, _set_maker, 30, 3)
        assert stats.requests == 32 * 30
        assert stats.errors == 0

    def test_throughput_scales_with_clients(self):
        small = run_closed_loop(
            build(DeploymentSpec(placement="switch"),
                  SystemConfig().with_clients(2)),
            _set_maker, 60, 6)
        large = run_closed_loop(
            build(DeploymentSpec(placement="switch"),
                  SystemConfig().with_clients(16)),
            _set_maker, 60, 6)
        assert large.ops_per_second() > 4 * small.ops_per_second()
