"""Behavioral tests for the alternative designs (Figs 17, 18, 21)."""

import pytest

from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.driver import run_closed_loop
from repro.workloads.kv import OpKind, Operation


def _op_maker(ci, ri, rng):
    return Operation(OpKind.SET, key=(ci, ri), value=b"x"), 100


def _mean_update_us(deployment, requests=80):
    stats = run_closed_loop(deployment, _op_maker,
                            requests_per_client=requests, warmup_requests=8)
    return stats.update_latencies.mean() / 1000.0, stats


class TestClientSideLogging:
    def test_update_completes_locally(self):
        deployment = build(DeploymentSpec(placement="client-log"),
                           SystemConfig().with_clients(1))
        _mean, stats = _mean_update_us(deployment)
        assert stats.completions_by_via == {"client-log": 80}

    def test_local_latency_beats_pmnet(self):
        config = SystemConfig().with_clients(1)
        local_us, _s = _mean_update_us(
            build(DeploymentSpec(placement="client-log"), config))
        pmnet_us, _s = _mean_update_us(
            build(DeploymentSpec(placement="switch"), config))
        assert local_us < pmnet_us

    def test_requests_still_reach_server(self):
        deployment = build(DeploymentSpec(placement="client-log"),
                           SystemConfig().with_clients(1))
        _mean, _stats = _mean_update_us(deployment)
        assert int(deployment.server.processed) == 88  # incl. warmup

    def test_replication_drags_in_the_network(self):
        config = SystemConfig().with_clients(3)
        solo_us, _s = _mean_update_us(
            build(DeploymentSpec(placement="client-log"), config))
        repl_us, _s = _mean_update_us(
            build(DeploymentSpec(placement="client-log", chain_length=3),
                  config))
        assert repl_us > 3 * solo_us  # 10.4 -> 41.6 in the paper

    def test_replication_needs_enough_clients(self):
        # The client count lives in the SystemConfig, so build checks.
        with pytest.raises(ValueError, match="chain_length 3"):
            build(DeploymentSpec(placement="client-log", chain_length=3),
                  SystemConfig().with_clients(2))

    def test_reads_complete_via_server(self):
        deployment = build(DeploymentSpec(placement="client-log"),
                           SystemConfig().with_clients(1))

        def op_maker(ci, ri, rng):
            return Operation(OpKind.GET, key=ri), 100

        stats = run_closed_loop(deployment, op_maker, 20, 2)
        assert stats.completions_by_via == {"server": 20}


class TestServerSideLogging:
    def test_faster_than_baseline_slower_than_pmnet(self):
        config = SystemConfig().with_clients(1)
        base_us, _s = _mean_update_us(
            build(DeploymentSpec(placement="none"), config))
        slog_us, _s = _mean_update_us(
            build(DeploymentSpec(placement="server-log"), config))
        pmnet_us, _s = _mean_update_us(
            build(DeploymentSpec(placement="switch"), config))
        assert pmnet_us < slog_us < base_us

    def test_replication_roughly_doubles(self):
        config = SystemConfig().with_clients(1)
        solo_us, _s = _mean_update_us(
            build(DeploymentSpec(placement="server-log"), config))
        repl_us, _s = _mean_update_us(
            build(DeploymentSpec(placement="server-log", chain_length=3),
                  config))
        assert repl_us > 1.6 * solo_us

    def test_requests_are_still_processed(self):
        deployment = build(DeploymentSpec(placement="server-log"),
                           SystemConfig().with_clients(1))
        _mean, _stats = _mean_update_us(deployment)
        assert int(deployment.server.processed) == 88


class TestServerSideReplication:
    def test_slower_than_plain_baseline(self):
        config = SystemConfig().with_clients(1)
        base_us, _s = _mean_update_us(
            build(DeploymentSpec(placement="none"), config))
        repl_us, _s = _mean_update_us(
            build(DeploymentSpec(placement="server-replication",
                                 chain_length=3), config))
        assert repl_us > base_us + 20.0

    def test_replicas_receive_every_update(self):
        config = SystemConfig().with_clients(1)
        deployment = build(DeploymentSpec(placement="server-replication",
                                          chain_length=3), config)
        _mean, _stats = _mean_update_us(deployment, requests=40)
        replicas = [node for name, node in deployment.topology.nodes.items()
                    if name.startswith("replica")]
        assert len(replicas) == 2
        for replica in replicas:
            assert int(replica.endpoint.records_logged) == 48

    def test_single_replica_means_no_replication(self):
        config = SystemConfig().with_clients(1)
        deployment = build(DeploymentSpec(placement="server-replication",
                                          chain_length=1), config)
        _mean, stats = _mean_update_us(deployment, requests=20)
        assert stats.completions_by_via == {"server": 20}

    def test_zero_replicas_rejected(self):
        with pytest.raises(ValueError, match="chain_length"):
            build(DeploymentSpec(placement="server-replication",
                                 chain_length=0), SystemConfig())
