"""Behavioral tests for the alternative designs (Figs 17, 18, 21)."""

import pytest

from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.driver import run_closed_loop
from repro.net.link import Impairments
from repro.sim.clock import microseconds, milliseconds
from repro.sim.trace import Tracer
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


class TestReplicaWaitPowerCut:
    @pytest.mark.parametrize("placement", ["server-log",
                                           "server-replication"])
    def test_no_ack_from_a_wait_the_power_cut_lost(self, placement):
        """Cut the server's power the instant the replica ACKs and boot
        the machine 1 ns later: the ACK lands on a host that is up but
        whose application is not, and the record it answers was lost
        with the crash, so the server must not acknowledge the client."""
        tracer = Tracer(enabled=True)
        deployment = build(DeploymentSpec(placement=placement,
                                          chain_length=2),
                           SystemConfig().with_clients(1), tracer=tracer)
        sim, server = deployment.sim, deployment.server
        replica = deployment.topology.nodes["replica1"].endpoint
        acknowledge = replica._acknowledge

        def acknowledge_then_cut_power(*args):
            acknowledge(*args)
            server.crash()
            sim.schedule(1, server.machine_boot)

        replica._acknowledge = acknowledge_then_cut_power
        client = deployment.clients[0]
        client.start_session()

        def one_update():
            yield client.send_update(
                Operation(OpKind.SET, key="k", value=b"x"), 100)

        sim.spawn(one_update())
        sim.run(until=milliseconds(1))
        assert int(replica.records_logged) == 1
        assert tracer.count(server.host.name, "crash") == 1
        assert not server.app_ready
        assert tracer.count(server.host.name, "server_ack") == 0


def _start_one_update(deployment):
    """Spawn one update from the first client; the list its completion
    lands in."""
    client = deployment.clients[0]
    client.start_session()
    done = []

    def one_update():
        done.append((yield client.send_update(
            Operation(OpKind.SET, key="k", value=b"x"), 100)))

    deployment.sim.spawn(one_update())
    return done


def _channel(deployment, name):
    return next(link.forward for link in deployment.topology.links
                if link.forward.name == name)


class TestReplicaWaitCountsReplicas:
    @pytest.mark.parametrize("placement,answering,silent", [
        ("client-log", "client1", "client2"),
        ("server-log", "replica1", "replica2"),
        ("server-replication", "replica1", "replica2"),
    ])
    def test_a_duplicated_ack_does_not_stand_in_for_a_missing_copy(
            self, placement, answering, silent):
        """One copy holder answers twice (its uplink duplicates every
        frame) and the other is down: two ACKs arrive but one copy is
        missing, so the client must not be acknowledged."""
        deployment = build(DeploymentSpec(placement=placement,
                                          chain_length=3),
                           SystemConfig().with_clients(3))
        _channel(deployment, f"{answering}->tor").impairments = \
            Impairments(duplicate_probability=1.0)
        deployment.topology.nodes[silent].fail()
        done = _start_one_update(deployment)
        deployment.sim.run(until=microseconds(900))
        assert done == []


class TestMakeupAckWaitsOnReplicas:
    @pytest.mark.parametrize("placement", ["server-log",
                                           "server-replication"])
    def test_a_retransmission_is_acked_only_once_every_replica_holds_it(
            self, placement):
        """With a replica down, the client's retransmission falls below
        the server's applied horizon; its make-up ACK must still wait on
        every replica, so the update completes only once the replica is
        back."""
        deployment = build(DeploymentSpec(placement=placement,
                                          chain_length=3),
                           SystemConfig().with_clients(1))
        replica = deployment.topology.nodes["replica2"]
        replica.fail()
        done = _start_one_update(deployment)
        deployment.sim.run(until=milliseconds(10))
        assert done == []
        assert int(deployment.server.processed) == 1
        replica.recover()
        deployment.sim.run(until=milliseconds(20))
        assert [completion.via for completion in done] == ["server"]
