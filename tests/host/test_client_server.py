"""Behavioral tests for the Table I client/server libraries."""

import pytest

from repro.config import SystemConfig
from repro.core.replication import NO_PMNET, ReplicationPolicy
from repro.errors import SessionError
from repro.experiments.deploy import DeploymentSpec, build
from repro.net.link import Impairments
from repro.workloads.kv import OpKind, Operation


def _drive_one(deployment, op, bypass=False):
    client = deployment.clients[0]
    results = []

    def proc():
        if bypass:
            completion = yield client.bypass(op)
        else:
            completion = yield client.send_update(op)
        results.append(completion)

    deployment.open_all_sessions()
    deployment.sim.spawn(proc())
    deployment.sim.run()
    return results[0]


class TestSessions:
    def test_send_without_session_rejected(self):
        deployment = build(DeploymentSpec(placement="none"),
                           SystemConfig().with_clients(1))
        client = deployment.clients[0]
        with pytest.raises(SessionError):
            client.send_update(Operation(OpKind.SET, key=1, value=2))

    def test_double_start_rejected(self):
        deployment = build(DeploymentSpec(placement="none"),
                           SystemConfig().with_clients(1))
        client = deployment.clients[0]
        client.start_session()
        with pytest.raises(SessionError):
            client.start_session()

    def test_end_session_allows_restart(self):
        deployment = build(DeploymentSpec(placement="none"),
                           SystemConfig().with_clients(1))
        client = deployment.clients[0]
        client.start_session()
        client.end_session()
        client.start_session()  # fresh SessionID, no error


class TestBaselineCompletion:
    def test_update_completes_via_server(self):
        deployment = build(DeploymentSpec(placement="none"),
                           SystemConfig().with_clients(1))
        completion = _drive_one(deployment,
                                Operation(OpKind.SET, key="k", value="v"))
        assert completion.result.ok
        assert completion.via == "server"

    def test_read_gets_value_back(self):
        deployment = build(DeploymentSpec(placement="none"),
                           SystemConfig().with_clients(1))
        client = deployment.clients[0]
        results = []

        def proc():
            yield client.send_update(Operation(OpKind.SET, key="k",
                                               value="stored"))
            completion = yield client.bypass(Operation(OpKind.GET, key="k"))
            results.append(completion)

        deployment.open_all_sessions()
        deployment.sim.spawn(proc())
        deployment.sim.run()
        # The ideal handler doesn't store; this exercises the RESP path.
        assert results[0].via == "server"


class TestLossRecovery:
    def _lossy_deployment(self, loss=0.2, seed=3):
        config = SystemConfig(seed=seed).with_clients(1)
        deployment = build(DeploymentSpec(placement="switch"), config)
        # Impair the device->server hop: requests vanish after logging.
        for link in deployment.topology.links:
            if (link.forward.name == "pmnet1->server"):
                link.forward.impairments = Impairments(
                    loss_probability=loss)
        return deployment

    def test_updates_survive_packet_loss(self):
        deployment = self._lossy_deployment()
        client = deployment.clients[0]
        completions = []

        def proc():
            for i in range(30):
                completion = yield client.send_update(
                    Operation(OpKind.SET, key=i, value=i))
                completions.append(completion)

        deployment.open_all_sessions()
        deployment.sim.spawn(proc())
        deployment.sim.run()
        assert len(completions) == 30
        assert all(c.result.ok for c in completions)
        # Every update must eventually be processed exactly once.
        assert int(deployment.server.processed) == 30

    def test_server_requests_retransmission_on_gap(self):
        deployment = self._lossy_deployment(loss=0.5, seed=11)
        client = deployment.clients[0]

        def proc():
            for i in range(20):
                yield client.send_update(Operation(OpKind.SET, key=i,
                                                   value=i))

        deployment.open_all_sessions()
        deployment.sim.spawn(proc())
        deployment.sim.run()
        server = deployment.server
        device = deployment.devices[0]
        assert int(server.processed) == 20
        # Either the server's Retrans was served from the log, or the
        # loss pattern let the reorder buffer fill naturally; with 50%
        # loss the gap machinery must have fired.
        assert int(server.retrans_sent) + int(device.retrans_served) > 0


class TestReplicationPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ReplicationPolicy(acks_required=-1)

    def test_no_pmnet_waits_for_server(self):
        deployment = build(DeploymentSpec(placement="switch"),
                           SystemConfig().with_clients(1))
        # Force the baseline policy even though a device is present.
        deployment.clients[0].policy = NO_PMNET
        completion = _drive_one(deployment,
                                Operation(OpKind.SET, key="k", value="v"))
        assert completion.via == "server"

    def test_two_way_requires_both_acks(self):
        config = SystemConfig().with_clients(1)
        deployment = build(DeploymentSpec(placement="switch", chain_length=2),
                           config)
        completion = _drive_one(deployment,
                                Operation(OpKind.SET, key="k", value="v"))
        assert completion.via == "pmnet"
        # Both devices logged it.
        for device in deployment.devices:
            assert int(device.acks_sent) == 1

    def test_dead_second_device_falls_back_to_server(self):
        config = SystemConfig().with_clients(1)
        deployment = build(DeploymentSpec(placement="switch", chain_length=2),
                           config)
        # The second device never logs (fail its PM write queue by
        # wiping capacity): simulate with a zero-size... simpler: mark
        # its log full by shrinking entries to 0 via monkeypatch of the
        # config is frozen — instead pre-fill to capacity.
        doomed = deployment.devices[1]
        doomed.log.config = doomed.log.config.__class__(num_entries=0)
        completion = _drive_one(deployment,
                                Operation(OpKind.SET, key="k", value="v"))
        assert completion.result.ok
        assert completion.via == "server"


class TestFragmentedRequests:
    def test_large_update_completes_on_all_fragment_acks(self):
        deployment = build(DeploymentSpec(placement="switch"),
                           SystemConfig().with_clients(1))
        client = deployment.clients[0]
        results = []

        def proc():
            completion = yield client.send_update(
                Operation(OpKind.SET, key="big", value="x"),
                payload_bytes=5000)
            results.append(completion)

        deployment.open_all_sessions()
        deployment.sim.spawn(proc())
        deployment.sim.run()
        device = deployment.devices[0]
        assert results[0].result.ok
        assert results[0].via == "pmnet"
        assert int(device.acks_sent) == 4  # 5000 B / 1443 B budget
        assert int(deployment.server.processed) == 1  # one reassembled op
