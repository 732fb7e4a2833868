"""Behavioral tests for the PMNet device's MAT pipeline.

Drives a minimal client-device-server deployment and inspects the
device's log, counters, and emitted packets for each packet type of
Sec IV-B1.
"""

import pytest

from repro.config import SystemConfig
from repro.core.mat import MATAction, classify
from repro.experiments.deploy import DeploymentSpec, build
from repro.net.packet import Frame, RawPayload
from repro.protocol.types import PacketType
from repro.workloads.kv import OpKind, Operation


def _one_client_deployment():
    return build(DeploymentSpec(placement="switch"),
                 SystemConfig().with_clients(1))


def _run_update(deployment, key="k", value="v"):
    client = deployment.clients[0]
    results = []

    def proc():
        completion = yield client.send_update(
            Operation(OpKind.SET, key=key, value=value))
        results.append(completion)

    deployment.open_all_sessions()
    deployment.sim.spawn(proc())
    deployment.sim.run()
    return results[0]


class TestClassification:
    def test_plain_frame_forwards(self):
        frame = Frame("a", "b", RawPayload(), 100, udp_port=9000)
        assert classify(frame) is MATAction.FORWARD_PLAIN

    def test_pmnet_port_with_raw_payload_is_plain(self):
        frame = Frame("a", "b", RawPayload(), 100, udp_port=51000)
        assert classify(frame) is MATAction.FORWARD_PLAIN


class TestUpdatePath:
    def test_update_is_logged_acked_and_forwarded(self):
        deployment = _one_client_deployment()
        completion = _run_update(deployment)
        device = deployment.devices[0]
        assert completion.result.ok
        assert completion.via == "pmnet"
        assert int(device.acks_sent) == 1
        assert int(device.log.logged) == 1
        # The server processed it and its ACK invalidated the entry.
        assert int(deployment.server.processed) == 1
        assert device.log.occupancy == 0

    def test_collision_forwards_without_ack(self):
        """A second packet with the same HashVal must bypass silently;
        the client still completes via the server."""
        deployment = _one_client_deployment()
        client = deployment.clients[0]
        device = deployment.devices[0]
        # Pre-occupy the hash the client's first packet will use.
        from repro.protocol.header import make_request_header
        from repro.protocol.packet import PMNetPacket
        deployment.open_all_sessions()
        future_hash = make_request_header(
            PacketType.UPDATE_REQ, client.session.session_id, 0).hash_val
        squatter = PMNetPacket(
            header=make_request_header(PacketType.UPDATE_REQ,
                                       client.session.session_id, 0),
            payload=None, payload_bytes=10, request_id=999_999,
            client="nobody", server="server")
        device.log.try_log(squatter, lambda e: None)

        results = []

        def proc():
            completion = yield client.send_update(
                Operation(OpKind.SET, key="k", value="v"))
            results.append(completion)

        deployment.sim.spawn(proc())
        deployment.sim.run()
        assert results[0].result.ok
        assert results[0].via == "server"  # no PMNet-ACK was possible
        assert int(device.log.bypassed_collision) >= 1
        assert future_hash == squatter.hash_val

    def test_bypass_request_is_never_logged(self):
        deployment = _one_client_deployment()
        client = deployment.clients[0]
        results = []

        def proc():
            completion = yield client.bypass(
                Operation(OpKind.GET, key="missing"))
            results.append(completion)

        deployment.open_all_sessions()
        deployment.sim.spawn(proc())
        deployment.sim.run()
        device = deployment.devices[0]
        assert int(device.log.logged) == 0
        assert results[0].via == "server"


class TestFailureSemantics:
    def test_failed_device_blackholes_and_client_retransmits(self):
        deployment = _one_client_deployment()
        device = deployment.devices[0]
        client = deployment.clients[0]
        device.fail()
        deployment.sim.schedule(400_000, device.recover)  # 0.4 ms outage
        completion = _run_update(deployment)
        assert completion.result.ok
        assert int(client.retransmissions) >= 1

    def test_device_crash_preserves_durable_entries(self):
        deployment = _one_client_deployment()
        device = deployment.devices[0]
        # Stop the server so entries stay in the log.
        deployment.server.crash()
        client = deployment.clients[0]

        def proc():
            yield client.send_update(Operation(OpKind.SET, key="k",
                                               value="v"))

        deployment.open_all_sessions()
        deployment.sim.spawn(proc())
        deployment.sim.run(until=300_000)
        assert device.log.durable_count == 1
        device.fail()
        assert device.log.durable_count == 1  # power-cut keeps PM


class TestModes:
    def test_invalid_mode_rejected(self):
        from repro.core.pmnet_device import PMNetDevice
        from repro.sim import Simulator
        with pytest.raises(ValueError):
            PMNetDevice(Simulator(), "x", SystemConfig(), mode="router")

    def test_nic_mode_builds_and_serves(self):
        deployment = build(DeploymentSpec(placement="nic"),
                           SystemConfig().with_clients(1))
        completion = _run_update(deployment)
        assert completion.via == "pmnet"
        assert deployment.devices[0].mode == "nic"
