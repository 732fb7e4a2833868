"""Tests for the driver plumbing and deployment builders."""

import pytest

from repro.config import SystemConfig
from repro.errors import ExperimentError
from repro.experiments.deploy import DeploymentSpec, build
from repro.host.handler import IdealHandler
from repro.experiments.driver import RunStats, run_closed_loop, run_sessions
from repro.host.client import Completion
from repro.workloads.kv import OpKind, Operation, Result


def _op_maker(ci, ri, rng):
    return Operation(OpKind.SET, key=(ci, ri), value=b"x"), 100


class TestDeployments:
    def test_baseline_has_no_devices(self):
        deployment = build(DeploymentSpec(placement="none"),
                           SystemConfig().with_clients(2))
        assert deployment.devices == []
        assert deployment.pmnet_names == []

    def test_pmnet_switch_names_devices(self):
        deployment = build(DeploymentSpec(placement="switch", chain_length=2),
                           SystemConfig().with_clients(2))
        assert deployment.pmnet_names == ["pmnet1", "pmnet2"]

    def test_client_count_matches_config(self):
        deployment = build(DeploymentSpec(placement="switch"),
                           SystemConfig().with_clients(5))
        assert len(deployment.clients) == 5

    def test_each_client_gets_unique_session(self):
        deployment = build(DeploymentSpec(placement="switch"),
                           SystemConfig().with_clients(4))
        deployment.open_all_sessions()
        ids = {client.session.session_id for client in deployment.clients}
        assert len(ids) == 4

    def test_nic_link_is_short(self):
        deployment = build(DeploymentSpec(placement="nic"),
                           SystemConfig().with_clients(1))
        nic_to_server = next(
            link for link in deployment.topology.links
            if link.forward.name == "pmnet-nic->server")
        assert nic_to_server.forward.profile.propagation_ns == 20

    def test_negative_nic_wire_rejected_at_build(self):
        # The NIC board trace is a per-link profile override: it must be
        # rejected by the spec, not when the first frame crosses it.
        with pytest.raises(ValueError, match="nic_wire_ns"):
            build(DeploymentSpec(placement="nic", nic_wire_ns=-3),
                  SystemConfig().with_clients(1))

    def test_negative_spine_propagation_rejected_at_build(self):
        with pytest.raises(ValueError, match="spine_propagation_ns"):
            build(DeploymentSpec(racks=2, devices_per_rack=1,
                                 chain_length=2, clients_per_rack=1,
                                 placement="switch",
                                 spine_propagation_ns=-5),
                  SystemConfig().with_clients(1),
                  handler_factory=lambda _server: IdealHandler())

    def test_every_node_reachable_from_clients(self):
        deployment = build(DeploymentSpec(placement="switch", chain_length=3),
                           SystemConfig().with_clients(3))
        for client in deployment.clients:
            path = deployment.topology.path(client.host.name, "server")
            assert path[0] == client.host.name
            assert path[-1] == "server"
            assert "pmnet1" in path and "pmnet3" in path


class TestDriver:
    def test_warmup_excluded_from_stats(self):
        deployment = build(DeploymentSpec(placement="switch"),
                           SystemConfig().with_clients(2))
        stats = run_closed_loop(deployment, _op_maker,
                                requests_per_client=20, warmup_requests=10)
        assert stats.requests == 40  # 2 clients x 20 measured

    def test_throughput_and_latency_populated(self):
        deployment = build(DeploymentSpec(placement="switch"),
                           SystemConfig().with_clients(2))
        stats = run_closed_loop(deployment, _op_maker, 30, 3)
        assert stats.ops_per_second() > 0
        assert stats.mean_latency_us() > 0
        assert stats.p99_latency_us() >= stats.mean_latency_us() * 0.5

    def test_update_and_read_latencies_separated(self):
        deployment = build(DeploymentSpec(placement="switch"),
                           SystemConfig().with_clients(1))

        def mixed(ci, ri, rng):
            kind = OpKind.SET if ri % 2 == 0 else OpKind.GET
            return Operation(kind, key=ri, value=b"x"), 100

        stats = run_closed_loop(deployment, mixed, 40, 0)
        assert stats.update_latencies.count == 20
        assert stats.read_latencies.count == 20
        # Updates complete at the switch, reads at the server.
        assert (stats.update_latencies.mean()
                < stats.read_latencies.mean())

    def test_sessions_api_think(self):
        deployment = build(DeploymentSpec(placement="switch"),
                           SystemConfig().with_clients(1))
        timestamps = []

        def session(index, api, rng):
            timestamps.append(deployment.sim.now)
            yield from api.think(5_000)
            timestamps.append(deployment.sim.now)
            yield from api.request(Operation(OpKind.SET, key=1, value=2),
                                   100)

        run_sessions(deployment, session)
        assert timestamps[1] - timestamps[0] == 5_000

    def test_unfinished_driver_raises(self):
        deployment = build(DeploymentSpec(placement="switch"),
                           SystemConfig().with_clients(1))

        def stuck(index, api, rng):
            yield deployment.sim.event("never")  # waits forever

        with pytest.raises(ExperimentError):
            run_sessions(deployment, stuck)

    def test_runstats_records_errors(self):
        stats = RunStats()
        op = Operation(OpKind.SET, key=1, value=2)
        stats.record(0, 1000, op, Completion(
            result=Result(ok=False, error="x"), via="server"))
        assert stats.errors == 1
