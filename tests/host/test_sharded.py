"""Tests for sharded multi-server deployments."""

import pytest

from repro.config import SystemConfig
from repro.errors import SessionError
from repro.experiments.deploy import DeploymentSpec, build
from repro.failure.injector import FailureInjector
from repro.sim.clock import microseconds, milliseconds
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.hashmap import PMHashmap


def _sharded(num_servers=3, clients=2):
    config = SystemConfig().with_clients(clients)
    handlers = []

    def factory():
        handler = StructureHandler(PMHashmap())
        handlers.append(handler)
        return handler

    deployment = build(DeploymentSpec(placement="switch",
                                      servers_per_rack=num_servers), config,
                       handler_factory=factory)
    return deployment, handlers


def _write_keys(deployment, keys_per_client=30):
    written = {}

    def client_proc(index, client):
        for i in range(keys_per_client):
            key = f"key-{index}-{i}"
            completion = yield client.send_update(
                Operation(OpKind.SET, key=key, value=i))
            if completion.result.ok:
                written[key] = i

    deployment.open_all_sessions()
    for index, client in enumerate(deployment.clients):
        deployment.sim.spawn(client_proc(index, client), f"c{index}")
    return written


class TestSharding:
    def test_keys_land_on_their_owning_shard(self):
        deployment, handlers = _sharded()
        written = _write_keys(deployment)
        deployment.sim.run()
        client = deployment.clients[0]
        for key, value in written.items():
            shard = client.shard_index(key)
            store = dict(handlers[shard].structure.items())
            assert store.get(key) == value
            # ...and on no other shard.
            for other, handler in enumerate(handlers):
                if other != shard:
                    assert key not in dict(handler.structure.items())

    def test_placement_is_deterministic(self):
        a, _h = _sharded()
        b, _h = _sharded()
        keys = [f"key-{i}" for i in range(50)] + [(1, 2), 99, ("x", 3)]
        for key in keys:
            assert (a.clients[0].shard_index(key)
                    == b.clients[0].shard_index(key))

    def test_all_shards_get_traffic(self):
        deployment, handlers = _sharded(num_servers=3)
        _write_keys(deployment, keys_per_client=60)
        deployment.sim.run()
        sizes = [len(handler.structure) for handler in handlers]
        assert all(size > 0 for size in sizes)

    def test_updates_complete_via_pmnet(self):
        deployment, _handlers = _sharded()
        written = _write_keys(deployment)
        deployment.sim.run()
        assert len(written) == 60
        device = deployment.devices[0]
        assert int(device.log.logged) == 60
        assert device.log.occupancy == 0

    def test_empty_server_list_rejected(self):
        from repro.host.sharded import ShardedClient
        deployment, _h = _sharded()
        with pytest.raises(SessionError):
            ShardedClient(deployment.sim, deployment.clients[0].host,
                          deployment.config, [], None)

    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError):
            build(DeploymentSpec(placement="switch", servers_per_rack=0),
                  SystemConfig())


class TestRingClientIndex:
    """The shard-lookup hot path: ``shard_index`` must stay a dict hit
    (no linear scan) while agreeing with ``shard_for`` and the shared
    placement view — including after a live migration override."""

    def _ring_deployment(self):
        from repro.experiments.deploy import DeploymentSpec, build
        spec = DeploymentSpec(racks=2, devices_per_rack=2,
                              servers_per_rack=2, chain_length=2,
                              clients_per_rack=1, placement="switch")
        return build(spec, SystemConfig(seed=6))

    def test_index_and_shard_for_agree_with_placement(self):
        deployment = self._ring_deployment()
        client = deployment.clients[0]
        keys = [f"key-{i}" for i in range(400)] + [(1, 2), 99, ("x", 3)]
        for key in keys:
            owner = client.placement.lookup(key)
            index = client.shard_index(key)
            assert client.servers[index] == owner
            assert client.shard_for(key) is client._by_server[owner]
        # Index map covers exactly the immutable member list.
        assert set(client._index_by_server) == set(client.servers)

    def test_index_follows_migration_overrides(self):
        deployment = self._ring_deployment()
        client = deployment.clients[0]
        placement = deployment.fabric.placement
        source = deployment.servers[0].host.name
        target = deployment.servers[-1].host.name
        keys = [f"key-{i}" for i in range(400)]
        before = {key: client.shard_index(key) for key in keys}
        placement.assign(source, target)
        target_index = client._index_by_server[target]
        for key in keys:
            if placement.ring_owner(key) == source:
                assert client.shard_index(key) == target_index
                assert client.shard_for(key) is client._by_server[target]
            else:
                assert client.shard_index(key) == before[key]

    def test_index_map_matches_member_order(self):
        deployment = self._ring_deployment()
        for client in deployment.clients:
            for index, server in enumerate(client.servers):
                assert client._index_by_server[server] == index


class TestShardRecovery:
    def test_crashed_shard_recovers_only_its_entries(self):
        """One shard dies; recovery replays exactly that shard's log
        entries — the others' entries stay for their own servers."""
        deployment, handlers = _sharded(num_servers=2, clients=2)
        sim = deployment.sim
        injector = FailureInjector(sim)
        victim = deployment.servers[1]
        # Crash shard 1 early; shard 0 keeps processing.
        injector.crash_server_at(victim, microseconds(150))
        written = _write_keys(deployment, keys_per_client=25)
        recovery = injector.recover_server_at(victim, milliseconds(2),
                                              deployment.pmnet_names)
        sim.run()
        assert recovery.triggered
        client = deployment.clients[0]
        for key, value in written.items():
            shard = client.shard_index(key)
            assert dict(handlers[shard].structure.items()).get(key) == value
        # The replay went to the victim only: resends match the entries
        # addressed to it.
        engine = deployment.devices[0].resend_engine
        assert int(engine.resends) > 0
        victim_keys = sum(1 for key in written
                          if client.shard_index(key) == 1)
        assert int(engine.resends) <= victim_keys + 5  # + in-flight slack

    def test_surviving_shard_unaffected_by_peer_crash(self):
        deployment, handlers = _sharded(num_servers=2, clients=1)
        sim = deployment.sim
        injector = FailureInjector(sim)
        injector.crash_server_at(deployment.servers[1], microseconds(100))
        injector.recover_server_at(deployment.servers[1], milliseconds(2),
                                   deployment.pmnet_names)
        written = _write_keys(deployment, keys_per_client=20)
        sim.run()
        client = deployment.clients[0]
        shard0 = dict(handlers[0].structure.items())
        for key, value in written.items():
            if client.shard_index(key) == 0:
                assert shard0.get(key) == value
