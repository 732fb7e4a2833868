"""End-to-end tests of cross-rack chain replication on the fabric.

The NetChain-style generalization of the paper's Sec IV-B1 early ACK:
a write enters its shard's chain at the head, is persisted member by
member across the spine, and the *tail* — the home rack's primary
device — sends the PMNET_ACK.  These tests pin the protocol's visible
guarantees on a real 2-rack fabric:

* only chain tails ever ACK clients;
* the SERVER_ACK-carried invalidation walks the whole chain, so every
  member's log drains once the run quiesces;
* an acknowledged write survives a power-cut of the head, a middle
  member, the tail, or the shard server itself (the durability oracle);
* crash recovery is pinned: acknowledged writes, recovered state and
  the end-of-run clock.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.failure.injector import FailureInjector
from repro.sim.clock import microseconds, milliseconds
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.hashmap import PMHashmap

from tests.conftest import fingerprint

#: 2 racks x 2 devices, one shard server per rack, chain of 3: every
#: chain crosses the spine and has a head, a middle, and a tail.
FABRIC = DeploymentSpec(racks=2, devices_per_rack=2, servers_per_rack=1,
                        chain_length=3, clients_per_rack=1,
                        placement="switch")

REQUESTS_PER_CLIENT = 20


def _run_fabric(crash: str = "none", seed: int = 7) -> dict:
    """Drive the 2-rack fabric, optionally power-cutting one component.

    ``crash`` selects the victim along shard 0's chain: ``"head"``,
    ``"mid"``, ``"tail"`` (device power cuts with recovery), or
    ``"server"`` (shard server power cut + chain-replay recovery).
    """
    config = SystemConfig(seed=seed)
    handlers = []

    def handler_factory():
        handler = StructureHandler(PMHashmap())
        handlers.append(handler)
        return handler

    deployment = build(FABRIC, config, handler_factory=handler_factory)
    sim = deployment.sim
    acknowledged = {}

    def client_proc(index, client):
        for request_index in range(REQUESTS_PER_CLIENT):
            key = (index, request_index)
            completion = yield client.send_update(
                Operation(OpKind.SET, key=key, value=request_index))
            if completion.result.ok:
                acknowledged[key] = request_index
            yield config.client.think_time_ns

    deployment.open_all_sessions()
    processes = [sim.spawn(client_proc(i, c), f"c{i}")
                 for i, c in enumerate(deployment.clients)]

    injector = FailureInjector(sim)
    target_server = deployment.server.host.name
    chain = deployment.chains[target_server]
    if crash in ("head", "mid", "tail"):
        victim_name = chain[{"head": 0, "mid": 1, "tail": -1}[crash]]
        victim = next(device for device in deployment.devices
                      if device.name == victim_name)
        record = injector.crash_device_at(victim, microseconds(150))
        injector.recover_device_at(
            victim, microseconds(150) + milliseconds(2), record)
    elif crash == "server":
        injector.crash_server_at(deployment.server, microseconds(150))
        injector.recover_server_at(
            deployment.server, microseconds(150) + milliseconds(3),
            deployment.recovery_devices(target_server))
    elif crash != "none":  # pragma: no cover - test bug guard
        raise ValueError(crash)

    sim.run()
    assert all(not process.alive for process in processes)

    merged_state = {}
    for handler in handlers:
        merged_state.update(handler.structure.items())
    return {
        "deployment": deployment,
        "acknowledged": acknowledged,
        "state": merged_state,
        "final_now": sim.now,
        "executed_events": sim.executed_events,
    }


class TestChainProtocol:
    def test_chains_end_at_home_primary_and_cross_racks(self):
        outcome = _run_fabric()
        deployment = outcome["deployment"]
        fabric = deployment.fabric
        for server, chain in deployment.chains.items():
            assert len(chain) == FABRIC.chain_length
            assert len(set(chain)) == len(chain)
            home = fabric.rack_of_server(server)
            assert chain[-1] == fabric.racks[home].primary
            member_racks = {fabric.rack_of_device(name) for name in chain}
            assert len(member_racks) > 1, (
                f"chain {chain} never leaves rack {home}")

    def test_only_tails_ack_clients(self):
        outcome = _run_fabric()
        deployment = outcome["deployment"]
        tails = {chain[-1] for chain in deployment.chains.values()}
        for device in deployment.devices:
            if device.name in tails:
                assert device.acks_sent.value > 0, (
                    f"tail {device.name} never acknowledged a write")
            else:
                assert device.acks_sent.value == 0, (
                    f"non-tail {device.name} sent "
                    f"{device.acks_sent.value} ACKs")

    def test_every_write_completes_and_persists(self):
        outcome = _run_fabric()
        expected = len(outcome["deployment"].clients) * REQUESTS_PER_CLIENT
        assert len(outcome["acknowledged"]) == expected
        for key, value in outcome["acknowledged"].items():
            assert outcome["state"].get(key) == value

    def test_invalidation_walks_the_whole_chain(self):
        """Once quiescent, the SERVER_ACK-carried invalidations have
        drained every member's log — not just the tail's."""
        outcome = _run_fabric()
        for device in outcome["deployment"].devices:
            assert device.log.occupancy == 0, (
                f"{device.name} still holds {device.log.occupancy} "
                "log entries after quiescence")


class TestChainDurability:
    @pytest.mark.parametrize("crash", ["head", "mid", "tail", "server"])
    def test_acked_writes_survive_crashes(self, crash):
        outcome = _run_fabric(crash=crash)
        assert outcome["acknowledged"], "scenario produced no ACKed writes"
        for key, value in outcome["acknowledged"].items():
            assert outcome["state"].get(key) == value, (
                f"ACKed write {key} lost across {crash} power cut")

    #: crash -> (acknowledged writes, recovered state) fingerprints and
    #: the end-of-run clock.
    RECOVERY_PINS = {
        "head": ("aea9124d4f935d71", "aea9124d4f935d71", 5_150_000),
        "mid": ("aea9124d4f935d71", "aea9124d4f935d71", 4_510_570),
        "tail": ("aea9124d4f935d71", "aea9124d4f935d71", 5_150_000),
        "server": ("aea9124d4f935d71", "aea9124d4f935d71", 154_713_196),
    }

    # The test id predates the single request path (it compared the
    # retired fold levels); the pins are the values both levels gave.
    @pytest.mark.parametrize("crash", ["head", "mid", "tail", "server"])
    def test_crash_recovery_is_fold_identical(self, crash):
        outcome = _run_fabric(crash=crash)
        assert (fingerprint(sorted(outcome["acknowledged"].items())),
                fingerprint(sorted(outcome["state"].items())),
                outcome["final_now"]) == self.RECOVERY_PINS[crash]


class TestDeviceReplacement:
    def test_replacement_keeps_chain_membership_valid(self):
        """``replace_device_at`` wipes the board in place, so every
        chain's member names — and the routing tables they rely on —
        stay valid, and the acked data survives on the other members."""
        config = SystemConfig(seed=11)
        handlers = []

        def handler_factory():
            handler = StructureHandler(PMHashmap())
            handlers.append(handler)
            return handler

        deployment = build(FABRIC, config, handler_factory=handler_factory)
        sim = deployment.sim
        target_server = deployment.server.host.name
        chain_before = deployment.chains[target_server]
        head = next(device for device in deployment.devices
                    if device.name == chain_before[0])
        acknowledged = {}

        def client_proc(index, client):
            for request_index in range(REQUESTS_PER_CLIENT):
                key = (index, request_index)
                completion = yield client.send_update(
                    Operation(OpKind.SET, key=key, value=request_index))
                if completion.result.ok:
                    acknowledged[key] = request_index
                yield config.client.think_time_ns

        deployment.open_all_sessions()
        for index, client in enumerate(deployment.clients):
            sim.spawn(client_proc(index, client), f"c{index}")
        injector = FailureInjector(sim)
        record = injector.kill_device_permanently_at(head, microseconds(150))
        injector.replace_device_at(head, microseconds(150) + milliseconds(2),
                                   record)
        sim.run()

        assert deployment.chains[target_server] == chain_before
        assert head.log.occupancy == 0  # the replacement board is blank
        merged_state = {}
        for handler in handlers:
            merged_state.update(handler.structure.items())
        assert acknowledged
        for key, value in acknowledged.items():
            assert merged_state.get(key) == value
