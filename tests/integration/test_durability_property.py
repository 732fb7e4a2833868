"""Property-based end-to-end durability tests.

The paper's core correctness claim: once a client holds the required
acknowledgements (PMNet-ACKs or a server ACK), its update survives any
intermittent failure, and recovery applies each session's updates in
order, exactly once.  Hypothesis drives crash instants, seeds, client
counts, and packet loss.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.failure.injector import FailureInjector
from repro.net.link import Impairments
from repro.sim.clock import microseconds, milliseconds
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.hashmap import PMHashmap

#: Hypothesis sweeps dozens of full crash/recovery runs — minutes of
#: work, so tier 2 only.
pytestmark = pytest.mark.slow


def _run_crash_scenario(seed: int, crash_us: int, clients: int,
                        loss: float) -> dict:
    config = SystemConfig(seed=seed).with_clients(clients)
    handler = StructureHandler(PMHashmap())
    deployment = build(DeploymentSpec(placement="switch"), config,
                       handler=handler)
    if loss > 0:
        for link in deployment.topology.links:
            if link.forward.name == "pmnet1->server":
                link.forward.impairments = Impairments(loss_probability=loss)
    sim = deployment.sim
    injector = FailureInjector(sim)
    acknowledged = {}
    per_session_order = {}

    def client_proc(index, client):
        for request_index in range(25):
            key = (index, request_index)
            completion = yield client.send_update(
                Operation(OpKind.SET, key=key, value=request_index))
            if completion.result.ok:
                acknowledged[key] = request_index
                per_session_order.setdefault(index, []).append(request_index)
            yield config.client.think_time_ns

    deployment.open_all_sessions()
    processes = [sim.spawn(client_proc(i, c), f"c{i}")
                 for i, c in enumerate(deployment.clients)]
    injector.crash_server_at(deployment.server, microseconds(crash_us))
    recovery = injector.recover_server_at(
        deployment.server, microseconds(crash_us) + milliseconds(3),
        deployment.pmnet_names)
    sim.run()
    assert all(not p.alive for p in processes)
    assert recovery.triggered
    return {
        "acknowledged": acknowledged,
        "state": dict(handler.structure.items()),
        "applied": dict(deployment.server.persistent_applied),
        "order": per_session_order,
    }


class TestDurabilityUnderCrash:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50),
           crash_us=st.integers(min_value=50, max_value=900),
           clients=st.integers(min_value=1, max_value=4))
    def test_no_acknowledged_update_lost(self, seed, crash_us, clients):
        outcome = _run_crash_scenario(seed, crash_us, clients, loss=0.0)
        for key, value in outcome["acknowledged"].items():
            assert outcome["state"].get(key) == value, (
                f"acknowledged update {key} lost across crash at "
                f"{crash_us}us (seed {seed})")

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=30),
           crash_us=st.integers(min_value=100, max_value=600),
           loss=st.sampled_from([0.05, 0.15, 0.3]))
    def test_durability_with_packet_loss(self, seed, crash_us, loss):
        outcome = _run_crash_scenario(seed, crash_us, clients=2, loss=loss)
        for key, value in outcome["acknowledged"].items():
            assert outcome["state"].get(key) == value

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=30),
           crash_us=st.integers(min_value=50, max_value=900))
    def test_applied_horizon_is_prefix_consistent(self, seed, crash_us):
        """persistent_applied[sid] == N implies updates 0..N-1 are all in
        the store (the server never skips an update)."""
        outcome = _run_crash_scenario(seed, crash_us, clients=3, loss=0.0)
        # Key (client_index, request_index) maps 1:1 to seq request_index
        # because each client sends exactly one update per request.
        state = outcome["state"]
        sessions = sorted(outcome["applied"])
        for position, sid in enumerate(sessions):
            horizon = outcome["applied"][sid]
            client_index = position  # session ids allocated in order
            for seq in range(horizon):
                assert (client_index, seq) in state

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=30),
           crash_us=st.integers(min_value=50, max_value=900))
    def test_client_acks_arrive_in_request_order(self, seed, crash_us):
        outcome = _run_crash_scenario(seed, crash_us, clients=2, loss=0.0)
        for session_values in outcome["order"].values():
            assert session_values == sorted(session_values)
