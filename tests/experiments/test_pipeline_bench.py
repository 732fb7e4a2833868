"""Exact event counts and latency samples of the Fig 16 stress run at
both fold levels, of the flow-level loadgen leg, and the exact shape of
a small fabric-chain run.

The stress run is the ``pmnet-switch`` point of Fig 16 (32 clients x 20
1000 B updates, seed 0), the run ``pmnet-repro profile`` reports.  Event
counts are deterministic, so they are pinned exactly: any change to
what a level folds — or to the timeline it folds — moves them.  Folding
must not move a single latency sample, and neither may recording
lifecycle spans.

The loadgen leg drives >= 10^4 modeled closed-loop users through the
flow-level generator under whole-request folding; its event count and
sample digest are pinned the same way.

The fabric-chain pins do the same for the repo benchmark's multi-rack
workload (``bench/workloads.py``): two racks under one spine, chain
length 3, a closed loop of all updates, at the benchmark's smoke size.
A single-rack pin cannot see a change to the fabric model — switch
forwarding, chain store-and-forward, the bound egress channels — so
these counts are what keeps a hop rewrite honest.  The benchmark's
other three workloads (``rack-update``, ``rack-read-cache``,
``fabric-failover``) are pinned the same way at a small budget: the
sample digest, the completed count and the executed events per level.

Two of those shapes are also drained twice, once with ``step()`` and
once with ``run()``: the stepped drain is the benchmark's traced round,
and it must report the same samples, events and re-sequences.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import pytest

from repro.config import SystemConfig
from repro.control.balancer import FailoverPolicy, attach_control_plane
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.fig16_stress import stress
from repro.failure.injector import FailureInjector
from repro.net.switch import Switch
from repro.obs.context import Observability
from repro.protocol.packet import reset_request_ids
from repro.sim.clock import microseconds
from repro.workloads.handlers import StructureHandler
from repro.workloads.loadgen import (FlowLoadGenerator, LoadGenConfig,
                                     run_loadgen)
from repro.workloads.pmdk import PMBTree

from tests.conftest import FOLD_LEVELS, fold

#: ``executed_events`` of the 32-client x 20-request seed-0 run.
EXACT_EVENTS = {"none": 30453, "whole": 25081}


@lru_cache(maxsize=None)
def _stress_run(level: str, spans: bool) -> Tuple[int, Tuple[float, ...]]:
    """(executed events, update latency samples) of the stress run."""
    with fold(level):
        deployment, stats = stress(
            "pmnet-switch", SystemConfig(seed=0), 32, 20,
            obs=Observability(spans=True) if spans else None)
    return (deployment.sim.executed_events,
            tuple(stats.update_latencies.samples))


@pytest.mark.parametrize("fold, events", sorted(EXACT_EVENTS.items()))
def test_executed_events_are_exact(fold, events):
    assert _stress_run(fold, False)[0] == events


def test_latency_samples_are_identical_across_fold_levels():
    samples = _stress_run("none", False)[1]
    assert len(samples) == 32 * 20
    assert _stress_run("whole", False)[1] == samples


@pytest.mark.parametrize("level", sorted(EXACT_EVENTS))
def test_spans_move_no_event_and_no_sample(level):
    """Recording lifecycle spans adds no event and moves no latency."""
    assert _stress_run(level, True) == (EXACT_EVENTS[level],
                                        _stress_run("none", False)[1])


def test_loadgen_leg_is_exact():
    """10^4 modeled users, 12,000 completions at 30.84 events each."""
    with fold("whole"):
        deployment = build(DeploymentSpec(placement="switch"),
                           SystemConfig(seed=0).with_payload(1000))
    # window=8 keeps total in-flight at 512 (64 shards), under the ~1.2k
    # frames whose queueing delay would cross the 1 ms client timeout.
    load = LoadGenConfig(mode="closed", users=10_000,
                         total_requests=12_000, window=8)
    result = run_loadgen(deployment, load)
    assert (result.modeled_users, result.completed,
            deployment.sim.executed_events, result.digest()) == (
        10_000, 12_000, 370_062, "f1edbf2c742b1da8")


#: The benchmark's ``fabric-chain`` deployment and closed loop.
FABRIC_CHAIN = DeploymentSpec(racks=2, spines=1, devices_per_rack=2,
                              servers_per_rack=2, chain_length=3,
                              clients_per_rack=2, placement="switch")
FABRIC_CHAIN_LOAD = LoadGenConfig(mode="closed", users=12_000,
                                  total_requests=375, window=16,
                                  update_ratio=1.0, payload_bytes=100,
                                  zipf_theta=0.9, population=10_000)

#: Sim seed 3 at each fold level.  Folding changes only the event and
#: re-sequencing counts: frames, switch forwards and the latency
#: samples are the same at both levels.
FABRIC_CHAIN_EXACT = {
    "none": dict(executed_events=33864, resequences=0, forwarded=5245,
                 folded_sends=0, delivered=8620, digest="156a71247eb12cd1"),
    "whole": dict(executed_events=29692, resequences=3813, forwarded=5245,
                  folded_sends=0, delivered=8620,
                  digest="156a71247eb12cd1"),
}


def _fabric_chain_shape(level: str) -> dict:
    with fold(level):
        deployment, engine = _prepare_shape(FABRIC_CHAIN, None, False,
                                            FABRIC_CHAIN_LOAD)
    deployment.open_all_sessions()
    engine.start()
    deployment.sim.run()
    result = engine.result()
    assert result.completed == FABRIC_CHAIN_LOAD.total_requests
    channels = [channel for link in deployment.topology.links
                for channel in (link.forward, link.backward)]
    return dict(
        executed_events=deployment.sim.executed_events,
        resequences=deployment.sim.kernel_stats()["resequences"],
        forwarded=sum(int(node.forwarded)
                      for node in deployment.topology.nodes.values()
                      if isinstance(node, Switch)),
        folded_sends=sum(int(channel.folded_sends) for channel in channels),
        delivered=sum(int(channel.delivered) for channel in channels),
        digest=result.digest())


@pytest.mark.parametrize("level", sorted(FABRIC_CHAIN_EXACT))
def test_fabric_chain_shape_is_exact(level):
    assert _fabric_chain_shape(level) == FABRIC_CHAIN_EXACT[level]


#: The benchmark's other workloads: ``(spec, client hosts, btree
#: handler, failover, closed loop)``.  Budgets are small (the failover
#: loop needs 2,400 requests to reach past the reboot at 300 us).
BENCH_SHAPES = {
    "rack-update": (
        DeploymentSpec(placement="switch"), 8, False, False,
        LoadGenConfig(mode="closed", users=16_000, total_requests=375,
                      window=16, update_ratio=1.0, payload_bytes=100,
                      zipf_theta=0.9, population=10_000)),
    "rack-read-cache": (
        DeploymentSpec(placement="switch", enable_cache=True), 8, True,
        False,
        LoadGenConfig(mode="closed", users=16_000, total_requests=375,
                      window=1, update_ratio=0.1, payload_bytes=100,
                      zipf_theta=0.99, population=10_000)),
    "fabric-failover": (
        DeploymentSpec(racks=3, spines=1, devices_per_rack=1,
                       servers_per_rack=2, chain_length=2,
                       clients_per_rack=2, placement="switch"),
        None, False, True,
        LoadGenConfig(mode="closed", users=12_000, total_requests=2_400,
                      window=6, update_ratio=1.0, payload_bytes=100,
                      zipf_theta=0.9, population=10_000)),
}

#: Sim seed 3.  The digest and completed count are fold-independent;
#: the executed events are per level.
BENCH_SHAPE_EXACT = {
    "rack-update": dict(completed=375, digest="4c5ccbe2f243ad67",
                        executed_events={"none": 13749, "whole": 11805}),
    "rack-read-cache": dict(completed=375, digest="8bc3ac77e94a11dc",
                            executed_events={"none": 9361, "whole": 8138}),
    "fabric-failover": dict(completed=2_400, digest="95654eec433cb63d",
                            executed_events={"none": 202414,
                                             "whole": 182237}),
}


def _bench_shape(name: str, level: str) -> dict:
    # The whole run sits inside the level: the control plane wires its
    # monitor host and link after the deployment is built.
    with fold(level):
        return _run_bench_shape(*BENCH_SHAPES[name])


def _prepare_shape(spec, clients, btree, load):
    """Build a benchmark shape at sim seed 3: ``(deployment, engine)``."""
    reset_request_ids()
    config = SystemConfig(seed=3).with_payload(100)
    if clients is not None:
        config = config.with_clients(clients)
    handler = None
    if btree:
        tree = PMBTree()
        for key in range(load.population):
            tree.set(key, f"init{key}")
        handler = StructureHandler(tree)
    deployment = build(spec, config, handler=handler)
    return deployment, FlowLoadGenerator(deployment, load)


def _run_bench_shape(spec, clients, btree, failover, load) -> dict:
    deployment, engine = _prepare_shape(spec, clients, btree, load)
    if failover:
        # ``bench/workloads.py``'s failover timeline: heartbeats every
        # 20 us, a control tick every 25 us, the last server power-cut
        # at 100 us and rebooted at 300 us.
        plane = attach_control_plane(
            deployment, period_ns=microseconds(25),
            policies=[FailoverPolicy()], heartbeats=True,
            heartbeat_period_ns=microseconds(20), miss_threshold=3,
            stop_when=lambda: engine.completed >= load.total_requests)
        plane.start()
        victim = deployment.servers[-1]
        injector = FailureInjector(deployment.sim)
        record = injector.crash_server_at(victim, microseconds(100))
        injector.recover_server_at(
            victim, microseconds(300),
            deployment.recovery_devices(victim.host.name), record)
    deployment.open_all_sessions()
    engine.start()
    deployment.sim.run()
    result = engine.result()
    return dict(completed=result.completed, digest=result.digest(),
                executed_events=deployment.sim.executed_events)


@pytest.mark.parametrize("level", FOLD_LEVELS)
@pytest.mark.parametrize("name", sorted(BENCH_SHAPE_EXACT))
def test_bench_shape_is_exact(name, level):
    pin = BENCH_SHAPE_EXACT[name]
    assert _bench_shape(name, level) == {
        **pin, "executed_events": pin["executed_events"][level]}


#: Real deployments for the step/run identity: the chain-3 fabric (MAT
#: stage chains, device arrival extensions, and express claims whose
#: chains are stripped in place while queued: 12 at seed 3) and the
#: read-cache rack (cache hits and the B-tree handler behind express
#: claims).  ``(spec, client hosts, btree handler, closed loop)``.
STEP_RUN_SHAPES = {
    "fabric-chain": (FABRIC_CHAIN, None, False, FABRIC_CHAIN_LOAD),
    "rack-read-cache": (DeploymentSpec(placement="switch",
                                       enable_cache=True), 8, True,
                        BENCH_SHAPES["rack-read-cache"][4]),
}


def _drain_shape(name: str, drive: str) -> dict:
    with fold("whole"):
        deployment, engine = _prepare_shape(*STEP_RUN_SHAPES[name])
        sim = deployment.sim
        deployment.open_all_sessions()
        engine.start()
        if drive == "step":
            while sim.step():
                pass
        else:
            sim.run()
    result = engine.result()
    stats = sim.kernel_stats()
    return dict(completed=result.completed, digest=result.digest(),
                samples=result.samples,
                executed_events=sim.executed_events,
                resequences=stats["resequences"], pops=stats["pops"])


@pytest.mark.parametrize("name", sorted(STEP_RUN_SHAPES))
def test_step_and_run_drain_real_deployments_identically(name):
    """``Simulator.step()`` (through ``EventQueue.pop``, what the
    benchmark's traced round drives) and ``run()`` (the inlined drain
    loop) must hop deferred chains and settle handles identically."""
    stepped = _drain_shape(name, "step")
    ran = _drain_shape(name, "run")
    assert stepped == ran
    load = STEP_RUN_SHAPES[name][3]
    assert ran["completed"] == load.total_requests
    assert ran["resequences"] > 0, "no deferred chain was exercised"
