"""Exact event counts of the pipeline benchmark's stress run, and the
exact shape of a small fabric-chain run.

``bench-pipeline`` and ``benchmarks/test_pipeline_events.py`` report the
events/request of the Fig 16 stress shape at both fold levels.  Event
counts are deterministic, so the counts themselves are pinned here: any
change to what a level folds — or to the timeline it folds — moves them.

The fabric-chain pins do the same for the repo benchmark's multi-rack
workload (``bench/workloads.py``): two racks under one spine, chain
length 3, a closed loop of all updates, at the benchmark's smoke size.
A single-rack pin cannot see a change to the fabric model — switch
forwarding, chain store-and-forward, the bound egress channels — so
these counts are what keeps a hop rewrite honest.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.pipeline_bench import _run_mode
from repro.net.switch import Switch
from repro.protocol.packet import reset_request_ids
from repro.workloads.loadgen import FlowLoadGenerator, LoadGenConfig

from tests.conftest import fold

#: ``executed_events`` of the 32-client x 20-request seed-0 run.
EXACT_EVENTS = {"none": 30453, "whole": 16808}


@pytest.mark.parametrize("fold, events", sorted(EXACT_EVENTS.items()))
def test_executed_events_are_exact(fold, events):
    assert _run_mode(fold, 32, 20, seed=0)["executed_events"] == events


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
    "whole": dict(executed_events=20792, resequences=12713, forwarded=5245,
                  folded_sends=5870, delivered=8620,
                  digest="156a71247eb12cd1"),
}


def _fabric_chain_shape(level: str) -> dict:
    reset_request_ids()
    with fold(level):
        deployment = build(FABRIC_CHAIN,
                           SystemConfig(seed=3).with_payload(100))
    engine = FlowLoadGenerator(deployment, FABRIC_CHAIN_LOAD)
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
