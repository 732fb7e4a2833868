"""Express arrival claims must not outlive their wire chain.

An express claim and the deferred record that carries it point at each
other (the claim keeps the record to strip or re-check it, the record's
args hold the claim).  Once the barrier has run, or the channel has
released the claim, nothing needs either side, so the claim drops its
record and channel references: the pair then dies by reference counting
instead of piling up, frame, packet and result included, until the
cyclic collector runs.
"""

import gc

import pytest

from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.host.node import _ExpressClaim
from repro.protocol.packet import reset_request_ids
from repro.workloads.handlers import StructureHandler
from repro.workloads.loadgen import FlowLoadGenerator, LoadGenConfig
from repro.workloads.pmdk import PMBTree


@pytest.fixture
def whole_fold(monkeypatch):
    monkeypatch.setenv("PMNET_FOLD", "whole")


def _read_cache_run():
    """A read-cache rack under whole folding: the shape that takes the
    most express claims per request."""
    reset_request_ids()
    tree = PMBTree()
    for key in range(200):
        tree.set(key, f"init{key}")
    deployment = build(DeploymentSpec(placement="switch", enable_cache=True),
                       SystemConfig(seed=1).with_clients(4),
                       handler=StructureHandler(tree))
    engine = FlowLoadGenerator(deployment, LoadGenConfig(
        users=400, total_requests=600, window=2, update_ratio=0.1,
        zipf_theta=0.99, population=200))
    deployment.open_all_sessions()
    return deployment, engine


class TestExpressClaimLifetime:
    def test_no_claim_is_left_to_the_cyclic_collector(self, whole_fold,
                                                       monkeypatch):
        attached = []
        attach = _ExpressClaim.attach

        def counting_attach(self, call, channel):
            attached.append(1)
            attach(self, call, channel)

        monkeypatch.setattr(_ExpressClaim, "attach", counting_attach)
        enabled = gc.isenabled()
        flags = gc.get_debug()
        gc.collect()
        gc.disable()
        try:
            deployment, engine = _read_cache_run()
            engine.start()
            deployment.sim.run()
            assert engine.completed == 600
            assert attached, "the run took no express claims"
            # The deployment stays alive: only what nothing reaches any
            # more is collected.
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = sum(isinstance(obj, _ExpressClaim)
                         for obj in gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert leaked == 0
