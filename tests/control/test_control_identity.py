"""Result-neutrality of the control plane (the control identity bar).

A control plane that takes no action must be *invisible*: attaching it
(unstarted, as ``DeploymentSpec.control_period_ns`` does) or even
starting an idle balancer (no policies, no heartbeat monitors) may only
add its own tick callbacks — no frames, no RNG draws, no trace records
— so the run's observables stay byte-identical to a run with no control
plane at all.  That must hold at every fold level, which is what
licenses wiring the control plane into deployments by default.

Heartbeat monitors put real frames on shared channels and are exempt by
design (they are strictly opt-in); a sanity check pins that they do
perturb the digest, so nobody "optimizes" them onto the default path.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.sim.clock import microseconds
from repro.sim.trace import Tracer
from repro.workloads.loadgen import LoadGenConfig, run_loadgen

from tests.conftest import FOLD_LEVELS, fold

SPEC = DeploymentSpec(racks=2, devices_per_rack=2, servers_per_rack=2,
                      chain_length=2, clients_per_rack=1,
                      placement="switch")

LOADGEN = LoadGenConfig(mode="closed", users=2_000, total_requests=400,
                        window=16, warmup_requests=4)


def _observables(attach: str, heartbeats: bool = False) -> dict:
    """One deterministic fabric run; ``attach`` picks the control-plane
    flavor: 'none', 'unstarted', or 'idle' (started, zero policies)."""
    from repro.protocol.packet import reset_request_ids
    reset_request_ids()  # ids appear in traces; depend on this run only
    tracer = Tracer(enabled=True)
    deployment = build(SPEC, SystemConfig(seed=13), tracer=tracer)
    if attach != "none":
        from repro.control.balancer import attach_control_plane
        plane = attach_control_plane(deployment,
                                     period_ns=microseconds(20),
                                     heartbeats=heartbeats,
                                     max_ticks=200)
        if attach == "idle":
            plane.start()
    result = run_loadgen(deployment, LOADGEN)
    trace_digest = hashlib.sha256(
        tracer.dump().encode("utf-8")).hexdigest()[:16]
    return {
        "samples": result.digest(),
        "trace": trace_digest,
        "completed": result.completed,
        "final_now": deployment.sim.now,
    }


class TestControlIdentity:
    def test_zero_action_plane_is_invisible(self):
        bare = _observables("none")
        unstarted = _observables("unstarted")
        idle = _observables("idle")
        assert unstarted["samples"] == bare["samples"]
        assert unstarted["trace"] == bare["trace"]
        assert idle["samples"] == bare["samples"]
        assert idle["trace"] == bare["trace"]
        assert idle["completed"] == bare["completed"]

    @pytest.mark.parametrize("level", FOLD_LEVELS)
    def test_zero_action_plane_is_invisible_per_fold_level(self, level):
        with fold(level):
            bare = _observables("none")
            idle = _observables("idle")
        assert idle["samples"] == bare["samples"]
        assert idle["trace"] == bare["trace"]

    def test_identity_holds_across_the_matrix(self):
        """The bare-run digest itself must agree across every fold level,
        with and without the idle plane — one equality class for the
        whole matrix."""
        digests = set()
        for level in FOLD_LEVELS:
            with fold(level):
                digests.add(_observables("none")["samples"])
                digests.add(_observables("idle")["samples"])
        assert len(digests) == 1

    def test_spec_wired_plane_matches_explicit_attach(self):
        """``control_period_ns`` on the spec attaches the same inert
        plane as calling attach_control_plane by hand."""
        spec = DeploymentSpec(racks=2, devices_per_rack=2,
                              servers_per_rack=2, chain_length=2,
                              clients_per_rack=1, placement="switch",
                              control_period_ns=microseconds(20))
        deployment = build(spec, SystemConfig(seed=13))
        assert deployment.control is not None
        assert deployment.control.balancer.period_ns == microseconds(20)
        result = run_loadgen(deployment, LOADGEN)
        assert result.digest() == _observables("none")["samples"]

    def test_heartbeats_are_visibly_not_free(self):
        """Monitors send real frames — the digest must move, which is
        exactly why they are opt-in rather than default."""
        bare = _observables("none")
        monitored = _observables("idle", heartbeats=True)
        assert monitored["trace"] != bare["trace"]
