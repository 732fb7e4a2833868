"""Tests for the scale-out experiment (fabric tail latency sweep)."""

import json

from repro.experiments import scaleout
from repro.experiments.deploy import DeploymentSpec

from tests.conftest import FOLD_LEVELS, fold


class TestSweepDefinition:
    def test_every_point_is_a_valid_multi_rack_spec(self):
        for overrides in scaleout.SWEEP.values():
            spec = scaleout._spec_for(overrides)
            assert spec.racks >= 2
            assert spec.placement == "switch"

    def test_sweep_reaches_the_acceptance_floors(self):
        """>= 2 racks, >= 4 shards, chain >= 3, >= 10^4 modeled users."""
        shapes = [scaleout._spec_for(overrides)
                  for overrides in scaleout.SWEEP.values()]
        assert max(spec.racks for spec in shapes) >= 2
        assert max(spec.racks * spec.servers_per_rack
                   for spec in shapes) >= 4
        assert max(spec.chain_length for spec in shapes) >= 3
        assert scaleout.QUICK_USERS >= 10_000

    def test_jobs_are_json_safe_and_quick_by_default(self):
        specs = scaleout.jobs()
        assert [spec.point for spec in specs] == list(scaleout.SWEEP)
        for spec in specs:
            assert json.loads(json.dumps(spec.params)) == spec.params
            # Worker processes rebuild the deployment from params alone.
            DeploymentSpec.from_params(spec.params["spec"])
            assert spec.quick


class TestRunPoint:
    def test_pivot_point_is_fold_identical(self):
        spec = next(job for job in scaleout.jobs()
                    if job.point == "shards=4/chain=3")
        summaries = {}
        for level in FOLD_LEVELS:
            with fold(level):
                summaries[level] = scaleout.run_point(spec)
        assert summaries["none"]["modeled_users"] >= 10_000
        assert summaries["none"]["completed"] > 0
        assert summaries["none"]["errors"] == 0
        assert summaries["none"]["p99_us"] >= summaries["none"]["p50_us"]
        assert summaries["whole"] == summaries["none"], (
            "scale-out point diverged between fold levels")


class TestAssembly:
    def test_format_renders_every_point_in_sweep_order(self):
        canned = {name: {
            "point": name, "shards": 4, "chain_length": 3,
            "spine_propagation_ns": None, "modeled_users": 12_000,
            "completed": 2_400, "errors": 0, "p50_us": 25.0,
            "p99_us": 40.0, "ops_per_second": 1e6,
            "mean_latency_us": 27.0, "digest": "cafef00dcafef00d",
        } for name in scaleout.SWEEP}
        table = scaleout.ScaleoutResult(canned).format()
        for name in scaleout.SWEEP:
            assert name in table
        assert "cafef00dcafef00d" in table
