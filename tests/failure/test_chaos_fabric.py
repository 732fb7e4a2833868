"""The ``fabric`` chaos family: plan generation, replay, its corpus lines.

The fabric family reuses the whole chaos pipeline — plans, the
durability oracle, shrinking, the CLI — over spine/leaf deployments
with cross-rack chains, and adds fabric-only faults (whole-rack
outages, spine-link impairment windows).  It draws from its own RNG
namespace, so the ``rack`` family's plans stay byte-for-byte untouched.
The replay of its corpus lines is pinned in
``test_chaos.py::TestWholeFoldReplay``.
"""

import json
from pathlib import Path

import pytest

from repro.failure import chaos

CORPUS = Path(__file__).parent / "chaos_corpus.txt"


def _plan(seed):
    return chaos.generate_plan(seed, "fabric")


class TestFabricPlanGeneration:
    def test_same_seed_same_plan(self):
        assert _plan(11) == _plan(11)

    def test_plans_vary_across_seeds(self):
        plans = {_plan(seed) for seed in range(16)}
        assert len(plans) == 16

    def test_fabric_and_legacy_streams_are_independent(self):
        """The fabric family draws from its own namespaced RNG, so it
        cannot have perturbed any rack seed."""
        assert chaos.generate_plan(5) != _plan(5)
        assert chaos.generate_plan(5).racks == 1
        assert _plan(5).family == "fabric"

    @pytest.mark.parametrize("seed", range(24))
    def test_plans_describe_a_buildable_fabric(self, seed):
        plan = _plan(seed)
        assert plan.racks >= 2
        # The spec constructor revalidates every shape constraint.
        spec = plan.deployment_spec()
        assert spec.chain_length <= plan.racks * plan.devices_per_rack
        assert spec.chain_length >= 2, "fabric chains must replicate"

    @pytest.mark.parametrize("seed", range(24))
    def test_fault_windows_never_overlap(self, seed):
        plan = _plan(seed)
        cursor = 0
        for fault in plan.faults:
            assert fault.at_ns > cursor
            assert fault.duration_ns > 0
            cursor = fault.end_ns

    @pytest.mark.parametrize("seed", range(24))
    def test_replacements_leave_a_surviving_chain_copy(self, seed):
        plan = _plan(seed)
        replacements = sum(1 for fault in plan.faults
                           if fault.kind == chaos.DEVICE_REPLACE)
        assert replacements <= plan.replication - 1

    @pytest.mark.parametrize("seed", range(24))
    def test_outage_kinds_stay_singular(self, seed):
        """At most one whole-rack and one single-server outage per plan
        (and never a rack outage scheduled after a server outage — its
        rack-wide server crash would double-fault the shard tier)."""
        plan = _plan(seed)
        kinds = [fault.kind for fault in plan.faults]
        assert kinds.count(chaos.RACK_OUTAGE) <= 1
        assert kinds.count(chaos.SERVER_OUTAGE) <= 1
        if chaos.SERVER_OUTAGE in kinds and chaos.RACK_OUTAGE in kinds:
            assert (kinds.index(chaos.RACK_OUTAGE)
                    < kinds.index(chaos.SERVER_OUTAGE))


class TestFabricReplay:
    def test_same_plan_twice_is_bit_identical(self):
        plan = _plan(4)
        assert chaos.run_plan(plan).to_dict() == \
            chaos.run_plan(plan).to_dict()

    @pytest.mark.parametrize("seed", range(4))
    def test_small_sweep_is_clean(self, seed):
        result = chaos.run_plan(_plan(seed))
        assert result.ok, "\n".join(result.violations)

    def test_subset_replay_matches_selector(self):
        plan = _plan(3)
        assert len(plan.faults) > 1
        result = chaos.run_plan(plan, (0,))
        assert result.fault_indices == (0,)
        assert result.ok

    def test_repro_line_carries_the_fabric_flag(self):
        result = chaos.run_plan(_plan(0))
        assert chaos.repro_line(result) == \
            "pmnet-repro chaos --seed 0 --family fabric --faults all"


class TestCorpus:
    def test_shipped_fabric_corpus_replays_clean(self):
        seeds = [seed for family, seed in chaos.load_corpus(str(CORPUS))
                 if family == "fabric"]
        assert seeds, "shipped corpus must hold fabric plans"
        covered = set()
        for seed in seeds:
            plan = _plan(seed)
            covered.update(fault.kind for fault in plan.faults)
            result = chaos.run_plan(plan)
            assert result.ok, (f"fabric corpus seed {seed} regressed:\n"
                               + "\n".join(result.violations))
        # The corpus must keep exercising every fabric fault kind.
        assert {chaos.RACK_OUTAGE, chaos.SPINE_IMPAIRMENT,
                chaos.DEVICE_REPLACE} <= covered

    def test_legacy_corpus_seeds_unchanged(self):
        """The rack family's plans keep their one-ToR shape."""
        plan = chaos.generate_plan(0)
        assert plan.racks == 1
        assert plan.family == "rack"
        assert plan.deployment_spec().racks == 1


class TestJobProtocolAndCLI:
    def test_fabric_jobs_are_marked(self):
        specs = chaos.jobs(start_seed=0, runs=2, family="fabric")
        assert [spec.params["family"] for spec in specs] == ["fabric",
                                                             "fabric"]
        assert [spec.point for spec in specs] == ["fabric-seed=0",
                                                  "fabric-seed=1"]

    def test_legacy_job_params_unchanged(self):
        spec = chaos.jobs(start_seed=3, runs=1)[0]
        assert spec.point == "rack-seed=3"
        assert spec.params == {"seed": 3, "family": "rack"}

    def test_run_point_matches_direct_run(self):
        spec = chaos.jobs(start_seed=2, runs=1, family="fabric")[0]
        direct = chaos.run_plan(_plan(2)).to_dict()
        assert chaos.run_point(spec) == direct

    def test_cli_single_fabric_seed(self, capsys):
        from repro.cli import main
        assert main(["chaos", "--seed", "2", "--family", "fabric",
                     "--corpus", ""]) == 0
        out = capsys.readouterr().out
        assert "chaos seed 2" in out
        assert "verdict: clean" in out

    def test_cli_json_envelope(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.export import validate_bench_report
        path = tmp_path / "chaos-fabric.json"
        assert main(["chaos", "--runs", "2", "--jobs", "1",
                     "--family", "fabric",
                     "--json", str(path), "--corpus", ""]) == 0
        report = json.loads(path.read_text())
        assert validate_bench_report(report) == []
        payload = report["payload"]
        assert payload["family"] == "fabric"
        assert payload["clean"] == 2
        assert payload["failing_seeds"] == []
