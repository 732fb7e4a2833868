"""The ``control`` chaos family: plans, replay, its corpus lines.

The control family reuses the whole chaos pipeline over fabric
deployments that carry a (policy-free) control plane, and drives
:class:`repro.control.migrator.SessionMigrator` directly from the fault
schedule.  Three shapes stress the protocol where it is most fragile:
a rebalance deliberately overlapping a live outage window, a migration
scheduled right after recovery replay, and flapping membership that
migrates the same sessions back and forth.  It draws from its own RNG
namespace, so the ``rack`` and ``fabric`` families' plans stay
byte-for-byte untouched.  The replay of its corpus lines is pinned in
``test_chaos.py::TestCorpusReplay``.
"""

import json
from pathlib import Path

import pytest

from repro.failure import chaos

CORPUS = Path(__file__).parent / "chaos_corpus.txt"


def _plan(seed):
    return chaos.generate_plan(seed, "control")


class TestControlPlanGeneration:
    def test_same_seed_same_plan(self):
        assert _plan(11) == _plan(11)

    def test_plans_vary_across_seeds(self):
        plans = {_plan(seed) for seed in range(16)}
        assert len(plans) == 16

    def test_control_stream_is_independent(self):
        """The control family draws from its own namespaced RNG, so it
        cannot have perturbed any rack or fabric seed."""
        fabric = chaos.generate_plan(5, "fabric")
        assert chaos.generate_plan(5) != _plan(5)
        assert fabric != _plan(5)
        assert chaos.generate_plan(5).family == "rack"
        assert fabric.family == "fabric"
        assert fabric.deployment_spec().control_period_ns is None
        assert _plan(5).family == "control"

    @pytest.mark.parametrize("seed", range(24))
    def test_plans_describe_a_buildable_deployment(self, seed):
        plan = _plan(seed)
        assert plan.family == "control" and plan.racks >= 2
        assert plan.control_shape in chaos.CONTROL_SHAPES
        spec = plan.deployment_spec()
        assert spec.control_period_ns is not None
        assert spec.chain_length >= 2, \
            "control plans rely on chain-tail early ACKs to drain"

    @pytest.mark.parametrize("seed", range(24))
    def test_every_plan_schedules_a_migration(self, seed):
        plan = _plan(seed)
        kinds = [fault.kind for fault in plan.faults]
        assert chaos.REBALANCE in kinds

    @pytest.mark.parametrize("seed", range(24))
    def test_rebalance_faults_name_distinct_servers(self, seed):
        plan = _plan(seed)
        total = plan.racks * plan.servers_per_rack
        for fault in plan.faults:
            if fault.kind == chaos.REBALANCE:
                assert fault.target % total != fault.dest % total

    def test_shapes_all_reachable(self):
        shapes = {_plan(seed).control_shape for seed in range(32)}
        assert shapes == set(chaos.CONTROL_SHAPES)

    def test_describe_names_the_migration(self):
        plan = _plan(0)
        text = plan.describe()
        assert "control[" in text
        assert any("rebalance" in fault.describe()
                   and "->" in fault.describe()
                   for fault in plan.faults)


class TestControlReplay:
    def test_same_plan_twice_is_bit_identical(self):
        plan = _plan(4)
        assert chaos.run_plan(plan).to_dict() == \
            chaos.run_plan(plan).to_dict()

    @pytest.mark.parametrize("seed", range(4))
    def test_small_sweep_is_clean(self, seed):
        result = chaos.run_plan(_plan(seed))
        assert result.ok, "\n".join(result.violations)

    def test_migration_leaves_a_trace(self):
        """A replayed rebalance emits the migration protocol markers."""
        result = chaos.run_plan(_plan(0))
        assert result.ok
        assert result.trace_events > 0

    def test_subset_without_rebalance_still_runs(self):
        plan = _plan(2)
        rebalances = [i for i, fault in enumerate(plan.faults)
                      if fault.kind == chaos.REBALANCE]
        others = tuple(i for i in range(len(plan.faults))
                       if i not in rebalances)
        result = chaos.run_plan(plan, others)
        assert result.fault_indices == others
        assert result.ok

    def test_repro_line_carries_the_control_flag(self):
        result = chaos.run_plan(_plan(0))
        assert chaos.repro_line(result) == \
            "pmnet-repro chaos --seed 0 --family control --faults all"


class TestCorpus:
    def test_shipped_control_corpus_replays_clean(self):
        seeds = [seed for family, seed in chaos.load_corpus(str(CORPUS))
                 if family == "control"]
        assert seeds, "shipped corpus must hold control plans"
        covered = set()
        for seed in seeds:
            plan = _plan(seed)
            covered.add(plan.control_shape)
            result = chaos.run_plan(plan)
            assert result.ok, (f"control corpus seed {seed} regressed:\n"
                               + "\n".join(result.violations))
        # The corpus must keep exercising every control chaos shape.
        assert covered == set(chaos.CONTROL_SHAPES)

    def test_legacy_corpus_seeds_unchanged(self):
        """Only the control family attaches a control plane."""
        assert chaos.generate_plan(0).racks == 1
        for family in ("rack", "fabric"):
            plan = chaos.generate_plan(0, family)
            assert plan.family == family
            assert plan.control_shape == ""
            assert plan.deployment_spec().control_period_ns is None


class TestJobProtocolAndCLI:
    def test_control_jobs_are_marked(self):
        specs = chaos.jobs(start_seed=0, runs=2, family="control")
        assert [spec.params["family"] for spec in specs] == ["control",
                                                             "control"]
        assert [spec.point for spec in specs] == ["control-seed=0",
                                                  "control-seed=1"]

    def test_legacy_job_params_unchanged(self):
        spec = chaos.jobs(start_seed=3, runs=1)[0]
        assert spec.point == "rack-seed=3"
        assert spec.params["family"] == "rack"

    def test_run_point_matches_direct_run(self):
        spec = chaos.jobs(start_seed=2, runs=1, family="control")[0]
        direct = chaos.run_plan(_plan(2)).to_dict()
        assert chaos.run_point(spec) == direct

    def test_cli_single_control_seed(self, capsys):
        from repro.cli import main
        assert main(["chaos", "--seed", "2", "--family", "control",
                     "--corpus", ""]) == 0
        out = capsys.readouterr().out
        assert "chaos seed 2" in out
        assert "control[" in out
        assert "verdict: clean" in out

    def test_cli_rejects_fabric_plus_control(self, capsys):
        """The retired family flags are no aliases: argparse rejects
        them (exit 2) before anything runs."""
        from repro.cli import main
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--seed", "0", "--fabric", "--control",
                  "--corpus", ""])
        assert exit_info.value.code == 2
        assert "--fabric --control" in capsys.readouterr().err

    def test_cli_json_envelope(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.export import validate_bench_report
        path = tmp_path / "chaos-control.json"
        assert main(["chaos", "--runs", "2", "--jobs", "1",
                     "--family", "control",
                     "--json", str(path), "--corpus", ""]) == 0
        report = json.loads(path.read_text())
        assert validate_bench_report(report) == []
        payload = report["payload"]
        assert payload["family"] == "control"
        assert payload["clean"] == 2
        assert payload["failing_seeds"] == []
