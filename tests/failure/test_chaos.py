"""The chaos engine: plan determinism, replay, shrinking, the corpus.

Cases that hold for every plan family (the pinned plan stream, the
pinned corpus replay, the corpus format, the ``--family`` flag) live
here; the fabric and control families' own invariants live
in ``test_chaos_fabric.py`` and ``test_chaos_control.py``.

The mutation check is the suite's teeth: it plants a known persistence
bug (eager log invalidation before the server commit) and asserts the
chaos pipeline catches it, shrinks it to a minimal schedule, and emits
a replayable repro line.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.core.pmnet_device import PMNetDevice
from repro.errors import ConfigurationError
from repro.experiments.jobs import execute_serial
from repro.experiments.parallel import run_jobs
from repro.experiments.registry import EXPERIMENTS
from repro.failure import chaos

from tests.conftest import leave_completed_timers_armed

CORPUS = Path(__file__).parent / "chaos_corpus.txt"
CORPUS_LINES = chaos.load_corpus(str(CORPUS))

#: sha256 (first 16 hex) over seeds 0-63 of each family's plans, as
#: ``_plan_stream_digest`` renders them: any change to a draw, its
#: order or its namespace moves the digest.
PLAN_STREAM_DIGESTS = {
    "rack": "7ed002fa69f34e93",
    "fabric": "fa459edaaea73b08",
    "control": "c5f33af9eab04b1b",
}

_PLAN_FIELDS = ("seed", "replication", "enable_cache", "clients",
                "requests_per_client", "structure", "update_ratio",
                "zipf_theta", "payload_bytes", "population", "racks",
                "spines", "devices_per_rack", "servers_per_rack",
                "spine_propagation_ns", "control_shape")
_FAULT_FIELDS = ("kind", "at_ns", "duration_ns", "target", "loss",
                 "duplicate", "reorder", "dest")


def _plan_stream_digest(family):
    digest = hashlib.sha256()
    for seed in range(64):
        plan = chaos.generate_plan(seed, family)
        row = (plan.describe(),
               tuple(getattr(plan, name) for name in _PLAN_FIELDS),
               tuple(tuple(getattr(fault, name) for name in _FAULT_FIELDS)
                     for fault in plan.faults))
        digest.update(repr(row).encode())
    return digest.hexdigest()[:16]


class TestFamilies:
    @pytest.mark.parametrize("family", sorted(PLAN_STREAM_DIGESTS))
    def test_plan_stream_is_pinned(self, family):
        assert _plan_stream_digest(family) == PLAN_STREAM_DIGESTS[family]

    def test_every_family_is_pinned(self):
        assert set(chaos.FAMILIES) == set(PLAN_STREAM_DIGESTS)

    def test_unknown_family_is_rejected(self):
        with pytest.raises(ConfigurationError, match="'frog'"):
            chaos.generate_plan(0, "frog")
        with pytest.raises(ConfigurationError, match="'frog'"):
            chaos.jobs(runs=1, family="frog")


class TestPlanGeneration:
    def test_same_seed_same_plan(self):
        assert chaos.generate_plan(11) == chaos.generate_plan(11)

    def test_plans_vary_across_seeds(self):
        plans = {chaos.generate_plan(seed) for seed in range(16)}
        assert len(plans) == 16

    @pytest.mark.parametrize("seed", range(32))
    def test_fault_windows_never_overlap(self, seed):
        plan = chaos.generate_plan(seed)
        cursor = 0
        for fault in plan.faults:
            assert fault.at_ns > cursor
            assert fault.duration_ns > 0
            cursor = fault.end_ns

    @pytest.mark.parametrize("seed", range(32))
    def test_replacements_leave_a_surviving_log_copy(self, seed):
        plan = chaos.generate_plan(seed)
        replacements = sum(1 for f in plan.faults
                           if f.kind == chaos.DEVICE_REPLACE)
        assert replacements <= plan.replication - 1

    @pytest.mark.parametrize("seed", range(32))
    def test_at_most_one_server_outage(self, seed):
        plan = chaos.generate_plan(seed)
        outages = sum(1 for f in plan.faults
                      if f.kind == chaos.SERVER_OUTAGE)
        assert outages <= 1


class TestDeterministicReplay:
    def test_same_seed_twice_is_bit_identical(self):
        plan = chaos.generate_plan(7)
        first = chaos.run_plan(plan)
        second = chaos.run_plan(plan)
        assert first.to_dict() == second.to_dict()

    # The test id predates the single request path (it compared the
    # retired fold levels); the pin is the replay both levels gave.
    def test_fold_identity(self):
        result = chaos.run_plan(chaos.generate_plan(7))
        assert (result.trace_digest, result.violations, result.completions,
                result.acknowledged, result.executed_events) == (
            "47137d56d9fb2d4b", (), 60, 55, 3396)

    def test_result_independent_of_prior_runs(self):
        plan = chaos.generate_plan(7)
        baseline = chaos.run_plan(plan).to_dict()
        chaos.run_plan(chaos.generate_plan(3))  # dirty the globals
        assert chaos.run_plan(plan).to_dict() == baseline

    @pytest.mark.parametrize("seed", range(6))
    def test_small_sweep_is_clean(self, seed):
        result = chaos.run_plan(chaos.generate_plan(seed))
        assert result.ok, "\n".join(result.violations)
        assert result.completions == (result.plan.clients
                                      * result.plan.requests_per_client)


#: Every corpus line's replay: ``(family, seed): (trace digest,
#: completions, acknowledged, executed events, final clock in ns)``.
CORPUS_PINS = {
    ("rack", 0): ("9153b0eb9c443236", 24, 13, 1708, 3_353_168),
    ("rack", 1): ("6b294615cf812d73", 24, 13, 1163, 2_659_472),
    ("rack", 2): ("639c8c7ae15641da", 44, 23, 16_526, 153_010_428),
    ("rack", 3): ("08a893b73f4ac18d", 34, 31, 14_120, 153_011_511),
    ("rack", 4): ("395a07a13dd3ad28", 72, 62, 5667, 3_012_293),
    ("fabric", 0): ("bfda37b094a2e11a", 78, 78, 70_956, 153_519_434),
    ("fabric", 1): ("d7f7b87f6514e352", 48, 48, 18_964, 152_198_105),
    ("fabric", 3): ("2ab7b472ce287dfb", 60, 60, 4786, 3_439_174),
    ("fabric", 5): ("21eccb229deaa8b6", 72, 68, 158_783, 153_495_465),
    ("fabric", 7): ("87094c6cd99f98c3", 78, 78, 8828, 4_516_462),
    ("control", 0): ("4254075b161a6834", 16, 14, 17_492, 151_892_745),
    ("control", 2): ("723740060c18c139", 28, 26, 12_362, 151_809_015),
    ("control", 4): ("c26f34373dc9b0fd", 39, 36, 3923, 1_719_382),
    ("control", 6): ("2c59ecd291b00687", 28, 28, 4479, 151_787_861),
    ("control", 10): ("ed2f4e27be259e33", 18, 18, 1769, 1_893_532),
    ("control", 14): ("12d79e1507326e9b", 54, 54, 17_657, 152_037_591),
}


class TestCorpusReplay:
    """The shipped corpus under the full chaos battery.

    Chaos schedules open impairment windows mid-request, crash devices,
    servers and whole racks, replace blank boards and migrate sessions,
    so each corpus line's replay is pinned: trace digest, completions,
    acknowledged writes, executed events and the end-of-run clock, with
    a clean R1-R6 and durability-oracle verdict.
    """

    @pytest.mark.parametrize(
        "family, seed", CORPUS_LINES,
        ids=[f"{family}-{seed}" for family, seed in CORPUS_LINES])
    def test_shipped_corpus_replays_identically(self, family, seed):
        assert (family, seed) in CORPUS_PINS, \
            f"corpus line '{family} {seed}' has no pin in CORPUS_PINS"
        digest, completions, acknowledged, events, final_now = \
            CORPUS_PINS[family, seed]
        result = chaos.run_plan(chaos.generate_plan(seed, family))
        label = f"{family} {seed}"
        assert result.ok, f"{label}:\n" + "\n".join(result.violations)
        assert result.trace_digest == digest, label
        assert (result.completions, result.acknowledged) == \
            (completions, acknowledged), label
        assert result.executed_events == events, label
        assert result.final_now == final_now, label

    def test_every_pin_is_a_corpus_line(self):
        assert set(CORPUS_PINS) == set(CORPUS_LINES)
        assert len(CORPUS_LINES) == len(set(CORPUS_LINES))

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(1000, 1040))
    def test_fresh_sweep_replays_identically(self, seed, monkeypatch):
        """A fresh plan replays the same with the client's
        completed-request timers left armed (the reference timeline of
        the timer cancellation)."""
        plan = chaos.generate_plan(seed)
        default = chaos.run_plan(plan)
        leave_completed_timers_armed(monkeypatch)
        armed = chaos.run_plan(plan)
        label = f"seed={seed}"
        assert armed.trace_digest == default.trace_digest, label
        assert armed.violations == default.violations, label
        assert (armed.completions, armed.acknowledged) == \
            (default.completions, default.acknowledged), label
        # The cancelled timers are events the default never runs.
        assert armed.executed_events >= default.executed_events, label


def _plant_eager_invalidate(monkeypatch, site="_on_persisted"):
    """Plant the bug: invalidate the log entry right after it persists,
    before any server commit — a direct R3 violation and, if the server
    dies first, a durability hole.  ``site`` is the persistence callback
    to wrap: ``_on_persisted`` (a plain update's, before the PMNet-ACK)
    or ``_on_chain_persisted`` (a chain member's copy)."""
    original = getattr(PMNetDevice, site)

    def eager(self, entry):
        original(self, entry)
        packet = entry.packet
        if self.failed or self.log.lookup(packet.hash_val) is None:
            return
        self.log.invalidate(packet.hash_val)
        self.tracer.emit(self.sim.now, self.name, "log_invalidated",
                         req=packet.request_id, seq=packet.seq_num)

    monkeypatch.setattr(PMNetDevice, site, eager)


class TestMutationCheck:
    def test_planted_bug_is_caught_shrunk_and_reported(self, monkeypatch):
        _plant_eager_invalidate(monkeypatch)
        plan = chaos.generate_plan(0)
        failing = chaos.run_plan(plan)
        assert not failing.ok
        assert any("[R3]" in violation for violation in failing.violations)
        minimal = chaos.shrink(plan, failing)
        # The bug fires on every update; no fault is needed to expose it.
        assert minimal.fault_indices == ()
        line = chaos.repro_line(minimal)
        assert line == "pmnet-repro chaos --seed 0 --faults none"

    def test_chain_path_bug_is_caught_shrunk_and_reported(self, monkeypatch):
        # Chain members persist through ``_on_chain_persisted``, which
        # the rack row never reaches: the fabric family must catch the
        # same bug planted there.
        _plant_eager_invalidate(monkeypatch, "_on_chain_persisted")
        plan = chaos.generate_plan(0, "fabric")
        failing = chaos.run_plan(plan)
        assert not failing.ok
        assert any("[R3]" in violation for violation in failing.violations)
        minimal = chaos.shrink(plan, failing)
        assert minimal.fault_indices == ()
        line = chaos.repro_line(minimal)
        assert line == "pmnet-repro chaos --seed 0 --family fabric --faults none"

    def test_shrink_refuses_passing_plans(self):
        with pytest.raises(ValueError, match="passes"):
            chaos.shrink(chaos.generate_plan(0))


class TestFaultSelector:
    def test_all_and_none(self):
        assert chaos.parse_fault_selector(None, 3) is None
        assert chaos.parse_fault_selector("all", 3) is None
        assert chaos.parse_fault_selector("none", 3) == ()

    def test_indices(self):
        assert chaos.parse_fault_selector("0,2", 3) == (0, 2)

    def test_rejects_garbage_and_out_of_range(self):
        with pytest.raises(ValueError):
            chaos.parse_fault_selector("1,frog", 3)
        with pytest.raises(ValueError):
            chaos.parse_fault_selector("3", 3)

    def test_subset_replay_matches_selector(self):
        plan = chaos.generate_plan(2)
        result = chaos.run_plan(plan, (0,))
        assert result.fault_indices == (0,)
        assert result.ok


class TestCorpus:
    def test_roundtrip_and_idempotence(self, tmp_path):
        path = str(tmp_path / "corpus.txt")
        assert chaos.load_corpus(path) == []
        assert chaos.append_to_corpus(path, "rack", 41, note="[R3] planted")
        assert chaos.append_to_corpus(path, "rack", 42)
        assert chaos.append_to_corpus(path, "fabric", 41)
        assert not chaos.append_to_corpus(path, "rack", 41)
        assert not chaos.append_to_corpus(path, "fabric", 41)
        assert chaos.load_corpus(path) == [("rack", 41), ("rack", 42),
                                           ("fabric", 41)]
        assert Path(path).read_text().splitlines()[0] == \
            "rack 41  # [R3] planted"

    def test_append_rejects_an_unknown_family(self, tmp_path):
        path = tmp_path / "corpus.txt"
        with pytest.raises(ConfigurationError, match="'frog'"):
            chaos.append_to_corpus(str(path), "frog", 1)
        assert not path.exists()

    @pytest.mark.parametrize("line", ["12x", "12 13", "0x1f", "seed", "7",
                                      "rack", "rack 12x", "rack 1 2",
                                      "frog 3"])
    def test_malformed_line_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "corpus.txt"
        path.write_text(f"# header\nrack 7  # note\n{line}  # bad\n")
        with pytest.raises(ConfigurationError,
                           match=rf"^{re.escape(str(path))}:3: "):
            chaos.load_corpus(str(path))

    def test_shipped_corpus_replays_clean(self):
        seeds = [seed for family, seed in CORPUS_LINES if family == "rack"]
        assert seeds, "shipped corpus must hold rack plans"
        for seed in seeds:
            result = chaos.run_plan(chaos.generate_plan(seed))
            assert result.ok, (f"corpus seed {seed} regressed:\n"
                               + "\n".join(result.violations))


class TestJobProtocol:
    def test_registered(self):
        assert "chaos" in EXPERIMENTS
        assert EXPERIMENTS["chaos"].run_point is chaos.run_point

    def test_run_point_matches_direct_run(self):
        spec = chaos.jobs(start_seed=4, runs=1)[0]
        direct = chaos.run_plan(chaos.generate_plan(4)).to_dict()
        assert chaos.run_point(spec) == direct

    def test_parallel_matches_serial(self):
        specs = chaos.jobs(start_seed=0, runs=4)
        serial = execute_serial(specs, chaos.run_point)
        fanned = run_jobs(specs, jobs=2, cache=None)
        by_seed = lambda r: r.spec.seed  # noqa: E731
        assert ([r.value for r in sorted(serial, key=by_seed)]
                == [r.value for r in sorted(fanned, key=by_seed)])
        assert "0 failing" in chaos.assemble(fanned)


class TestCLI:
    def test_single_seed(self, capsys):
        from repro.cli import main
        assert main(["chaos", "--seed", "2", "--corpus", ""]) == 0
        out = capsys.readouterr().out
        assert "chaos seed 2" in out
        assert "verdict: clean" in out

    def test_faults_none_replay(self, capsys):
        from repro.cli import main
        assert main(["chaos", "--seed", "2", "--faults", "none",
                     "--corpus", ""]) == 0
        assert "verdict: clean" in capsys.readouterr().out

    def test_faults_requires_single_run(self, capsys):
        from repro.cli import main
        assert main(["chaos", "--runs", "2", "--faults", "none"]) == 2

    def test_sweep_json_envelope(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.export import validate_bench_report
        path = tmp_path / "chaos.json"
        assert main(["chaos", "--runs", "3", "--jobs", "1",
                     "--json", str(path), "--corpus", ""]) == 0
        report = json.loads(path.read_text())
        assert validate_bench_report(report) == []
        payload = report["payload"]
        assert payload["family"] == "rack"
        assert "fabric" not in payload and "control" not in payload
        assert payload["clean"] == 3
        assert payload["failing_seeds"] == []
        assert len(payload["results"]) == 3
        assert {result["family"] for result in payload["results"]} == \
            {"rack"}

    def test_family_choices_match_the_engine(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["chaos", "--help"])
        choices = "{" + ",".join(chaos.FAMILIES) + "}"
        assert f"--family {choices}" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--family", "frog"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("bad", ["rack frog", "frog 3"])
    def test_malformed_corpus_stops_before_any_seed_runs(
            self, bad, tmp_path, monkeypatch, capsys):
        """A failing seed used to reach the corpus append only after the
        sweep, where the malformed line raised a traceback."""
        from repro.cli import main
        _plant_eager_invalidate(monkeypatch)
        path = tmp_path / "corpus.txt"
        path.write_text(f"rack 0\n{bad}\n")
        assert main(["chaos", "--seed", "0", "--no-shrink",
                     "--corpus", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"{path}:2: " in captured.err
        assert "chaos seed" not in captured.out
        assert path.read_text() == f"rack 0\n{bad}\n"

    def test_failing_seed_lands_in_the_corpus_with_its_family(
            self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setattr(chaos, "_durability_oracle",
                            lambda *args: ["[ORACLE] planted"])
        path = tmp_path / "corpus.txt"
        assert main(["chaos", "--seed", "0", "--family", "fabric",
                     "--no-shrink", "--corpus", str(path)]) == 1
        assert chaos.load_corpus(str(path)) == [("fabric", 0)]
        assert path.read_text() == "fabric 0  # [ORACLE] planted\n"
        assert "fabric seed 0 appended" in capsys.readouterr().err
