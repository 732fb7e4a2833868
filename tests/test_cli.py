"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in ("fig02", "fig15", "fig18", "sec6b6", "sec7", "bdp"):
            assert eid in out


class TestRun:
    def test_run_instant_experiments(self, capsys):
        assert main(["run", "bdp", "fig02"]) == 0
        out = capsys.readouterr().out
        assert "BDP sizing" in out
        assert "latency breakdown" in out
        assert out.count("done in") == 2

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "fig02" in err

    def test_bad_id_fails_fast_before_running_anything(self, capsys):
        # The typo may come *after* valid ids: nothing must run.
        assert main(["run", "bdp", "fig02", "fig99"]) == 2
        captured = capsys.readouterr()
        assert "fig99" in captured.err
        assert "===" not in captured.out
        assert "done in" not in captured.out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_run_requires_at_least_one_id(self):
        with pytest.raises(SystemExit):
            main(["run"])


def _tables_only(stdout: str) -> str:
    """Drop the wall-clock lines, which legitimately vary run to run."""
    return "\n".join(line for line in stdout.splitlines()
                     if not line.startswith("--- "))


class TestRunParallel:
    def test_jobs_flag_output_matches_serial(self, capsys):
        assert main(["run", "bdp", "fig02", "--jobs", "1",
                     "--no-cache"]) == 0
        serial = _tables_only(capsys.readouterr().out)
        assert main(["run", "bdp", "fig02", "--jobs", "2",
                     "--no-cache"]) == 0
        parallel = _tables_only(capsys.readouterr().out)
        assert parallel == serial

    def test_cached_second_run_matches_and_reports_hits(self, capsys):
        assert main(["run", "fig02"]) == 0
        first = capsys.readouterr()
        assert main(["run", "fig02"]) == 0
        second = capsys.readouterr()
        assert _tables_only(second.out) == _tables_only(first.out)
        assert "(cached)" in second.err
        assert "hit(s)" in second.err

    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["run", "bdp", "--jobs", "1", "--no-cache",
                     "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "pmnet-repro-run/1"
        assert payload["jobs"] == 1
        record = payload["experiments"]["bdp"]
        assert "BDP sizing" in record["output"]
        assert record["jobs"][0]["point"] == "table"
        assert record["jobs"][0]["error"] is None

    def test_cache_dir_flag_is_honored(self, tmp_path, capsys):
        cache_dir = tmp_path / "explicit-cache"
        assert main(["run", "bdp", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert any(cache_dir.rglob("*.pkl"))


class TestProfile:
    def test_prints_call_site_table(self, capsys):
        assert main(["profile", "--clients", "2", "--requests", "5"]) == 0
        out = capsys.readouterr().out
        assert "fold level 'whole'" in out
        assert "Channel._deliver" in out
        assert "TOTAL" in out

    def test_json_writes_enveloped_report(self, tmp_path):
        out = tmp_path / "profile.json"
        assert main(["profile", "--clients", "2", "--requests", "5",
                     "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "pmnet-repro-bench/1"
        assert report["id"] == "profile"
        assert report["payload"]["benchmark"] == "event_profile"
        assert report["payload"]["executed_events"] > 0
        assert "latency_samples" not in report["payload"]

    def test_no_fold_flag_profiles_unfolded_paths(self, capsys):
        assert main(["profile", "--clients", "2", "--requests", "5",
                     "--fold", "none"]) == 0
        out = capsys.readouterr().out
        assert "fold level 'none'" in out
        # The per-stage hops only execute on the unfolded paths.
        assert "Channel._serialized" in out or "Switch._forward" in out

    def test_fold_flag_selects_the_level(self, capsys):
        assert main(["profile", "--clients", "2", "--requests", "5",
                     "--fold", "whole"]) == 0
        out = capsys.readouterr().out
        assert "fold level 'whole'" in out
        # Only the whole level completes a single-waiter request inline.
        assert "PMNetClient._succeed_inline" in out

    @pytest.mark.parametrize("top", [3, 12])
    def test_top_sets_the_call_site_rows(self, top, tmp_path, capsys):
        report = tmp_path / "profile.json"
        assert main(["profile", "--clients", "2", "--requests", "5",
                     "--top", str(top), "--json", str(report)]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines)
                      if line.endswith("call site"))
        total = next(i for i, line in enumerate(lines)
                     if line.endswith("TOTAL"))
        assert total - header - 1 == top
        payload = json.loads(report.read_text())["payload"]
        assert len(payload["top_call_sites"]) == top

    @pytest.mark.parametrize("argv", [["--no-fold"], ["--fold", "stage"]])
    def test_retired_fold_spellings_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["profile", "--clients", "2", "--requests", "5", *argv])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("knob, value", [("PMNET_FOLD", "stage"),
                                             ("PMNET_NO_FOLD", "1"),
                                             ("PMNET_KERNEL", "heap")])
    def test_retired_env_knob_fails_loudly(self, knob, value, capsys,
                                           monkeypatch):
        monkeypatch.setenv(knob, value)
        assert main(["profile", "--clients", "2", "--requests", "5"]) == 1
        assert knob in capsys.readouterr().err


class TestMetrics:
    def test_prints_breakdown_and_writes_exports(self, tmp_path, capsys):
        json_path = tmp_path / "metrics.json"
        prom_path = tmp_path / "metrics.prom"
        assert main(["metrics", "--experiment", "fig02",
                     "--json", str(json_path),
                     "--prometheus", str(prom_path)]) == 0
        out = capsys.readouterr().out
        assert "fig02" in out
        assert "end-to-end" in out
        payload = json.loads(json_path.read_text())
        from repro.obs.export import parse_prometheus, validate_metrics
        assert payload["schema"] == "pmnet-repro-metrics/1"
        assert validate_metrics(payload) == []
        assert parse_prometheus(prom_path.read_text())

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["metrics", "--experiment", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err


class TestTrace:
    def test_dumps_filtered_records(self, capsys):
        assert main(["trace", "--experiment", "pmnet", "--component",
                     "pmnet1", "--limit", "5"]) == 0
        captured = capsys.readouterr()
        assert "pmnet1" in captured.out
        assert "matching record(s)" in captured.err


class TestCountFlags:
    """Count flags reject a bad value at parse time, exiting 2 and
    naming the flag: a non-positive count would otherwise run serially,
    run nothing, or slice records from the end of a list."""

    @pytest.mark.parametrize("argv, flag", [
        (["run", "bdp", "--jobs", "0"], "--jobs"),
        (["run", "bdp", "--jobs", "-3"], "--jobs"),
        (["run", "bdp", "--jobs", "two"], "--jobs"),
        (["chaos", "--jobs", "0"], "--jobs"),
        (["chaos", "--runs", "0"], "--runs"),
        (["chaos", "--jobs", "-1"], "--jobs"),
        (["trace", "--limit", "-5"], "--limit"),
        (["profile", "--top", "-1"], "--top"),
        (["profile", "--top", "0"], "--top"),
        (["profile", "--clients", "0"], "--clients"),
        (["profile", "--requests", "0"], "--requests"),
    ])
    def test_bad_count_exits_2_naming_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}" in captured.err
        assert captured.out == ""

    def test_trace_limit_zero_still_means_all(self, capsys):
        assert main(["trace", "--experiment", "pmnet", "--component",
                     "pmnet1", "--limit", "0"]) == 0
        summary = re.search(r"(\d+) of (\d+) matching",
                            capsys.readouterr().err)
        assert summary.group(1) == summary.group(2) != "0"
