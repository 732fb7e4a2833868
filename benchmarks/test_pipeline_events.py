"""Events/request benchmark: the latency-folded path scorecard.

Runs the Fig 16 stress shape at every fold level and holds the folded
paths to their contract:

* **floor guard** — the whole-request fold must need at most 70 % of
  the unfolded run's events per request.  Event counts are
  deterministic, so this never trips on machine noise; it trips when
  someone un-folds a path.  The exact counts behind it are pinned in
  tier 1 (``tests/experiments/test_pipeline_bench.py``).
* **identity** — every per-request latency must match across levels.
* **loadgen floor** — the flow-level generator leg models >= 10^4
  closed-loop users and the whole fold holds its per-request event
  budget at that scale.

Run with:  pytest benchmarks/test_pipeline_events.py --benchmark-only -s
"""

from __future__ import annotations

from repro.experiments.pipeline_bench import (LOADGEN_MIN_USERS,
                                              format_result,
                                              run_pipeline_benchmark)

#: Whole-fold events/request over unfolded, at most.  The measured
#: ratio on the reference container is ~0.50; 0.70 is the floor the
#: fold tiers were built to beat.
MAX_EVENT_RATIO = 0.70

#: Events/request ceiling for the >= 10^4-user loadgen leg (measured:
#: ~24 on the reference container).
MAX_LOADGEN_EVENTS_PER_REQUEST = 30.0


def _assert_contract(result):
    assert result["latencies_identical"], (
        "fold levels produced different request latencies")
    whole = result["fold"]["events_per_request"]
    off = result["no_fold"]["events_per_request"]
    assert whole <= MAX_EVENT_RATIO * off, (
        f"whole fold spends {whole:.2f} events/request vs {off:.2f} "
        f"unfolded — ratio {whole / off:.2f} exceeds {MAX_EVENT_RATIO}")
    loadgen = result["loadgen"]
    assert loadgen["modeled_users"] >= LOADGEN_MIN_USERS
    assert loadgen["completed"] > loadgen["modeled_users"]
    assert (loadgen["events_per_request"]
            <= MAX_LOADGEN_EVENTS_PER_REQUEST), (
        f"loadgen leg spends {loadgen['events_per_request']:.2f} "
        f"events/request at {loadgen['modeled_users']:,} users — "
        f"ceiling is {MAX_LOADGEN_EVENTS_PER_REQUEST}")


class TestPipelineEvents:
    def test_fold_cuts_events_and_preserves_latencies(self, benchmark,
                                                      capsys):
        result = benchmark.pedantic(
            run_pipeline_benchmark,
            kwargs={"clients": 32, "requests_per_client": 20, "repeats": 1},
            rounds=1, iterations=1)
        with capsys.disabled():
            print(f"\n{format_result(result)}\n")
        _assert_contract(result)

    def test_floor_holds_with_spans_enabled(self, benchmark, capsys):
        """The observability overhead guarantee: recording lifecycle
        spans must not add events or move a single latency sample, so
        the folded-path floor holds unchanged with spans on."""
        result = benchmark.pedantic(
            run_pipeline_benchmark,
            kwargs={"clients": 32, "requests_per_client": 20, "repeats": 1,
                    "spans": True},
            rounds=1, iterations=1)
        with capsys.disabled():
            print(f"\n[spans enabled] {format_result(result)}\n")
        assert result["spans"] is True
        _assert_contract(result)
