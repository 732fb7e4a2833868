"""Tests of the benchmark itself (outside tier 1): ``pytest bench/tests``.

They run every workload at smoke size through the real worker process,
check that the layer map still covers the code it names, and pin the
comparison verdicts on synthetic inputs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: ``repro`` packages that are not layers, and why.
NOT_LAYERS = {
    "obs": "observability stays off in every benchmark run",
    "experiments": "runs only at set-up (build), which setup_s covers",
    "analysis": "post-processing, never imported by the workloads",
    "baselines": "the paper's comparison systems, not on PMNet's path",
}


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_at_smoke_size(name, spec):
    """Untraced and traced rounds pass every correctness check (the
    traced digest equals the untraced one) and yield every metric that
    ``BENCHMARK.json`` names, with no time outside the layers."""
    rounds = [run.run_worker(name, 1, run.SMOKE_SCALE, traced=False)]
    traced = run.run_worker(name, 1, run.SMOKE_SCALE, traced=True)
    run.check(name, rounds, traced)
    assert traced["digest"] == rounds[0]["digest"]
    result = run.workload_result(rounds, traced)
    assert set(result["e2e"]) == {
        metric["name"] for metric in spec["end_to_end"]}
    per_layer = result["per_layer"]
    assert set(per_layer) == {metric["name"] for metric in spec["per_layer"]}
    assert per_layer["other.cpu_share"] == 0.0
    assert set(traced["layer_events"]) <= set(layers.LAYERS)


def test_check_rejects_a_digest_mismatch():
    report = {"traced": False, "issued": 10, "completed": 10, "errors": 0,
              "seed": 3, "digest": "a"}
    with pytest.raises(run.BenchError, match="digest differs"):
        run.check("w", [report, dict(report, digest="b")], None)
    # Different seeds may differ.
    run.check("w", [report, dict(report, seed=4, digest="b")], None)
    with pytest.raises(run.BenchError, match="error rate"):
        run.check("w", [dict(report, errors=1)], None)


def test_virtual_metrics_pool_the_first_round_of_each_seed():
    def report(seed, latencies, steady):
        return {"seed": seed, "latencies_ns": latencies,
                "steady_requests": steady[0], "steady_ns": steady[1]}

    rounds = [report(2, [1000, 3000], (1, 1000)),
              report(1, [2000, 4000], (3, 1000)),
              # A repeat of seed 2: same samples, counted once.
              report(2, [1000, 3000], (1, 1000))]
    assert run.virtual_values(rounds) == {
        "sim_p50_us": 2.0, "sim_p99_us": 4.0, "sim_kops_per_s": 2000.0}
    assert [r["seed"] for r in run.first_per_seed(rounds)] == [1, 2]
    assert run.subseed(5, 0) != run.subseed(4, run.SUBSEEDS - 1)


def test_every_request_path_package_has_a_layer():
    packages = {path.parent.name for path in (SRC / "repro").glob("*/__init__.py")}
    assert packages - set(NOT_LAYERS) == set(layers.LAYERS)


def test_wrapped_entry_points_exist():
    """A renamed entry point must fail here, not silently zero a layer."""
    targets = list(layers.entry_points())
    assert {layer for _, layer in targets} <= set(layers.LAYERS)
    for target, _ in targets:
        assert callable(layers.resolve(target)[2]), target
    for target in layers.BARRIERS:
        assert callable(layers.resolve(target)[2]), target
    from repro.sim.kernel import Simulator

    sim = Simulator()
    for name in layers.SIM_ENTRY_POINTS:
        assert callable(getattr(sim, name)), name


def test_private_attributes_read_by_the_bench_exist():
    """The bench reads two private attributes: a sharded client's
    per-server sub-clients (exact counts, worker.py) and a coroutine
    process's generator (layer attribution, tracing.py)."""
    from repro.host.client import PMNetClient
    from repro.host.sharded import ShardedClient
    from repro.sim.kernel import Simulator

    run_ = workloads.prepare("fabric-chain", 1, run.SMOKE_SCALE)
    sharded = [client for client in run_.deployment.clients
               if isinstance(client, ShardedClient)]
    assert sharded
    for client in sharded:
        assert len(client._subclients) == len(client.servers)
        assert all(isinstance(sub, PMNetClient) for sub in client._subclients)

    def body():
        yield 1

    process = Simulator().spawn(body())
    assert process._generator.gi_frame.f_globals["__name__"] == __name__


def test_layer_of_module():
    assert layers.layer_of_module("repro.net.link") == "net"
    assert layers.layer_of_module("repro.obs.spans") == layers.OTHER
    assert layers.layer_of_module("builtins") == layers.OTHER


A10 = [100, 101, 99, 100, 100, 101, 99, 100, 100, 101]


@pytest.mark.parametrize("a, b, better, bound, expected", [
    # Same distribution: unchanged.
    ([100, 101, 99, 100], [100, 99, 101, 100], "higher", 0.1, "unchanged"),
    # B 20% lower on a higher-is-better metric: worse.
    ([100, 101, 99, 100], [80, 81, 79, 80], "higher", 0.1, "worse"),
    # B wins every one of ten pairs by more than A's spread: improved...
    (A10, [x + 5 for x in A10], "higher", 0.1, "improved"),
    # ...but fewer than ten pairs never claim a gain.
    (A10[:4], [x + 5 for x in A10[:4]], "higher", 0.1, "unchanged"),
    # Within the bound but only half the pairs won: unchanged.
    ([100, 101, 99, 100], [101, 99, 102, 98], "higher", 0.1, "unchanged"),
    # Spread wider than the bound: unresolved...
    ([100, 60, 140, 100], [90, 55, 130, 95], "higher", 0.1, "unresolved"),
    # ...unless every B run beats every A run.
    ([100, 90, 110, 95] * 3, [200, 190, 210, 195] * 3, "higher", 0.1,
     "improved"),
    # Lower is better.
    ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "lower", 0.1, "worse"),
    # An exact metric (bound 0) moves at all: worse.
    ([50.0, 50.0, 50.0], [50.001, 50.001, 50.001], "lower", 0.0, "worse"),
    ([50.0, 50.0, 50.0], [50.0, 50.0, 50.0], "lower", 0.0, "unchanged"),
])
def test_compare_verdict(a, b, better, bound, expected):
    assert compare.verdict(a, b, better, bound) == expected


def test_exact_metrics_have_no_spread():
    """Seeds 20% apart, each repeating exactly: a 2% move per seed is
    worse, not unresolved, and an unmoved one is unchanged."""
    a = [100.0, 120.0, 80.0, 110.0]
    assert compare.verdict(a, a, "lower", 0.01) == "unresolved"
    assert compare.verdict(a, a, "lower", 0.01, exact=True) == "unchanged"
    b = [x * 1.02 for x in a]
    assert compare.verdict(a, b, "lower", 0.01, exact=True) == "worse"


def test_compare_pairs_by_seed_and_flags_a_model_change(spec):
    def invocation(seed, digest, rate, p50):
        e2e = {metric["name"]: {"median": 1.0} for metric in spec["end_to_end"]}
        e2e["req_per_cpu_s"] = {"median": rate}
        e2e["sim_p50_us"] = {"median": p50}
        return {"seed": seed, "workloads": {"w": {"digest": digest,
                                                  "e2e": e2e}}}

    side_a = [invocation(1, "x1", 100, 20.0), invocation(2, "x2", 101, 30.0)]
    same = [invocation(2, "x2", 102, 30.0), invocation(1, "x1", 100, 20.0)]
    rows = compare.compare(side_a, same, spec)
    assert rows and not any(row["model_changed"] for row in rows)
    assert all(row["verdict"] == "unchanged" for row in rows)
    rate = next(row for row in rows if row["metric"] == "req_per_cpu_s")
    assert rate["won"] == 0.5

    changed = [invocation(1, "y1", 100, 20.0), invocation(2, "y2", 101, 31.0)]
    rows = compare.compare(side_a, changed, spec)
    assert all(row["model_changed"] for row in rows)
    p50 = next(row for row in rows if row["metric"] == "sim_p50_us")
    assert p50["verdict"] == "worse"
    with pytest.raises(ValueError, match="same seeds"):
        compare.compare(side_a, [invocation(3, "x1", 100, 20.0)] * 2, spec)
