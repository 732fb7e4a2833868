"""End-to-end pipeline benchmark: events/request across fold levels.

Runs the Fig 16 stress shape (many closed-loop clients hammering the
PMNet-switch deployment with 1000 B updates) twice in one process —
once per fold level (``none``, ``whole``) — with an
:class:`~repro.sim.profiler.EventProfiler` attached to each run.  The
result captures the whole point of the folded paths in a few numbers:

* **events/request** at each level (folding removes scheduled hops),
* **requests/sec of wall clock** at each level (fewer events -> faster),
* **latencies_identical** — every per-request latency sample must be
  byte-identical across all levels, the folding correctness bar, and
* **loadgen** — a flow-level closed-loop run with >= 10^4 modeled users
  proving the whole-request fold holds its event budget at user scale.

Two entry points use this module: ``pmnet-repro bench-pipeline``
(writes ``BENCH_pipeline.json``) and
``benchmarks/test_pipeline_events.py`` (guards the reduction floor).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.config import SystemConfig, fold_level
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.driver import run_closed_loop
from repro.sim.profiler import EventProfiler
from repro.workloads.kv import OpKind, Operation

#: Result file emitted by ``pmnet-repro bench-pipeline``.
BENCH_RESULT_FILE = "BENCH_pipeline.json"

PAYLOAD = 1000

#: The two fold levels: the reference timeline and the default.
FOLD_MODES = ("none", "whole")

#: The loadgen leg must model at least this many users in one run.
LOADGEN_MIN_USERS = 10_000


@contextmanager
def _fold_env(fold: str) -> Iterator[None]:
    """Set ``PMNET_FOLD`` — the switch users have, read at deployment
    construction time — for the duration of the block.  The level it
    replaces is validated first, so a stale setting fails loudly."""
    fold_level()
    previous = os.environ.get("PMNET_FOLD")
    os.environ["PMNET_FOLD"] = fold
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("PMNET_FOLD", None)
        else:
            os.environ["PMNET_FOLD"] = previous


def _run_mode(fold: str, clients: int, requests_per_client: int,
              seed: int, spans: bool = False) -> Dict[str, object]:
    """One measured run at fold level ``fold`` ("none"/"whole").

    ``spans=True`` attaches an :class:`~repro.obs.context.Observability`
    with the span recorder enabled — the overhead-guarantee benchmark
    variant: latencies and event counts must not move.
    """
    from repro.obs.context import Observability

    if fold not in FOLD_MODES:
        raise ValueError(f"fold must be one of {FOLD_MODES}, got {fold!r}")
    with _fold_env(fold):
        config = SystemConfig(seed=seed).with_clients(clients).with_payload(
            PAYLOAD)
        obs = Observability(spans=True) if spans else None
        deployment = build(DeploymentSpec(placement="switch"), config,
                           obs=obs)

    profiler = EventProfiler()
    deployment.sim.attach_profiler(profiler)

    def op_maker(ci: int, ri: int, rng):
        return Operation(OpKind.SET, key=(ci, ri), value=b"x"), PAYLOAD

    started = time.perf_counter()
    stats = run_closed_loop(deployment, op_maker,
                            requests_per_client=requests_per_client,
                            warmup_requests=5)
    wall_seconds = time.perf_counter() - started
    requests = stats.update_latencies.count
    return {
        "mode": fold,
        "requests": requests,
        "executed_events": deployment.sim.executed_events,
        "events_per_request": profiler.events_per_request(requests),
        "wall_seconds": wall_seconds,
        "requests_per_second": (requests / wall_seconds
                                if wall_seconds > 0 else 0.0),
        "top_call_sites": dict(profiler.top(10)),
        "kernel_stats": deployment.sim.kernel_stats(),
        "latency_samples": stats.update_latencies.samples,
    }


def _best_of(fold: str, clients: int, requests_per_client: int,
             seed: int, repeats: int, spans: bool = False) -> Dict[str, object]:
    """Repeat one fold level, keeping the least-disturbed wall clock.

    Event counts and latency samples are deterministic — identical on
    every repeat — so only the wall-clock fields take the best-of-N
    microbenchmark reduction."""
    best = _run_mode(fold, clients, requests_per_client, seed, spans)
    for _ in range(repeats - 1):
        again = _run_mode(fold, clients, requests_per_client, seed, spans)
        if again["wall_seconds"] < best["wall_seconds"]:
            best["wall_seconds"] = again["wall_seconds"]
            best["requests_per_second"] = again["requests_per_second"]
    return best


def _run_loadgen_floor(seed: int) -> Dict[str, object]:
    """The user-scale leg: >= 10^4 modeled closed-loop users through the
    flow-level generator, profiled under whole-request folding."""
    from repro.workloads.loadgen import LoadGenConfig, run_loadgen

    with _fold_env("whole"):
        config = SystemConfig(seed=seed).with_payload(PAYLOAD)
        deployment = build(DeploymentSpec(placement="switch"), config)

    profiler = EventProfiler()
    deployment.sim.attach_profiler(profiler)
    # window=8 keeps total in-flight at 512 (64 shards), comfortably
    # under the ~1.2k frames whose queueing delay would cross the 1 ms
    # client timeout and turn the measurement into a retransmission
    # storm; the other 9.5k users model think/wait state in O(1).
    loadgen = LoadGenConfig(mode="closed", users=LOADGEN_MIN_USERS,
                            total_requests=LOADGEN_MIN_USERS + 2_000,
                            window=8)
    result = run_loadgen(deployment, loadgen)
    return {
        "modeled_users": loadgen.users,
        "completed": result.completed,
        "events_per_request": profiler.events_per_request(result.completed),
        "ops_per_second": result.ops_per_second(),
        "sample_digest": result.digest(),
    }


def run_pipeline_benchmark(clients: int = 32, requests_per_client: int = 20,
                           seed: int = 0, repeats: int = 3,
                           spans: bool = False) -> Dict[str, object]:
    """Measure every fold level; return the comparison (JSON-ready)."""
    if clients <= 0 or requests_per_client <= 0 or repeats <= 0:
        raise ValueError(
            "clients, requests_per_client, and repeats must be positive")
    by_mode = {fold: _best_of(fold, clients, requests_per_client, seed,
                              repeats, spans)
               for fold in FOLD_MODES}
    samples = [mode.pop("latency_samples") for mode in by_mode.values()]
    identical = all(current == samples[0] for current in samples[1:])
    off = by_mode["none"]["events_per_request"]
    whole = by_mode["whole"]["events_per_request"]
    return {
        "benchmark": "pipeline_events",
        "clients": clients,
        "requests_per_client": requests_per_client,
        "seed": seed,
        "repeats": repeats,
        "spans": spans,
        # Historical key names: "fold" is the default level, "no_fold"
        # the fully unfolded reference.
        "fold": by_mode["whole"],
        "no_fold": by_mode["none"],
        "events_per_request_reduction": (off - whole) / off if off else 0.0,
        "latencies_identical": identical,
        "loadgen": _run_loadgen_floor(seed),
    }


def write_result(result: Dict[str, object],
                 path: Optional[str] = None) -> str:
    """Write the enveloped benchmark report as JSON; return the path."""
    from repro.obs.export import write_bench_report

    target = path or BENCH_RESULT_FILE
    return write_bench_report('pipeline', result, target, quick=True)


def format_result(result: Dict[str, object]) -> str:
    fold = result["fold"]
    no_fold = result["no_fold"]
    reduction = result["events_per_request_reduction"]
    loadgen = result["loadgen"]
    identical = ("identical" if result["latencies_identical"]
                 else "DIVERGED (bug!)")
    return "\n".join([
        f"pipeline events/request: {fold['events_per_request']:.2f} whole "
        f"vs {no_fold['events_per_request']:.2f} unfolded "
        f"({reduction:.1%} fewer)",
        f"wall-clock requests/sec: {fold['requests_per_second']:,.0f} whole "
        f"vs {no_fold['requests_per_second']:,.0f} unfolded",
        f"per-request latencies: {identical} across modes "
        f"({fold['requests']} requests, {result['clients']} clients)",
        f"loadgen floor: {loadgen['modeled_users']:,} modeled users, "
        f"{loadgen['events_per_request']:.2f} events/request",
    ])
