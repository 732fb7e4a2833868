"""The repo benchmark: four request-path workloads, measured end to end
and layer by layer.

    python3 bench/run.py [--seed N] [--out FILE]     # every workload
    python3 bench/run.py --smoke                     # the same at 1/20 size
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs one workload in a fresh single-threaded process
(``worker.py``), one process at a time, with the ``PMNET_*`` knobs
stripped so users' defaults are measured.  A seed stands for
``SUBSEEDS`` simulator seeds derived from it; round ``i`` runs the
``i mod SUBSEEDS``-th.  The virtual-time metrics pool the samples of
one round of each, so they are exact for a seed; host-time metrics are
the median over rounds.

Without ``--workload`` the run makes three round-robin rounds of every
workload, then one traced round each, and prints every metric as
``workload metric value unit`` (host-time metrics with their quartiles
and round count).  With ``--workload`` it repeats untraced rounds of
that workload for about ``--seconds`` (at least ``SUBSEEDS + 1``, so
one seed always runs twice), adds a traced round when ``--trace 1``,
and ends with one JSON line: the end-to-end metrics for ``--trace 0``,
the per-layer metrics for ``--trace 1``.

Any failed correctness check exits non-zero before a metric is printed.
Metric names, units and bounds live in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from heapq import merge
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from layers import LAYERS, OTHER, TRACE
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Simulator seeds per benchmark seed.  Pooling three runs' samples
#: cuts the seed-to-seed spread of the virtual-time metrics by about
#: 1/sqrt(3): p99 moved up to 1% between single seeds, against a 1%
#: bound.
SUBSEEDS = 3
SMOKE_SCALE = 0.05
#: A full-size round takes about 4 s here; a hung one is killed.
WORKER_TIMEOUT_S = 60
#: The traced run's layer buckets must add up to its measured CPU.
ATTRIBUTION_TOLERANCE = 0.05
#: Metrics measured in host time, one value per round.  The others are
#: virtual-time metrics over the pooled samples, exact for a seed.
HOST_METRICS = ("req_per_cpu_s", "setup_s", "peak_rss_mb")


class BenchError(Exception):
    """A workload run failed, or one of its outputs was wrong."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def subseed(seed: int, index: int) -> int:
    """The simulator seed of round ``index`` (distinct for every pair)."""
    return seed * SUBSEEDS + index % SUBSEEDS


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def worker_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PMNET_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_worker(workload: str, seed: int, scale: float,
               traced: bool) -> dict:
    """One round of ``workload`` in a fresh process; its raw report."""
    command = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
               repr(scale), "1" if traced else "0"]
    try:
        done = subprocess.run(command, env=worker_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: round exceeded {WORKER_TIMEOUT_S} s")
    if done.returncode != 0:
        raise BenchError(f"{workload}: worker exited {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def timed_rounds(workload: str, seed: int, seconds: float) -> List[dict]:
    """Untraced rounds until the next one would overrun ``seconds``."""
    rounds: List[dict] = []
    started = time.perf_counter()
    while True:
        rounds.append(run_worker(workload, subseed(seed, len(rounds)), 1.0,
                                 traced=False))
        elapsed = time.perf_counter() - started
        if (len(rounds) > SUBSEEDS
                and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
            return rounds


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def error_rate(report: dict) -> float:
    lost = report["issued"] - report["completed"]
    return (report["errors"] + lost) / report["issued"]


def check(workload: str, rounds: Sequence[dict],
          traced: Optional[dict]) -> None:
    """Raise :class:`BenchError` listing every check that failed."""
    problems = []
    reports = list(rounds) + ([traced] if traced is not None else [])
    for report in reports:
        kind = "traced" if report["traced"] else "untraced"
        if report["completed"] != report["issued"]:
            problems.append(f"{kind}: issued {report['issued']} but "
                            f"completed {report['completed']}")
        if error_rate(report) > 0:
            problems.append(f"{kind}: error rate {error_rate(report):.4g}")
        failover = report.get("failover")
        if failover is not None:
            if failover["migration_in_flight"]:
                problems.append(f"{kind}: ended with a migration in flight")
            if failover["victim_owners"]:
                problems.append(f"{kind}: the power-cut server still owns "
                                f"{failover['victim_owners']} ring members")
            if failover["migrations"] != 1:
                problems.append(f"{kind}: {failover['migrations']} "
                                "migrations, expected 1")
    digests: Dict[int, set] = {}
    for report in rounds:
        digests.setdefault(report["seed"], set()).add(report["digest"])
    if any(len(seen) > 1 for seen in digests.values()):
        problems.append("sample digest differs across rounds of one seed")
    if traced is not None:
        if traced["digest"] not in digests.get(traced["seed"], ()):
            problems.append("traced sample digest differs from untraced")
        attributed = sum(traced["layer_cpu_s"].values())
        if abs(attributed - traced["cpu_s"]) > (
                ATTRIBUTION_TOLERANCE * traced["cpu_s"]):
            problems.append(f"layer times sum to {attributed:.3f} s but the "
                            f"traced run used {traced['cpu_s']:.3f} s of CPU")
    if problems:
        raise BenchError(f"{workload}: " + "; ".join(problems))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def nearest_rank(ordered: Sequence[int], quantile: float) -> int:
    return ordered[max(1, math.ceil(quantile * len(ordered))) - 1]


def host_values(report: dict) -> Dict[str, float]:
    """One round's host-time metrics."""
    return {
        "req_per_cpu_s": report["completed"] / report["reference_cpu_s"],
        "setup_s": report["setup_s"],
        "peak_rss_mb": report["peak_rss_mb"],
    }


def first_per_seed(rounds: Sequence[dict]) -> List[dict]:
    """The first round of each seed, in seed order."""
    firsts: Dict[int, dict] = {}
    for report in rounds:
        firsts.setdefault(report["seed"], report)
    return [firsts[seed] for seed in sorted(firsts)]


def virtual_values(rounds: Sequence[dict]) -> Dict[str, float]:
    """Virtual-time metrics over the pooled samples of every seed."""
    firsts = first_per_seed(rounds)
    pooled = list(merge(*(report["latencies_ns"] for report in firsts)))
    steady_requests = sum(report["steady_requests"] for report in firsts)
    steady_ns = sum(report["steady_ns"] for report in firsts)
    return {
        "sim_p50_us": nearest_rank(pooled, 0.50) / 1000.0,
        "sim_p99_us": nearest_rank(pooled, 0.99) / 1000.0,
        "sim_kops_per_s": steady_requests / steady_ns * 1e6,
    }


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles``, n=4)."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def layer_metrics(rounds: Sequence[dict], traced: dict) -> Dict[str, float]:
    """Per-layer metrics: CPU from the traced round, exact counts from
    an untraced round of the same seed (their digests match)."""
    completed = traced["completed"]
    cpu = traced["layer_cpu_s"]
    total = traced["cpu_s"]
    same_seed = [report for report in rounds
                 if report["seed"] == traced["seed"]]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.cpu_us_per_req"] = cpu.get(layer, 0.0) / completed * 1e6
        metrics[f"{layer}.cpu_share"] = cpu.get(layer, 0.0) / total
        metrics[f"{layer}.dispatches_per_req"] = (
            traced["layer_events"].get(layer, 0) / completed)
    metrics["other.cpu_share"] = cpu.get(OTHER, 0.0) / total
    metrics["trace.cpu_share"] = cpu.get(TRACE, 0.0) / total
    metrics["trace.overhead"] = total / statistics.median(
        report["cpu_s"] for report in same_seed)
    counts = same_seed[0]["counts"]
    ticks = counts["control.ticks"]
    metrics["control.cpu_us_per_tick"] = (
        cpu.get("control", 0.0) / ticks * 1e6 if ticks else 0.0)
    metrics.update(counts)
    return metrics


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def workload_result(rounds: List[dict], traced: Optional[dict]) -> dict:
    firsts = first_per_seed(rounds)
    per_round = [host_values(report) for report in rounds]
    e2e = {name: spread([values[name] for values in per_round])
           for name in HOST_METRICS}
    e2e.update({name: spread([value])
                for name, value in virtual_values(rounds).items()})
    samples = sum(len(report["latencies_ns"]) for report in firsts)
    result = {
        "kernel": rounds[0]["kernel"], "fold_level": rounds[0]["fold_level"],
        "seeds": [report["seed"] for report in firsts],
        "digest": hashlib.sha256("".join(
            report["digest"] for report in firsts).encode()).hexdigest()[:16],
        "samples": samples,
        "beyond_p99": samples - math.ceil(0.99 * samples),
        "rounds": per_round, "e2e": e2e}
    if traced is not None:
        result["per_layer"] = layer_metrics(rounds, traced)
    return result


def print_workload(name: str, result: dict, spec: dict) -> None:
    print(f"# {name}: kernel={result['kernel']} "
          f"fold_level={result['fold_level']} seeds={result['seeds']} "
          f"digest={result['digest']}")
    for metric in spec["end_to_end"]:
        stats = result["e2e"][metric["name"]]
        if metric["name"] in HOST_METRICS:
            extra = (f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} "
                     f"n={stats['n']}")
        else:
            extra = (f"exact samples={result['samples']} "
                     f"beyond_p99={result['beyond_p99']}")
        print(f"{name} {metric['name']} {stats['median']:.6g} "
              f"{metric['unit']} {extra}")
    for metric in spec["per_layer"] if "per_layer" in result else ():
        print(f"{name} {metric['name']} "
              f"{result['per_layer'][metric['name']]:.6g} {metric['unit']}")


def contract_line(rounds: List[dict], traced: Optional[dict],
                  result: dict, spec: dict) -> str:
    """The final JSON line: end-to-end metrics, or per-layer when traced."""
    if traced is None:
        chosen = spec["end_to_end"]
        values = {name: stats["median"]
                  for name, stats in result["e2e"].items()}
    else:
        chosen = spec["per_layer"]
        values = result["per_layer"]
    reports = list(rounds) + ([traced] if traced is not None else [])
    attempted = sum(report["issued"] for report in reports)
    failed = sum(report["errors"] + report["issued"] - report["completed"]
                 for report in reports)
    return json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in chosen}})


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Exit through the interpreter on SIGTERM, so subprocess.run kills
    # and reaps the round in flight instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=16,
                        help="with --workload: how long to repeat rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 size")
    parser.add_argument("--out", help="also write the results as JSON")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload and args.smoke:
        parser.error("--smoke runs every workload; drop --workload")
    if not (SRC / "repro").is_dir():
        print(f"run.py: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    scale = SMOKE_SCALE if args.smoke else 1.0
    results = {}
    try:
        if args.workload:
            name = args.workload
            rounds = timed_rounds(name, args.seed, args.seconds)
            traced = (run_worker(name, subseed(args.seed, 0), scale,
                                 traced=True)
                      if args.trace else None)
            check(name, rounds, traced)
            results[name] = workload_result(rounds, traced)
        else:
            names = list(WORKLOADS)
            all_rounds: Dict[str, List[dict]] = {name: [] for name in names}
            for index in range(SUBSEEDS):
                for name in names:
                    all_rounds[name].append(run_worker(
                        name, subseed(args.seed, index), scale, traced=False))
            for name in names:
                traced = run_worker(name, subseed(args.seed, 0), scale,
                                    traced=True)
                check(name, all_rounds[name], traced)
                results[name] = workload_result(all_rounds[name], traced)
    except BenchError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    for name, result in results.items():
        print_workload(name, result, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "scale": scale,
                       "workloads": results}, handle, indent=1,
                      sort_keys=True)
    if args.workload:
        print(contract_line(rounds, traced, results[args.workload], spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
