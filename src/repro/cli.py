"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    pmnet-repro list                  # show every experiment id
    pmnet-repro run fig18             # regenerate one figure (quick)
    pmnet-repro run fig19 --full      # testbed-scale run (64 clients)
    pmnet-repro run all               # everything, quick sizes
    pmnet-repro run all --jobs 8      # fan sweep points across 8 cores
    pmnet-repro run all --json out.json   # machine-readable results too
    pmnet-repro profile               # where do the events go? (a
                                      #   per-call-site event report)
    pmnet-repro metrics --experiment fig02
                                      # span-derived per-stage latency
                                      #   breakdown (+ --json/--prometheus)
    pmnet-repro trace --experiment pmnet
                                      # dump the structured trace log
    pmnet-repro chaos --seed 7        # one seeded chaos run, verdict +
                                      #   trace digest
    pmnet-repro chaos --runs 48 --jobs 8 --json chaos.json
                                      # seed sweep; failing seeds are
                                      #   shrunk to minimal repros

``run`` executes every sweep point of every selected experiment as an
independent job (see ``repro.experiments.jobs``): points fan out over
``--jobs`` worker processes and completed points land in an on-disk
cache (``.pmnet-cache/`` by default), so re-running after editing one
experiment only re-simulates that experiment's points.  The formatted
tables are reassembled from the collected points and are byte-identical
to a serial run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.config import SystemConfig, reject_retired_knobs
from repro.errors import ConfigurationError
from repro.experiments.registry import EXPERIMENTS, get


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type`` for a count flag: an integer >= ``minimum``.

    A bad value exits 2 with argparse's ``argument --flag:`` prefix, so
    the message names the flag.
    """
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value

    return parse


#: ``--jobs``, ``--runs``, ``--top``, ``--clients``, ``--requests``.
_positive_int = _int_at_least(1)


def _cmd_list() -> int:
    width = max(len(eid) for eid in EXPERIMENTS)
    for eid in sorted(EXPERIMENTS):
        print(f"{eid.ljust(width)}  {EXPERIMENTS[eid].description}")
    return 0


def _cmd_run(experiment_ids: List[str], quick: bool, jobs: Optional[int],
             json_path: Optional[str], use_cache: bool,
             cache_dir: Optional[str]) -> int:
    from repro.experiments.cache import ResultCache
    from repro.experiments.parallel import default_jobs, run_jobs

    if experiment_ids == ["all"]:
        experiment_ids = sorted(EXPERIMENTS)
    # Validate every id up front: a typo at position N must not cost the
    # wall-clock of positions 0..N-1 before failing.
    entries = {}
    for eid in experiment_ids:
        try:
            entries[eid] = get(eid)
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2

    workers = jobs if jobs is not None else default_jobs()
    cache = ResultCache(cache_dir) if use_cache else None
    status = 0
    specs = []
    for eid in experiment_ids:
        try:
            specs.extend(entries[eid].jobs(quick=quick))
        except Exception as error:  # surface, keep going
            print(f"experiment {eid} failed: {error!r}", file=sys.stderr)
            status = 1
            entries.pop(eid)

    total = len(specs)
    done = {"count": 0}

    def progress(result) -> None:
        done["count"] += 1
        suffix = " (cached)" if result.cached else ""
        label = f"{result.spec.experiment}/{result.spec.point}"
        print(f"[job {done['count']}/{total}] {label}: "
              f"{result.elapsed_s:.2f}s{suffix}", file=sys.stderr)

    wall_started = time.time()
    results = run_jobs(specs, jobs=workers, cache=cache, progress=progress)
    wall_seconds = time.time() - wall_started

    report: Dict[str, dict] = {}
    for eid in experiment_ids:
        if eid not in entries:
            continue
        experiment = entries[eid]
        chunk = [r for r in results if r.spec.experiment == eid]
        elapsed = sum(r.elapsed_s for r in chunk)
        record = {
            "description": experiment.description,
            "seconds": round(elapsed, 3),
            "jobs": [{"point": r.spec.point,
                      "elapsed_s": round(r.elapsed_s, 3),
                      "cached": r.cached, "error": r.error}
                     for r in chunk],
        }
        print(f"=== {eid}: {experiment.description} ===")
        errors = [r for r in chunk if r.error is not None]
        if errors:
            for r in errors:
                print(f"experiment {eid} failed at {r.spec.point}: "
                      f"{r.error}", file=sys.stderr)
            status = 1
        else:
            try:
                record["output"] = experiment.assemble(chunk)
                print(record["output"])
            except Exception as error:  # surface, keep going
                print(f"experiment {eid} failed: {error!r}",
                      file=sys.stderr)
                status = 1
        print(f"--- {eid} done in {elapsed:.1f}s\n")
        report[eid] = record

    if cache is not None and (cache.hits or cache.stores):
        print(f"cache: {cache.hits} hit(s), {cache.misses} miss(es), "
              f"{cache.stores} store(s) under {cache.root}",
              file=sys.stderr)
    if json_path:
        payload = {
            "schema": "pmnet-repro-run/1",
            "quick": quick,
            "jobs": workers,
            "wall_seconds": round(wall_seconds, 3),
            "experiments": report,
        }
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {json_path}", file=sys.stderr)
    return status


def _cmd_metrics(scenario_id: str, json_path: Optional[str],
                 prometheus_path: Optional[str],
                 seed: Optional[int]) -> int:
    from repro.errors import ExperimentError
    from repro.experiments.instrumented import (SCENARIOS, format_breakdown,
                                                metrics_report,
                                                run_instrumented)
    from repro.obs.export import to_prometheus, validate_metrics
    if scenario_id not in SCENARIOS:
        print(f"unknown scenario {scenario_id!r}; choose from "
              f"{sorted(SCENARIOS)}", file=sys.stderr)
        return 2
    try:
        run = run_instrumented(scenario_id, seed=seed)
        payload = metrics_report(run)
    except ExperimentError as error:
        print(error, file=sys.stderr)
        return 1
    problems = validate_metrics(payload)
    if problems:
        for problem in problems:
            print(f"invalid metrics payload: {problem}", file=sys.stderr)
        return 1
    print(format_breakdown(payload))
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {json_path}", file=sys.stderr)
    if prometheus_path:
        with open(prometheus_path, "w", encoding="utf-8") as handle:
            handle.write(to_prometheus(payload["instruments"]))
        print(f"wrote {prometheus_path}", file=sys.stderr)
    return 0


def _cmd_trace(scenario_id: str, limit: int, component: Optional[str],
               event: Optional[str], seed: Optional[int]) -> int:
    from repro.errors import ExperimentError
    from repro.experiments.instrumented import SCENARIOS, run_instrumented
    if scenario_id not in SCENARIOS:
        print(f"unknown scenario {scenario_id!r}; choose from "
              f"{sorted(SCENARIOS)}", file=sys.stderr)
        return 2
    try:
        run = run_instrumented(scenario_id, trace=True, seed=seed)
    except ExperimentError as error:
        print(error, file=sys.stderr)
        return 1
    tracer = run.obs.tracer
    records = list(tracer.filter(component=component, event=event))
    shown = records[:limit] if limit else records
    for record in shown:
        print(record)
    summary = (f"{len(shown)} of {len(records)} matching record(s), "
               f"{len(tracer.records)} total")
    if tracer.dropped:
        summary += f", {tracer.dropped} dropped"
    print(summary, file=sys.stderr)
    return 0


def _cmd_profile(clients: int, requests: int, top: int,
                 json_path: Optional[str] = None) -> int:
    """Attribute the events of one Fig 16 stress point (the PMNet switch
    deployment, seed 0) to their call sites."""
    from repro.experiments.fig16_stress import stress
    from repro.sim.profiler import (EventProfiler, format_gc_stats,
                                    format_kernel_stats, gc_collections)

    profiler = EventProfiler()
    collections_before = gc_collections()
    deployment, stats = stress("pmnet-switch", SystemConfig(seed=0),
                               clients, requests, profiler=profiler)
    gc_counts = {generation: count - collections_before[generation]
                 for generation, count in gc_collections().items()}
    requests_done = stats.update_latencies.count
    executed = deployment.sim.executed_events
    events_per_request = profiler.events_per_request(requests_done)
    sites = profiler.top(top)
    kernel_stats = deployment.sim.kernel_stats()
    print(f"event profile — {clients} clients x {requests} requests")
    total = max(1, executed)
    print(f"{'events':>10}  {'share':>6}  {'per req':>8}  call site")
    for site, count in sites:
        print(f"{count:>10}  {count / total:>6.1%}  "
              f"{count / requests_done:>8.2f}  {site}")
    print(f"{executed:>10}  {'100%':>6}  {events_per_request:>8.2f}  TOTAL")
    print(format_kernel_stats(kernel_stats))
    print(format_gc_stats(gc_counts))
    if json_path is not None:
        from repro.obs.export import write_bench_report
        payload = {"benchmark": "event_profile", "clients": clients,
                   "requests_per_client": requests,
                   "requests": requests_done, "executed_events": executed,
                   "events_per_request": events_per_request,
                   "top_call_sites": dict(sites),
                   "kernel_stats": kernel_stats,
                   "gc_collections": gc_counts}
        written = write_bench_report("profile", payload, json_path,
                                     quick=True)
        print(f"wrote {written}", file=sys.stderr)
    return 0


def _cmd_rebalance(quick: bool, json_path: Optional[str]) -> int:
    """Run the rebalance experiment and check its acceptance envelope."""
    from repro.experiments import rebalance

    result = rebalance.run(quick=quick)
    print(result.format())
    status = 0
    steady_p99 = result.steady_p99_us()
    drain = result.points.get("drain-rack")
    if drain is not None and steady_p99 > 0:
        drained = drain.get("drained") or {}
        untouched = float(drain["untouched_p99_us"])
        within = untouched <= 1.10 * steady_p99
        print(f"drain-rack: untouched p99 {untouched:.2f}us vs steady "
              f"{steady_p99:.2f}us — {'within' if within else 'OUTSIDE'} "
              "the 10% envelope; drained rack "
              f"{'reached zero' if drained.get('drained_ok') else 'STILL HOLDS'}"
              " in-flight work and ring members")
        if not within or not drained.get("drained_ok"):
            status = 1
    if json_path:
        from repro.obs.export import write_bench_report
        payload = {"benchmark": "rebalance", "points": result.points,
                   "steady_p99_us": steady_p99}
        written = write_bench_report("rebalance", payload, json_path,
                                     quick=quick)
        print(f"wrote {written}", file=sys.stderr)
    return status


def _cmd_chaos(start_seed: int, runs: int, jobs: Optional[int],
               json_path: Optional[str], faults_arg: Optional[str],
               shrink_on_failure: bool, corpus_path: Optional[str],
               family: str) -> int:
    from repro.experiments.parallel import default_jobs, run_jobs
    from repro.failure import chaos

    if faults_arg is not None and runs != 1:
        print("--faults replays one schedule; use it with --runs 1",
              file=sys.stderr)
        return 2
    if corpus_path:  # reject a malformed corpus before any seed runs
        try:
            chaos.load_corpus(corpus_path)
        except ConfigurationError as error:
            print(error, file=sys.stderr)
            return 2

    values: List[dict]
    if runs == 1 and faults_arg is not None:
        plan = chaos.generate_plan(start_seed, family)
        try:
            indices = chaos.parse_fault_selector(faults_arg,
                                                 len(plan.faults))
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
        values = [chaos.run_plan(plan, indices).to_dict()]
    else:
        specs = chaos.jobs(quick=True, start_seed=start_seed, runs=runs,
                           family=family)
        workers = jobs if jobs is not None else default_jobs()

        def progress(result) -> None:
            print(f"[{result.spec.point}] "
                  f"{result.elapsed_s:.2f}s", file=sys.stderr)

        results = run_jobs(specs, jobs=workers, cache=None,
                           progress=progress if runs > 1 else None)
        errored = [r for r in results if r.error is not None]
        for result in errored:
            print(f"chaos {result.spec.point} crashed: {result.error}",
                  file=sys.stderr)
        if errored:
            return 1
        if runs > 1:
            print(chaos.assemble(results))
        values = sorted((r.value for r in results),
                        key=lambda v: v["seed"])

    status = 0
    repros: Dict[int, str] = {}
    for value in values:
        if runs == 1:
            print(value["plan"])
            print(f"verdict: {'clean' if value['ok'] else 'FAIL'} — "
                  f"{value['completions']} completion(s), "
                  f"{value['trace_events']} trace event(s), "
                  f"digest {value['trace_digest']}")
        if value["ok"]:
            continue
        status = 1
        for violation in value["violations"]:
            print(f"seed {value['seed']}: {violation}")
        if shrink_on_failure:
            minimal = chaos.shrink(chaos.generate_plan(value["seed"],
                                                       family))
            line = chaos.repro_line(minimal)
            repros[value["seed"]] = line
            print(f"seed {value['seed']}: minimal repro: {line}")
        if corpus_path:
            try:
                if chaos.append_to_corpus(corpus_path, family, value["seed"],
                                          note=value["violations"][0][:70]):
                    print(f"{family} seed {value['seed']} appended to "
                          f"{corpus_path}", file=sys.stderr)
            except OSError as error:
                print(f"could not update corpus {corpus_path}: {error}",
                      file=sys.stderr)

    if json_path:
        from repro.obs.export import write_bench_report
        payload = {
            "benchmark": "chaos",
            "start_seed": start_seed,
            "runs": runs,
            "family": family,
            "clean": sum(1 for v in values if v["ok"]),
            "failing_seeds": [v["seed"] for v in values if not v["ok"]],
            "repros": {str(seed): line for seed, line in repros.items()},
            "results": values,
        }
        written = write_bench_report("chaos", payload, json_path,
                                     quick=True)
        print(f"wrote {written}", file=sys.stderr)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pmnet-repro",
        description="PMNet (ISCA 2021) reproduction harness")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run experiments by id")
    run_parser.add_argument("experiments", nargs="+",
                            help="experiment ids (or 'all')")
    run_parser.add_argument("--full", action="store_true",
                            help="testbed-scale sizes (64 clients; slow)")
    run_parser.add_argument("--jobs", type=_positive_int,
                            default=None, metavar="N",
                            help="worker processes for sweep points "
                                 "(default: all cores; 1 = serial)")
    run_parser.add_argument("--json", default=None, metavar="PATH",
                            dest="json_path",
                            help="also write results as JSON to PATH")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="skip the on-disk result cache")
    run_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="result cache root (default .pmnet-cache, "
                                 "or $PMNET_CACHE_DIR)")
    profile_parser = sub.add_parser(
        "profile",
        help="attribute executed events to call sites on the stress "
             "workload")
    profile_parser.add_argument("--clients", type=_positive_int, default=32,
                                help="closed-loop clients (default 32)")
    profile_parser.add_argument("--requests", type=_positive_int, default=20,
                                help="requests per client (default 20)")
    profile_parser.add_argument("--top", type=_positive_int, default=15,
                                help="call sites to show (default 15)")
    profile_parser.add_argument("--json", "--output", default=None,
                                dest="output", metavar="PATH",
                                help="also write the enveloped profile "
                                     "report as JSON to PATH")
    metrics_parser = sub.add_parser(
        "metrics",
        help="run an instrumented scenario and print the span-derived "
             "per-stage latency breakdown")
    metrics_parser.add_argument("--experiment", default="fig02",
                                metavar="ID", dest="scenario",
                                help="scenario id (default fig02; see "
                                     "docs/observability.md)")
    metrics_parser.add_argument("--json", default=None, metavar="PATH",
                                dest="json_path",
                                help="write the pmnet-repro-metrics/1 "
                                     "payload to PATH")
    metrics_parser.add_argument("--prometheus", default=None, metavar="PATH",
                                help="write Prometheus text format to PATH")
    metrics_parser.add_argument("--seed", type=int, default=None,
                                help="override the scenario seed")
    trace_parser = sub.add_parser(
        "trace",
        help="run an instrumented scenario with tracing on and dump the "
             "structured trace log")
    trace_parser.add_argument("--experiment", default="fig02",
                              metavar="ID", dest="scenario",
                              help="scenario id (default fig02)")
    trace_parser.add_argument("--limit", type=_int_at_least(0), default=100,
                              help="records to print (default 100; 0 = all)")
    trace_parser.add_argument("--component", default=None,
                              help="only records from this component")
    trace_parser.add_argument("--event", default=None,
                              help="only records with this event name")
    trace_parser.add_argument("--seed", type=int, default=None,
                              help="override the scenario seed")
    rebalance_parser = sub.add_parser(
        "rebalance",
        help="tail latency under live session migration: steady baseline "
             "vs drain-rack / failover / hot-shard, with the 10%% "
             "untouched-shard envelope check")
    rebalance_parser.add_argument("--full", action="store_true",
                                  help="full-scale run (10^5 users)")
    rebalance_parser.add_argument("--json", default=None, metavar="PATH",
                                  dest="json_path",
                                  help="write the pmnet-repro-bench/1 "
                                       "report to PATH")
    chaos_parser = sub.add_parser(
        "chaos",
        help="seeded chaos sweep: random deployments + fault schedules "
             "checked against R1-R6 and the durability oracle")
    chaos_parser.add_argument("--seed", type=int, default=0,
                              help="first chaos seed (default 0)")
    chaos_parser.add_argument("--runs", type=_positive_int, default=1,
                              help="consecutive seeds to run (default 1)")
    chaos_parser.add_argument("--jobs", type=_positive_int,
                              default=None, metavar="N",
                              help="worker processes for the sweep "
                                   "(default: all cores; 1 = serial)")
    chaos_parser.add_argument("--json", default=None, metavar="PATH",
                              dest="json_path",
                              help="write the pmnet-repro-bench/1 report "
                                   "to PATH")
    chaos_parser.add_argument("--faults", default=None, metavar="SELECTOR",
                              help="replay a subset of the fault schedule: "
                                   "'all', 'none', or comma-separated "
                                   "indices (requires --runs 1)")
    chaos_parser.add_argument("--family", default="rack",
                              choices=("rack", "fabric", "control"),
                              help="plan family (default rack; see "
                                   "docs/chaos.md)")
    chaos_parser.add_argument("--no-shrink", action="store_true",
                              help="report failures without bisecting the "
                                   "fault schedule to a minimal repro")
    chaos_parser.add_argument("--corpus", default="tests/failure/"
                              "chaos_corpus.txt", metavar="PATH",
                              help="regression corpus failing seeds are "
                                   "appended to ('' disables)")
    args = parser.parse_args(argv)
    try:
        reject_retired_knobs()
    except ConfigurationError as error:
        print(error, file=sys.stderr)
        return 1
    if args.command == "list":
        return _cmd_list()
    if args.command == "profile":
        return _cmd_profile(args.clients, args.requests, args.top,
                            args.output)
    if args.command == "metrics":
        return _cmd_metrics(args.scenario, args.json_path, args.prometheus,
                            args.seed)
    if args.command == "trace":
        return _cmd_trace(args.scenario, args.limit, args.component,
                          args.event, args.seed)
    if args.command == "chaos":
        return _cmd_chaos(args.seed, args.runs, args.jobs, args.json_path,
                          args.faults, not args.no_shrink,
                          args.corpus or None, family=args.family)
    if args.command == "rebalance":
        return _cmd_rebalance(quick=not args.full, json_path=args.json_path)
    return _cmd_run(args.experiments, quick=not args.full, jobs=args.jobs,
                    json_path=args.json_path, use_cache=not args.no_cache,
                    cache_dir=args.cache_dir)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
