"""Scale-out: fabric tail latency vs shards, chain length, hop cost.

The tentpole question for the multi-rack fabric (Sec VII's "what if the
store outgrows one rack?"): what do 10^4+ closed-loop users *feel* as
the deployment scales out?  Three sweep axes, each a one-line change of
the :class:`~repro.experiments.deploy.DeploymentSpec`:

* **shard count** — more racks x servers spread the consistent-hash
  ring; per-shard load drops, tail latency should hold;
* **chain length** — every extra chain member adds a store-and-forward
  PM write plus a cross-rack hop before the tail's early ACK;
* **cross-rack hop cost** — the leaf-spine propagation override
  (``spine_propagation_ns``) prices the spine fabric, and chained
  writes pay it once per chain hop.

Load is the flow-level generator (``repro.workloads.loadgen``): each
client host is a shard multiplexing thousands of virtual users, so the
quick sweep already models >= 10^4 users per point.  Reported latencies
are p50/p99 over the canonical sample table, whose digest is the
byte-identity surface the determinism suite compares across fold
levels and worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.report import format_table
from repro.config import SystemConfig
from repro.experiments.common import Scale
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.jobs import JobResult, JobSpec, execute_serial
from repro.workloads.loadgen import LoadGenConfig, LoadGenResult, run_loadgen

#: Modeled closed-loop users per point (the acceptance floor is 10^4).
QUICK_USERS = 12_000
FULL_USERS = 100_000

#: The swept fabric shapes: name -> DeploymentSpec params overrides.
#: The pivot point (4 shards, chain 3, default hop) appears once per
#: axis family so every axis reads against the same reference.
SWEEP: Dict[str, Dict[str, object]] = {
    # Axis 1: shard count (chain 3 throughout).
    "shards=2/chain=3": dict(racks=2, devices_per_rack=2,
                             servers_per_rack=1, chain_length=3),
    "shards=4/chain=3": dict(racks=2, devices_per_rack=2,
                             servers_per_rack=2, chain_length=3),
    "shards=6/chain=3": dict(racks=3, devices_per_rack=1,
                             servers_per_rack=2, chain_length=3),
    # Axis 2: chain length (4 shards throughout).
    "shards=4/chain=1": dict(racks=2, devices_per_rack=2,
                             servers_per_rack=2, chain_length=1),
    "shards=4/chain=2": dict(racks=2, devices_per_rack=2,
                             servers_per_rack=2, chain_length=2),
    # Axis 3: cross-rack hop cost (4 shards, chain 3).
    "shards=4/chain=3/hop=2us": dict(racks=2, devices_per_rack=2,
                                     servers_per_rack=2, chain_length=3,
                                     spine_propagation_ns=2_000),
    "shards=4/chain=3/hop=10us": dict(racks=2, devices_per_rack=2,
                                      servers_per_rack=2, chain_length=3,
                                      spine_propagation_ns=10_000),
}

#: Client hosts (= loadgen shards) per rack.
CLIENTS_PER_RACK = 2


def _spec_for(overrides: Dict[str, object]) -> DeploymentSpec:
    return DeploymentSpec(placement="switch",
                          clients_per_rack=CLIENTS_PER_RACK,
                          **overrides)  # type: ignore[arg-type]


def _loadgen_for(quick: bool) -> LoadGenConfig:
    if quick:
        return LoadGenConfig(mode="closed", users=QUICK_USERS,
                             total_requests=2_400, window=32,
                             warmup_requests=8)
    return LoadGenConfig(mode="closed", users=FULL_USERS,
                         total_requests=40_000, window=128,
                         warmup_requests=32)


def percentile_ns(result: LoadGenResult, quantile: float) -> int:
    """Nearest-rank percentile over the canonical sample table."""
    rows = sorted(latency for latencies in result.samples.values()
                  for latency in latencies)
    if not rows:
        return 0
    rank = max(1, math.ceil(quantile * len(rows)))
    return rows[rank - 1]


@dataclass
class ScaleoutResult:
    """Per-point tail-latency summaries keyed by sweep point name."""

    points: Dict[str, Dict[str, object]]

    def format(self) -> str:
        headers = ["point", "shards", "chain", "hop ns", "users",
                   "completed", "p50 us", "p99 us", "ops/s", "digest"]
        rows: List[List[object]] = []
        for name in SWEEP:
            summary = self.points.get(name)
            if summary is None:
                continue
            rows.append([
                name, summary["shards"], summary["chain_length"],
                summary["spine_propagation_ns"] or "-",
                summary["modeled_users"], summary["completed"],
                round(summary["p50_us"], 2), round(summary["p99_us"], 2),
                round(summary["ops_per_second"]), summary["digest"]])
        return format_table(
            headers, rows,
            title="Scale-out — fabric tail latency vs shards / chain / "
                  "hop cost")


def jobs(config: SystemConfig = None,  # type: ignore[assignment]
         quick: bool = True) -> List[JobSpec]:
    """One job per fabric sweep point."""
    cfg = config if config is not None else SystemConfig()
    quick = Scale.resolve_quick(quick)
    loadgen = _loadgen_for(quick)
    return [JobSpec(experiment="scaleout", point=name,
                    params={"point": name,
                            "spec": _spec_for(overrides).to_params(),
                            "loadgen": loadgen.to_params()},
                    seed=cfg.seed, quick=quick, config=config)
            for name, overrides in SWEEP.items()]


def run_point(spec: JobSpec) -> Dict[str, object]:
    """Drive one fabric shape with flow-level users; JSON-safe summary."""
    cfg = spec.resolved_config()
    deploy_spec = DeploymentSpec.from_params(spec.params["spec"])
    loadgen = LoadGenConfig.from_params(spec.params["loadgen"])
    deployment = build(deploy_spec,
                       cfg.with_payload(loadgen.payload_bytes))
    result = run_loadgen(deployment, loadgen)
    shards = deploy_spec.racks * deploy_spec.servers_per_rack
    return {
        "point": spec.params["point"],
        "shards": shards,
        "chain_length": deploy_spec.chain_length,
        "spine_propagation_ns": deploy_spec.spine_propagation_ns,
        "modeled_users": result.modeled_users,
        "completed": result.completed,
        "errors": result.errors,
        "p50_us": percentile_ns(result, 0.50) / 1000.0,
        "p99_us": percentile_ns(result, 0.99) / 1000.0,
        "ops_per_second": result.ops_per_second(),
        "mean_latency_us": result.mean_latency_us(),
        "digest": result.digest(),
    }


def assemble(results: Sequence[JobResult]) -> ScaleoutResult:
    return ScaleoutResult({result.spec.params["point"]: result.value
                           for result in results})


def run(config: SystemConfig = None,  # type: ignore[assignment]
        quick: bool = True) -> ScaleoutResult:
    return assemble(execute_serial(jobs(config, quick), run_point))
