"""Figure 21: update latency in a 3-way replication system.

Three chained PMNet switches log every update (the client waits for all
three PMNet-ACKs); the baseline is a primary server that synchronously
commits to two replica servers before acknowledging.  Claims:

* in-network replication beats server-side replication ~5.88x on
  average (the per-switch persists overlap, Fig 9b);
* 3-way PMNet costs only ~16 % over single-log PMNet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.analysis.report import format_table
from repro.analysis.stats import geometric_mean
from repro.config import SystemConfig
from repro.experiments.common import Scale
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.driver import run_closed_loop
from repro.experiments.jobs import JobResult, JobSpec, execute_serial
from repro.host.handler import IdealHandler
from repro.workloads.handlers import StructureHandler
from repro.workloads.pmdk.btree import PMBTree
from repro.workloads.pmdk.hashmap import PMHashmap
from repro.workloads.redis import RedisHandler
from repro.workloads.ycsb import YCSBConfig, make_op_maker

WORKLOAD_HANDLERS: Dict[str, Callable] = {
    "ideal": lambda cfg: IdealHandler(cfg.server.ideal_handler_ns),
    "hashmap": lambda cfg: StructureHandler(PMHashmap()),
    "btree": lambda cfg: StructureHandler(PMBTree()),
    "redis": lambda cfg: RedisHandler(),
}


@dataclass
class Fig21Result:
    #: workload -> {design: mean update latency us}.
    latencies: Dict[str, Dict[str, float]]

    def replication_speedup(self, workload: str) -> float:
        row = self.latencies[workload]
        return row["server-replication-3x"] / row["pmnet-3x"]

    def average_speedup(self) -> float:
        return geometric_mean([self.replication_speedup(w)
                               for w in self.latencies])

    def pmnet_replication_overhead(self, workload: str = "ideal") -> float:
        row = self.latencies[workload]
        return row["pmnet-3x"] / row["pmnet-1x"] - 1.0

    def format(self) -> str:
        headers = ["workload", "pmnet-1x us", "pmnet-3x us",
                   "server-repl-3x us", "speedup", "pmnet overhead %"]
        rows = []
        for workload, row in self.latencies.items():
            rows.append([
                workload,
                round(row["pmnet-1x"], 2),
                round(row["pmnet-3x"], 2),
                round(row["server-replication-3x"], 2),
                round(self.replication_speedup(workload), 2),
                round(100 * self.pmnet_replication_overhead(workload), 1),
            ])
        body = format_table(headers, rows,
                            title="Fig 21 — 3-way replication latency")
        return (f"{body}\n\ngeomean speedup over server-side replication: "
                f"{self.average_speedup():.2f}x  (paper: 5.88x)")


#: design -> the deployment that builds it.
DESIGN_SPECS = {
    "pmnet-1x": DeploymentSpec(placement="switch"),
    "pmnet-3x": DeploymentSpec(placement="switch", chain_length=3),
    "server-replication-3x": DeploymentSpec(placement="server-replication",
                                            chain_length=3),
}
DESIGNS = tuple(DESIGN_SPECS)


def jobs(config: SystemConfig = None, quick: bool = True,  # type: ignore[assignment]
         workloads=None) -> List[JobSpec]:
    """One job per (workload, replication design) point."""
    cfg = config if config is not None else SystemConfig()
    quick = Scale.resolve_quick(quick)
    selected = workloads or list(WORKLOAD_HANDLERS)
    return [JobSpec(experiment="fig21",
                    point=f"workload={name}/design={design}",
                    params={"workload": name, "design": design},
                    seed=cfg.seed, quick=quick, config=config)
            for name in selected for design in DESIGNS]


def run_point(spec: JobSpec) -> float:
    """Mean update latency (us) of one workload under one design."""
    cfg = spec.resolved_config()
    scale = Scale.exact(spec.quick)
    make_handler = WORKLOAD_HANDLERS[spec.params["workload"]]
    sized = cfg.with_clients(scale.clients)
    deployment = build(DESIGN_SPECS[spec.params["design"]], sized,
                       handler=make_handler(cfg))
    op_maker = make_op_maker(YCSBConfig(update_ratio=1.0,
                                        payload_bytes=cfg.payload_bytes))
    stats = run_closed_loop(deployment, op_maker,
                            scale.requests_per_client, scale.warmup)
    return stats.update_latencies.mean() / 1000.0


def assemble(results: Sequence[JobResult]) -> Fig21Result:
    latencies: Dict[str, Dict[str, float]] = {}
    for result in results:
        params = result.spec.params
        latencies.setdefault(params["workload"], {})[params["design"]] = \
            result.value
    return Fig21Result(latencies)


def run(config: SystemConfig = None, quick: bool = True,  # type: ignore[assignment]
        workloads=None) -> Fig21Result:
    return assemble(execute_serial(jobs(config, quick, workloads), run_point))
