"""Figure 18: PMNet vs client-side and server-side logging, +-replication.

Paper numbers (100 B payload, ideal handler):

===================  ==========  ===============
design               no repl us  3-way repl us
===================  ==========  ===============
client-side logging  10.4        41.61
PMNet                21.5        22.8
server-side logging  47.97       94.02
===================  ==========  ===============

The *shape* under test: client-side logging wins un-replicated (no
network stack at all) but collapses with replication; PMNet is nearly
replication-free; server-side logging is worst in both columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.report import format_table
from repro.config import SystemConfig
from repro.experiments.common import Scale
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.driver import run_closed_loop
from repro.experiments.jobs import JobResult, JobSpec, execute_serial
from repro.workloads.kv import OpKind, Operation

#: Paper's reference numbers in microseconds, for the report.
PAPER_US = {
    ("client-log", 1): 10.4, ("client-log", 3): 41.61,
    ("pmnet", 1): 21.5, ("pmnet", 3): 22.8,
    ("server-log", 1): 47.97, ("server-log", 3): 94.02,
}


@dataclass
class Fig18Result:
    #: (design, replication) -> mean update latency (us).
    latencies: Dict[tuple, float]

    def format(self) -> str:
        headers = ["design", "replication", "measured us", "paper us"]
        rows = []
        for key in sorted(self.latencies):
            rows.append([key[0], key[1], round(self.latencies[key], 2),
                         PAPER_US.get(key, "-")])
        return format_table(
            headers, rows,
            title="Fig 18 — alternative logging designs (ideal handler)")


#: (design, replication) points, in the serial execution order.
POINTS = (("client-log", 1), ("client-log", 3), ("pmnet", 1), ("pmnet", 3),
          ("server-log", 1), ("server-log", 3))

#: design -> the DeploymentSpec placement that builds it.
PLACEMENT = {"client-log": "client-log", "pmnet": "switch",
             "server-log": "server-log"}


def jobs(config: SystemConfig = None,  # type: ignore[assignment]
         quick: bool = True) -> List[JobSpec]:
    """One job per (design, replication) point."""
    cfg = config if config is not None else SystemConfig()
    quick = Scale.resolve_quick(quick)
    return [JobSpec(experiment="fig18",
                    point=f"design={design}/replication={replication}",
                    params={"design": design, "replication": replication},
                    seed=cfg.seed, quick=quick, config=config)
            for design, replication in POINTS]


def run_point(spec: JobSpec) -> float:
    """Mean update latency (us) of one logging design."""
    # Latency microbenchmark: few clients (replication needs 3 for the
    # client-side peers).
    cfg = spec.resolved_config().with_clients(3)
    requests = 120 if spec.quick else 400

    def op_maker(ci: int, ri: int, rng):
        return (Operation(OpKind.SET, key=(ci, ri), value=b"x"),
                cfg.payload_bytes)

    deployment = build(
        DeploymentSpec(placement=PLACEMENT[spec.params["design"]],
                       chain_length=spec.params["replication"]), cfg)
    stats = run_closed_loop(deployment, op_maker,
                            requests_per_client=requests,
                            warmup_requests=10)
    return stats.update_latencies.mean() / 1000.0


def assemble(results: Sequence[JobResult]) -> Fig18Result:
    return Fig18Result({
        (result.spec.params["design"], result.spec.params["replication"]):
        result.value for result in results})


def run(config: SystemConfig = None, quick: bool = True) -> Fig18Result:  # type: ignore[assignment]
    return assemble(execute_serial(jobs(config, quick), run_point))
