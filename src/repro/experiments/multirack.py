"""A two-rack fabric with PMNet devices at both ToR positions.

Sec IV-B1's packet-handling table includes "ACK from another PMNet": in
a multi-switch datacenter, a PMNet-ACK generated deep in the fabric
passes through other PMNet devices on its way back to the client.  This
builder creates that situation:

    clients - [client-rack ToR: PMNet #1] - core switch -
              [server-rack ToR: PMNet #2] - server

Both ToRs log updates (so this is also a natural 2-way replication
placement *across racks*); PMNet #2's ACK traverses PMNet #1, and the
single server-ACK invalidates both logs on its way out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.config import SystemConfig
from repro.core.pmnet_device import PMNetDevice
from repro.experiments.common import Scale
from repro.experiments.deploy import Deployment, wire_path
from repro.experiments.jobs import JobResult, JobSpec, execute_serial
from repro.net.switch import Switch
from repro.sim.kernel import Simulator


@dataclass
class MultirackResult:
    rows: List[List[object]] = field(default_factory=list)
    latencies: Dict[str, float] = field(default_factory=dict)

    def format(self) -> str:
        body = format_table(
            ["placement", "log copies", "mean update us",
             "completed via"],
            self.rows,
            title="Two-rack placement — cross-rack in-network "
                  "replication")
        return (f"{body}\nThe far ToR's ACK rides through the near "
                "ToR (the Sec IV-B1 'ACK from another PMNet' path).")


def build_two_rack(config: SystemConfig,
                   handler=None,
                   acks_required: int = 2) -> Deployment:
    """Clients and server in different racks, PMNet at both ToRs.

    ``acks_required`` is the client's persistence policy: 2 (default)
    demands both racks' logs (cross-rack replication); 1 completes on
    the nearer ToR alone.
    """
    if acks_required not in (1, 2):
        raise ValueError("two-rack placement offers 1 or 2 log copies")
    sim = Simulator(seed=config.seed)
    path = [PMNetDevice(sim, "pmnet-client-tor", config, mode="switch"),
            Switch(sim, "core", config.network),
            PMNetDevice(sim, "pmnet-server-tor", config, mode="switch")]
    return wire_path(sim, config, path,
                     handler_factory=(None if handler is None
                                      else lambda: handler),
                     acks_required=acks_required)


#: (placement label, acks_required) points, in execution order.
POINTS = (("near ToR only", 1), ("both racks", 2))


def jobs(config: Optional[SystemConfig] = None,
         quick: bool = True) -> List[JobSpec]:
    """One job per persistence policy in the two-rack placement."""
    cfg = config if config is not None else SystemConfig()
    quick = Scale.resolve_quick(quick)
    return [JobSpec(experiment="multirack", point=f"acks={acks}",
                    params={"label": label, "acks": acks},
                    seed=cfg.seed, quick=quick, config=config)
            for label, acks in POINTS]


def run_point(spec: JobSpec) -> tuple:
    """(mean update latency us, completions-by-via) for one policy."""
    from repro.experiments.driver import run_closed_loop
    from repro.workloads.kv import OpKind, Operation

    cfg = spec.resolved_config().with_clients(4 if spec.quick else 16)
    requests = 80 if spec.quick else 250

    def op_maker(ci, ri, rng):
        return (Operation(OpKind.SET, key=(ci, ri), value=b"x"),
                cfg.payload_bytes)

    deployment = build_two_rack(cfg, acks_required=spec.params["acks"])
    stats = run_closed_loop(deployment, op_maker, requests, 8)
    return (stats.update_latencies.mean() / 1000.0,
            dict(stats.completions_by_via))


def assemble(results: Sequence[JobResult]) -> MultirackResult:
    result = MultirackResult()
    for job in results:
        label = job.spec.params["label"]
        mean_us, via = job.value
        result.latencies[label] = mean_us
        result.rows.append([label, job.spec.params["acks"],
                            round(mean_us, 2), via])
    return result


def run(config: Optional[SystemConfig] = None, quick: bool = True):
    """Compare persistence policies in the two-rack placement."""
    return assemble(execute_serial(jobs(config, quick), run_point))
