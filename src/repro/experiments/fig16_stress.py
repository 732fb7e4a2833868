"""Figure 16: bandwidth vs latency under stress.

Clients scale up while sending 1000 B updates to an ideal handler.
Expected shape: latency stays flat while offered bandwidth is below the
10 Gbps port limit, then spikes as the bottleneck link saturates; both
PMNet placements sit below the baseline throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.report import format_table
from repro.config import SystemConfig
from repro.experiments.common import Scale
from repro.experiments.deploy import Deployment, DeploymentSpec, build
from repro.experiments.driver import RunStats, run_closed_loop
from repro.experiments.jobs import JobResult, JobSpec, execute_serial
from repro.workloads.kv import OpKind, Operation

PAYLOAD = 1000
CLIENT_COUNTS = (1, 2, 4, 8, 16, 32, 48, 64)

DESIGNS = {
    "client-server": DeploymentSpec(placement="none"),
    "pmnet-switch": DeploymentSpec(placement="switch"),
}


@dataclass
class Fig16Result:
    #: design -> list of (bandwidth_gbps, mean latency us) per client count.
    curves: Dict[str, List[Tuple[float, float]]]

    def saturation_bandwidth(self, design: str) -> float:
        """Highest observed bandwidth — should approach the 10 Gbps line."""
        return max(b for b, _l in self.curves[design])

    def latency_spike_ratio(self, design: str) -> float:
        """Last-point latency over first-point latency (the spike)."""
        first = self.curves[design][0][1]
        last = self.curves[design][-1][1]
        return last / first

    def format(self) -> str:
        headers = ["design", "clients", "offered Gbps", "mean latency us"]
        rows: List[List[object]] = []
        for design, curve in self.curves.items():
            for (bandwidth, latency), clients in zip(curve, CLIENT_COUNTS):
                rows.append([design, clients, round(bandwidth, 2),
                             round(latency, 2)])
        return format_table(headers, rows,
                            title="Fig 16 — bandwidth vs latency stress test")


def jobs(config: SystemConfig = None, quick: bool = True,  # type: ignore[assignment]
         client_counts=CLIENT_COUNTS) -> List[JobSpec]:
    """One job per (client count, design) point."""
    cfg = config if config is not None else SystemConfig()
    quick = Scale.resolve_quick(quick)
    return [JobSpec(experiment="fig16",
                    point=f"clients={clients}/design={design}",
                    params={"clients": clients, "design": design},
                    seed=cfg.seed, quick=quick, config=config)
            for clients in client_counts for design in DESIGNS]


def stress(design: str, config: SystemConfig, clients: int,
           requests_per_client: int, obs=None,
           profiler=None) -> Tuple[Deployment, RunStats]:
    """One point of the sweep: ``clients`` closed-loop clients each send
    ``requests_per_client`` 1000 B updates (after 5 warm-up requests)
    to ``design``.  ``obs`` is passed to :func:`build`; ``profiler`` is
    attached to the simulator before it runs."""
    deployment = build(DESIGNS[design],
                       config.with_payload(PAYLOAD).with_clients(clients),
                       obs=obs)
    if profiler is not None:
        deployment.sim.attach_profiler(profiler)

    def op_maker(ci: int, ri: int, rng):
        return Operation(OpKind.SET, key=(ci, ri), value=b"x"), PAYLOAD

    stats = run_closed_loop(deployment, op_maker,
                            requests_per_client=requests_per_client,
                            warmup_requests=5)
    return deployment, stats


def run_point(spec: JobSpec) -> Tuple[float, float]:
    """(offered bandwidth Gbps, mean update latency us) for one point."""
    cfg = spec.resolved_config()
    wire_bits = 8 * (PAYLOAD + cfg.network.header_overhead_bytes
                     + 11)  # PMNet header rides in the payload
    _deployment, stats = stress(spec.params["design"], cfg,
                                spec.params["clients"],
                                60 if spec.quick else 200)
    ops = stats.ops_per_second()
    return ops * wire_bits / 1e9, stats.update_latencies.mean() / 1000.0


def assemble(results: Sequence[JobResult]) -> Fig16Result:
    curves: Dict[str, List[Tuple[float, float]]] = {
        name: [] for name in DESIGNS}
    for result in results:
        curves[result.spec.params["design"]].append(result.value)
    return Fig16Result(curves)


def run(config: SystemConfig = None, quick: bool = True,  # type: ignore[assignment]
        client_counts=CLIENT_COUNTS) -> Fig16Result:
    return assemble(execute_serial(jobs(config, quick, client_counts),
                                   run_point))
