"""The motivation experiment: sync vs async vs sync-over-PMNet.

Sec II-A's argument, run end to end:

* **sync / baseline** — the easy programming model, paying a full RTT
  per update;
* **async / baseline** — a windowed client hides the RTT (throughput
  recovers) but the application must manage in-flight state, failures,
  and completion tracking by hand;
* **sync / PMNet** — the easy model again, with the RTT collapsed by
  in-network persistence.

The claim to verify: sync-over-PMNet reaches the same order of
throughput as async-over-baseline — you keep the synchronous
programming model and still get the speed.
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
from repro.host.async_client import AsyncPMNetClient
from repro.workloads.handlers import StructureHandler
from repro.workloads.pmdk.hashmap import PMHashmap
from repro.workloads.kv import OpKind, Operation


@dataclass
class MotivationResult:
    #: design -> (ops/s, mean latency us)
    rows: Dict[str, tuple]

    def throughput(self, design: str) -> float:
        return self.rows[design][0]

    def latency(self, design: str) -> float:
        return self.rows[design][1]

    def format(self) -> str:
        table = [[name, round(ops), round(latency, 2)]
                 for name, (ops, latency) in self.rows.items()]
        body = format_table(["design", "ops/s", "mean latency us"], table,
                            title="Motivation — sync vs async vs "
                                  "sync-over-PMNet (Sec II-A)")
        sync_gain = (self.throughput("sync/pmnet")
                     / self.throughput("sync/baseline"))
        latency_vs_async = (self.latency("async/baseline")
                            / self.latency("sync/pmnet"))
        return (f"{body}\n"
                "async hides the RTT behind its window — throughput "
                "rises, but completion latency\n"
                "gets WORSE than even the sync baseline (requests queue "
                "behind the window) and the\n"
                "application must track every in-flight request.  "
                f"sync-over-PMNet keeps the easy\nmodel, gains "
                f"{sync_gain:.1f}x throughput, and beats async's "
                f"latency by {latency_vs_async:.1f}x.")


def _op_maker(payload: int):
    def maker(ci: int, ri: int, rng):
        return Operation(OpKind.SET, key=(ci, ri), value=b"x"), payload
    return maker


def _run_async_baseline(config: SystemConfig, requests: int,
                        window: int) -> tuple:
    deployment = build(DeploymentSpec(placement="none"), config,
                       handler=StructureHandler(PMHashmap()))
    sim = deployment.sim
    # Swap each client for the windowed variant (same host/session
    # machinery; the endpoint rebinds).
    async_clients = []
    for client in deployment.clients:
        client.host.endpoint = None
        replacement = AsyncPMNetClient(
            sim, client.host, config, "server", client.allocator,
            acks_required=0, window=window)
        async_clients.append(replacement)

    def producer(index, client):
        client.start_session()
        for i in range(requests):
            gate = client.submit(Operation(OpKind.SET, key=(index, i),
                                           value=b"x"),
                                 config.payload_bytes)
            if gate is not None:
                yield gate
            if config.client.think_time_ns:
                yield config.client.think_time_ns
        yield client.drain()

    for index, client in enumerate(async_clients):
        sim.spawn(producer(index, client), f"async{index}")
    sim.run()
    total_ops = sum(int(c.async_completions) for c in async_clients)
    assert total_ops == requests * len(async_clients)
    ops = sum(c.throughput.ops_per_second() for c in async_clients)
    mean_latency = (sum(c.latencies.mean() for c in async_clients)
                    / len(async_clients)) / 1000.0
    return ops, mean_latency


#: Design points in the serial execution order.
DESIGNS = ("sync/baseline", "async/baseline", "sync/pmnet")


def jobs(config: SystemConfig = None, quick: bool = True,  # type: ignore[assignment]
         window: int = 16) -> List[JobSpec]:
    """One job per programming-model/design combination."""
    cfg = config if config is not None else SystemConfig()
    quick = Scale.resolve_quick(quick)
    return [JobSpec(experiment="motivation", point=f"design={design}",
                    params={"design": design, "window": window},
                    seed=cfg.seed, quick=quick, config=config)
            for design in DESIGNS]


def run_point(spec: JobSpec) -> tuple:
    """(ops/s, mean latency us) of one programming-model point."""
    cfg = spec.resolved_config().with_clients(4 if spec.quick else 16)
    requests = 150 if spec.quick else 400
    design = spec.params["design"]
    if design == "async/baseline":
        return _run_async_baseline(cfg, requests, spec.params["window"])
    placement = "switch" if design == "sync/pmnet" else "none"
    stats = run_closed_loop(
        build(DeploymentSpec(placement=placement), cfg,
              handler=StructureHandler(PMHashmap())),
        _op_maker(cfg.payload_bytes), requests, 10)
    return (stats.ops_per_second(),
            stats.update_latencies.mean() / 1000.0)


def assemble(results: Sequence[JobResult]) -> MotivationResult:
    return MotivationResult({result.spec.params["design"]: result.value
                             for result in results})


def run(config: SystemConfig = None, quick: bool = True,  # type: ignore[assignment]
        window: int = 16) -> MotivationResult:
    return assemble(execute_serial(jobs(config, quick, window), run_point))
