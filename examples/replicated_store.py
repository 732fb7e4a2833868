#!/usr/bin/env python3
"""3-way replication: in-network (chained PMNets) vs server-side.

Reproduces the Fig 9/21 comparison interactively: the same update load
runs against (a) a single PMNet, (b) three chained PMNet switches whose
log persists overlap, and (c) a primary server that synchronously
commits to two replicas before acknowledging.

Run:  python examples/replicated_store.py
"""

from repro import DeploymentSpec, SystemConfig, build
from repro.experiments.driver import run_closed_loop
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.hashmap import PMHashmap


def op_maker(ci, ri, rng):
    return Operation(OpKind.SET, key=(ci, ri), value=b"payload"), 100


def main() -> None:
    config = SystemConfig(seed=5).with_clients(4)
    points = [
        ("PMNet x1 (no replication)",
         build(DeploymentSpec(placement="switch"), config,
               handler=StructureHandler(PMHashmap()))),
        ("PMNet x3 (in-network replication)",
         build(DeploymentSpec(placement="switch", chain_length=3), config,
               handler=StructureHandler(PMHashmap()))),
        ("Server-side x3 replication",
         build(DeploymentSpec(placement="server-replication", chain_length=3),
               config, handler=StructureHandler(PMHashmap()))),
    ]
    latencies = {}
    for name, deployment in points:
        stats = run_closed_loop(deployment, op_maker,
                                requests_per_client=150, warmup_requests=15)
        latencies[name] = stats.update_latencies.mean() / 1000.0
        extra = ""
        if deployment.devices:
            acks = [int(d.acks_sent) for d in deployment.devices]
            extra = f"   (per-device PMNet-ACKs: {acks})"
        print(f"{name:36s} mean update {latencies[name]:7.2f} us{extra}")

    single = latencies["PMNet x1 (no replication)"]
    chained = latencies["PMNet x3 (in-network replication)"]
    server = latencies["Server-side x3 replication"]
    print(f"\n3-way PMNet overhead over single log: "
          f"{100 * (chained / single - 1):.1f}%   (paper: ~16%)")
    print(f"PMNet x3 vs server-side x3 speedup: {server / chained:.2f}x"
          f"   (paper: 5.88x)")
    print("\nThe chained persists overlap (Fig 9b): the client waits for "
          "all three\nACKs, but they race each other down the same path.")


if __name__ == "__main__":
    main()
