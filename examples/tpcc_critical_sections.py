#!/usr/bin/env python3
"""TPC-C on PMNet: application-level ordering via bypass locks (Fig 5).

Most transactions (payments) are independent and enjoy sub-RTT
persistence; the stock-modifying NEW-ORDER transactions serialize
through a server-side lock that PMNet deliberately does *not* log, so
mutual exclusion is enforced where it must be — at the server — while
the updates inside the critical section still commit in-network.

Run:  python examples/tpcc_critical_sections.py
"""

from repro import DeploymentSpec, SystemConfig, build
from repro.experiments.driver import run_sessions
from repro.host.stackmodel import TCP
from repro.workloads import tpcc


def drive(name: str, spec: DeploymentSpec, config: SystemConfig):
    handler = tpcc.TPCCHandler(warehouses=2)
    deployment = build(spec, config, handler=handler)

    def session(index, api, rng):
        return tpcc.session(index, api, rng, transactions=120,
                            update_ratio=1.0, payload_bytes=100,
                            warehouses=2)

    stats = run_sessions(deployment, session, warmup_requests=10)
    server = deployment.server
    print(f"{name:14s}  mean {stats.mean_latency_us():7.2f} us   "
          f"p99 {stats.p99_latency_us():7.2f} us   "
          f"{stats.ops_per_second():>9,.0f} req/s")
    lock_ops = server.locks.acquisitions
    total = stats.requests
    print(f"{'':14s}  {handler.payments} payments, "
          f"{handler.new_orders} new-orders "
          f"({lock_ops} lock acquisitions, "
          f"{server.locks.conflicts} conflicts retried)")
    if deployment.devices:
        device = deployment.devices[0]
        logged = int(device.log.logged)
        print(f"{'':14s}  {logged}/{total} requests were logged "
              f"in-network; locks always bypassed")
    return stats


def main() -> None:
    config = SystemConfig(seed=23).with_clients(8)
    print("TPC-C: 8 terminals, 2 warehouses; ~8% of transactions enter "
          "the stock critical section\n")
    base = drive("Client-Server",
                 DeploymentSpec(placement="none", transport=TCP), config)
    pmnet = drive("PMNet-Switch", DeploymentSpec(placement="switch"), config)
    print(f"\nPMNet throughput speedup: "
          f"{pmnet.ops_per_second() / base.ops_per_second():.2f}x")
    print("Lock requests pay the full RTT (correctness), everything else "
          "is sub-RTT (performance).")


if __name__ == "__main__":
    main()
