#!/usr/bin/env python3
"""The paper's Twitter (Retwis) workload on PMNet.

Each simulated client registers a user (the shared ``lastUID`` counter
of Fig 4 — no cross-client ordering), then mixes tweet posts, follows,
and timeline reads.  Posts and follows are update requests persisted
in-network; timeline reads bypass to the server.

Run:  python examples/twitter_clone.py
"""

from repro import DeploymentSpec, SystemConfig, build
from repro.experiments.driver import run_sessions
from repro.host.stackmodel import TCP
from repro.workloads import twitter
from repro.workloads.twitter import TwitterHandler


def drive(name: str, spec: DeploymentSpec, config: SystemConfig) -> None:
    handler = TwitterHandler()
    deployment = build(spec, config, handler=handler)

    def session(index, api, rng):
        return twitter.session(index, api, rng, requests=150,
                               update_ratio=0.8, payload_bytes=100,
                               population=config.num_clients)

    stats = run_sessions(deployment, session, warmup_requests=10)
    store = handler.store
    print(f"{name:14s}  mean {stats.mean_latency_us():7.2f} us   "
          f"p99 {stats.p99_latency_us():7.2f} us   "
          f"{stats.ops_per_second():>9,.0f} req/s")
    print(f"{'':14s}  server state: {handler.posts} tweets posted, "
          f"{handler.timeline_reads} timelines read, "
          f"{len(store)} Redis keys")


def main() -> None:
    config = SystemConfig(seed=11).with_clients(8)
    print("Retwis workload: 8 clients, 80% updates "
          "(posts/follows), 20% timeline reads\n")
    drive("Client-Server", DeploymentSpec(placement="none", transport=TCP),
          config)
    drive("PMNet-Switch", DeploymentSpec(placement="switch"), config)
    print("\nNote: every client got a distinct UID from the shared "
          "lastUID counter\nwithout any cross-client ordering — the "
          "independence the paper's Sec III-C relies on.")


if __name__ == "__main__":
    main()
