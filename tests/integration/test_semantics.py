"""Pinning tests for the documented consistency semantics.

In-network persistence trades read-your-writes-at-the-server for
sub-RTT updates (docs/protocol.md).  These tests pin both sides:

* the cache, while an update is PENDING, serves the logged (new) value;
* without the cache, a read can legitimately observe the pre-update
  value while the update sits in the log — and eventually converges.
"""

from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.hashmap import PMHashmap


def _single_client(enable_cache):
    config = SystemConfig().with_clients(1)
    handler = StructureHandler(PMHashmap())
    deployment = build(DeploymentSpec(placement="switch",
                                      enable_cache=enable_cache), config,
                       handler=handler)
    deployment.open_all_sessions()
    return deployment, handler, deployment.clients[0]


class TestReadYourWrites:
    def test_cache_serves_pending_update(self):
        """With the read cache, a GET right after a PMNet-acked SET sees
        the new value even though the server may not have applied it."""
        deployment, handler, client = _single_client(enable_cache=True)
        observed = []

        def proc():
            yield client.send_update(Operation(OpKind.SET, key="k",
                                               value="old"))
            yield client.send_update(Operation(OpKind.SET, key="k",
                                               value="new"))
            completion = yield client.bypass(Operation(OpKind.GET, key="k"))
            observed.append(completion)

        deployment.sim.spawn(proc())
        deployment.sim.run()
        completion = observed[0]
        # Wherever it was served from, the value is never older than the
        # last acknowledged write.
        assert completion.result.value == "new"

    def test_stale_window_exists_without_cache(self):
        """Without the cache, the server can answer a read from before a
        logged-but-unapplied update — the documented trade-off.  We make
        the window deterministic by crashing the server first."""
        deployment, handler, client = _single_client(enable_cache=False)
        # Seed the old value and let it commit.
        seeded = []

        def seed():
            yield client.send_update(Operation(OpKind.SET, key="k",
                                               value="old"))
            seeded.append(True)

        deployment.sim.spawn(seed())
        deployment.sim.run()
        assert seeded and dict(handler.structure.items()) == {"k": "old"}

        # Now stall the server: the next SET is acked by the switch log
        # only; the store still says "old" — exactly the stale window.
        deployment.server.crash()
        acked = []

        def update():
            completion = yield client.send_update(
                Operation(OpKind.SET, key="k", value="new"))
            acked.append(completion)

        deployment.sim.spawn(update())
        deployment.sim.run(until=deployment.sim.now + 500_000)
        assert acked and acked[0].result.ok  # durably acknowledged...
        assert dict(handler.structure.items())["k"] == "old"  # ...yet stale

        # Convergence: recovery replays the log and the window closes.
        recovery = deployment.server.recover(deployment.pmnet_names)
        deployment.sim.run()
        assert recovery.triggered
        assert dict(handler.structure.items())["k"] == "new"
