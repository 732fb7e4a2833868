"""The load-balancing control plane (ROADMAP: live session migration).

Three cooperating pieces, analogous to a P4 load balancer's controller:

* :class:`~repro.control.placement.PlacementView` — the shared routing
  table: the consistent-hash ring plus live placement overrides.  Every
  client of a fabric deployment routes through one shared view, so a
  single mutation re-rings all of them atomically.
* :class:`~repro.control.migrator.SessionMigrator` — live-migrates a
  shard's sessions between servers with a quiesce -> drain -> transfer
  -> re-ring -> resume protocol that preserves per-session SeqNum
  ordering and the R1-R6 persistence rules.
* :class:`~repro.control.balancer.LoadBalancer` — polls the metrics
  registry (queue-depth highwater, per-server throughput, cache hit
  rate, heartbeat liveness) on a control period and decides rebalance
  actions through pluggable policies.

See ``docs/controlplane.md`` for the protocol and its invariants.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.control.placement": ("PlacementView",),
    "repro.control.migrator": ("MigrationStats", "SessionMigrator"),
    "repro.control.balancer": ("ControlPlane", "ControlView",
                               "DrainRackPolicy", "FailoverPolicy",
                               "HotShardPolicy", "LoadBalancer",
                               "MigrateAction", "attach_control_plane"),
})

__all__ = [
    "ControlPlane",
    "ControlView",
    "DrainRackPolicy",
    "FailoverPolicy",
    "HotShardPolicy",
    "LoadBalancer",
    "MigrateAction",
    "MigrationStats",
    "PlacementView",
    "SessionMigrator",
    "attach_control_plane",
]
