"""Alternative designs the paper compares against (Figs 17, 18, 21).

Build them with ``build(DeploymentSpec(placement=...))`` using the
``"client-log"``, ``"server-log"`` or ``"server-replication"``
placements; these are the host classes those placements install.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.client_logging": ("ClientLoggingClient",),
    "repro.baselines.common": ("ReplicaLogger",),
    "repro.baselines.replication": ("ReplicatingServer",),
    "repro.baselines.server_logging": ("ServerLoggingServer",),
})

__all__ = [
    "ClientLoggingClient", "ServerLoggingServer", "ReplicatingServer",
    "ReplicaLogger",
]
