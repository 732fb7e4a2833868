"""Alternative designs the paper compares against (Figs 17, 18, 21).

Build them with ``build(DeploymentSpec(placement=...))`` using the
``"client-log"``, ``"server-log"`` or ``"server-replication"``
placements; these are the host classes those placements install.
"""

from repro.baselines.client_logging import ClientLoggingClient
from repro.baselines.common import ReplicaLogger
from repro.baselines.replication import ReplicatingServer
from repro.baselines.server_logging import ServerLoggingServer

__all__ = [
    "ClientLoggingClient", "ServerLoggingServer", "ReplicatingServer",
    "ReplicaLogger",
]
