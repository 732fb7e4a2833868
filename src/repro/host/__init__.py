"""Host software: the PMNet client/server libraries of Table I."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.host.async_client": ("AsyncPMNetClient",),
    "repro.host.client": ("Completion", "PMNetClient"),
    "repro.host.handler": ("HandlerOutcome", "IdealHandler", "LockTable",
                           "RequestHandler"),
    "repro.host.heartbeat": ("HeartbeatMonitor", "MonitorEndpoint"),
    "repro.host.node": ("HostNode",),
    "repro.host.server": ("PMNetServer",),
    "repro.host.sharded": ("ShardedClient",),
    "repro.host.stackmodel": ("TCP", "UDP", "HostStack"),
})

__all__ = [
    "HostNode", "HostStack", "UDP", "TCP",
    "PMNetClient", "AsyncPMNetClient", "Completion",
    "PMNetServer", "ShardedClient",
    "RequestHandler", "IdealHandler", "HandlerOutcome", "LockTable",
    "HeartbeatMonitor", "MonitorEndpoint",
]
