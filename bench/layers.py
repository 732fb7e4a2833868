"""The layer map: which ``repro`` package owns a piece of CPU time.

A layer is a ``repro`` package on the request path.  ``obs`` stays off
in every run and ``experiments`` only runs at set-up, so neither is a
layer.  Time spent in any other module is reported as ``other``, so a
new package shows up instead of vanishing.

The traced run (``tracing.py``) charges each dispatched callback to the
package of its owner, then re-charges nested calls into another layer's
public entry points, listed here, to the callee.  The lists are fixed so
two commits attribute time the same way; ``tests/test_bench.py`` fails
when an entry point is renamed, instead of a layer silently reading 0.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Callable, Dict, Iterator, Tuple

LAYERS: Tuple[str, ...] = ("sim", "net", "core", "pm", "protocol", "host",
                           "workloads", "control", "failure")

#: Bucket for time outside every layer, and for the bench's own loop.
OTHER = "other"
TRACE = "trace"

#: layer -> entry points as ``"module:attribute"``.  ``Class.*`` means
#: every public method the class itself defines.  Module functions are
#: named where callers look them up (``fragment_request`` is imported
#: by name into the client module).
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "net": (
        "repro.net.link:Channel.send",
        "repro.net.link:Channel.send_in",
        "repro.net.switch:Switch.handle_frame",
    ),
    "core": (
        "repro.core.pmnet_device:PMNetDevice.handle_frame",
        "repro.core.pmnet_device:PMNetDevice.arrival_extension",
        "repro.core.cache:ReadCache.*",
        "repro.core.hashring:HashRing.lookup",
    ),
    "pm": (
        "repro.pm.log:LogRegion.try_log",
        "repro.pm.log:LogRegion.invalidate",
        "repro.pm.log:LogRegion.read_entry",
        "repro.pm.queues:LogQueue.try_enqueue",
        "repro.pm.device:PMDevice.submit_write",
        "repro.pm.device:PMDevice.submit_read",
    ),
    "protocol": (
        "repro.protocol.ordering:ReorderBuffer.push",
        "repro.protocol.fragment:Reassembler.push",
        "repro.host.client:fragment_request",
    ),
    "host": (
        "repro.host.node:HostNode.handle_frame",
        "repro.host.node:HostNode.send_frame",
        "repro.host.node:HostNode.arrival_extension",
        "repro.host.client:PMNetClient.send_update",
        "repro.host.client:PMNetClient.bypass",
        "repro.host.client:PMNetClient.on_frame",
        "repro.host.server:PMNetServer.on_frame",
        "repro.host.sharded:ShardedClient.on_frame",
        "repro.host.sharded:RingClient.*",
    ),
    "workloads": (
        "repro.host.handler:RequestHandler.process",
        "repro.host.handler:IdealHandler.process",
        "repro.workloads.handlers:StructureHandler.process",
        "repro.workloads.ycsb:YCSBGenerator.make_op",
        # The loadgen completion callback: whole-request folding runs it
        # inline inside the client's ACK handling.
        "repro.workloads.loadgen:FlowLoadGenerator._on_done",
    ),
    "control": (
        "repro.control.balancer:LoadBalancer.snapshot",
        "repro.control.balancer:Policy.decide",
        "repro.control.balancer:FailoverPolicy.decide",
        "repro.control.migrator:SessionMigrator.migrate",
        # Placement changes and ownership queries.  The per-request
        # ``PlacementView.lookup`` is the ring client's routing step and
        # stays with its caller, so control is idle without a balancer.
        "repro.control.placement:PlacementView.owners_resolving_to",
        "repro.control.placement:PlacementView.assign",
        "repro.control.placement:PlacementView.assign_members",
    ),
}

#: Scheduling entry points, wrapped per ``Simulator`` instance (the
#: kernel binds fast closures per instance).  The scheduler's own
#: bookkeeping inside them counts as ``sim``.
SIM_ENTRY_POINTS: Tuple[str, ...] = ("schedule", "schedule_at", "call_soon",
                                     "schedule_deferred")

#: Whole-request folding ends a wire chain in ``_deliver_ext(callback,
#: args)``, which runs the receiving node's barrier callback inline.
#: The barrier is re-charged to its owner's layer, or the device and
#: client work of every folded request would count as ``net``.
BARRIERS: Tuple[str, ...] = ("repro.net.link:Channel._deliver_ext",)


def layer_of_module(module: str) -> str:
    """The layer owning code defined in ``module``."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return OTHER


def resolve(target: str) -> Tuple[object, str, Callable]:
    """``"module:Class.attr"`` -> (owner object, attribute, function).

    Raises ``AttributeError``/``ImportError`` when the target is gone.
    """
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *scopes, attribute = path.split(".")
    for scope in scopes:
        owner = getattr(owner, scope)
    if attribute not in vars(owner):
        raise AttributeError(f"{target}: {attribute!r} is not defined by "
                             f"{getattr(owner, '__name__', owner)!r}")
    return owner, attribute, getattr(owner, attribute)


def expand(target: str) -> Iterator[str]:
    """Expand a ``Class.*`` entry into one entry per public method."""
    if not target.endswith(".*"):
        yield target
        return
    module_name, _, class_path = target[:-2].partition(":")
    cls = getattr(importlib.import_module(module_name), class_path)
    methods = [name for name, value in vars(cls).items()
               if not name.startswith("_") and inspect.isfunction(value)]
    if not methods:
        raise AttributeError(f"{target}: no public methods")
    for name in methods:
        yield f"{module_name}:{class_path}.{name}"


def entry_points() -> Iterator[Tuple[str, str]]:
    """Every ``(target, layer)`` pair, ``Class.*`` entries expanded."""
    for layer, targets in ENTRY_POINTS.items():
        for target in targets:
            for expanded in expand(target):
                yield expanded, layer
