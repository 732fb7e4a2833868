"""Abstract network node: anything a link can terminate at.

Concrete nodes are plain switches (:mod:`repro.net.switch`), PMNet devices
(:mod:`repro.core.pmnet_device`), and hosts (:mod:`repro.host.node`).
A node owns numbered ports; each port is attached to one directed pair of
channels by the topology builder.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import NetworkError, RoutingError
from repro.net.packet import Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Channel
    from repro.sim.kernel import Simulator


class Port:
    """One attachment point of a node; sends into a directed channel."""

    def __init__(self, node: "Node", index: int) -> None:
        self.node = node
        self.index = index
        self.channel: Optional["Channel"] = None

    @property
    def connected(self) -> bool:
        return self.channel is not None

    def transmit(self, frame: Frame) -> None:
        """Send a frame out of this port."""
        if self.channel is None:
            raise NetworkError(
                f"port {self.index} of {self.node.name} is not connected")
        self.channel.send(frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.node.name}[{self.index}]>"


class Node:
    """Base class for every device attached to the fabric."""

    #: Whether this node's :meth:`arrival_extension` answer is a pure
    #: function of the frame *kind* (its classification), so channels
    #: may cache the returned plan per (node, kind) and rebuild only the
    #: per-frame ``args`` (see :meth:`Channel._sink_extension`).  Nodes
    #: whose extensions carry per-frame state — pre-drawn RNG, claim
    #: slots — must set this ``False`` and are queried per delivery.
    arrival_plans_static = True

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: List[Port] = []
        #: Set by the failure injector; failed nodes drop all traffic.
        self.failed = False
        #: Per-frame-kind arrival-extension plans cached by inbound
        #: channels (``None`` disables caching entirely).  Invalidated
        #: on failure, recovery, impairment change, and device
        #: replacement — any event that could change what this node
        #: answers.
        self._arrival_plans: Optional[dict] = (
            {} if self.arrival_plans_static else None)

    def add_port(self) -> Port:
        """Create one more port on this node."""
        port = Port(self, len(self.ports))
        self.ports.append(port)
        return port

    def receive(self, frame: Frame, in_port: Port) -> None:
        """Called by a channel when a frame arrives at ``in_port``."""
        if self.failed:
            return  # a dead device is a black hole
        frame.hops += 1
        self.handle_frame(frame, in_port)

    def handle_frame(self, frame: Frame, in_port: Port) -> None:
        """Process one arriving frame; subclasses must implement."""
        raise NotImplementedError

    def arrival_extension(self, frame: Frame):
        """Whole-request folding hook, queried by a channel at each
        frame's serialize end.

        A node that can absorb this frame's arrival into deterministic
        extra hops returns ``(extra_hops, callback, args, claim)``: the
        wire chain is extended by ``extra_hops`` and ends in
        ``callback(*args)`` — a barrier that must re-check the node's
        liveness exactly as the stage-folded interior callbacks would —
        instead of the usual :meth:`~Node.receive` delivery.  ``claim``
        (or ``None``) is a random draw the node made in advance; the
        channel attaches the scheduled record to it
        (``claim.attach(call, channel)``) so the node can revoke it
        through :meth:`Channel.strip_extension`.  The base node never
        extends.
        """
        return None

    def fail(self) -> None:
        """Mark the node failed (volatile state handling is subclass duty)."""
        self.failed = True
        self.invalidate_arrival_plans()

    def recover(self) -> None:
        """Bring the node back after an intermittent failure."""
        self.failed = False
        self.invalidate_arrival_plans()

    def invalidate_arrival_plans(self) -> None:
        """Drop every cached arrival-extension plan for this node.

        Channels re-query :meth:`arrival_extension` per kind after this;
        call it whenever the node's extension answers could change
        (failure, recovery, reconfiguration, in-place replacement).
        """
        plans = self._arrival_plans
        if plans:
            plans.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "FAILED" if self.failed else "up"
        return f"<{type(self).__name__} {self.name!r} ports={len(self.ports)} {state}>"


class ForwardingTable:
    """Destination-node -> output-port map with an optional default.

    Forwarding nodes send through :meth:`egress`, which binds each
    destination's outbound :class:`~repro.net.link.Channel` on first use
    so a hop costs one dict probe instead of a route lookup plus a port
    dereference.  Only connected ports are bound (an unconnected one is
    looked up, and fails, on every use), and any route change —
    :meth:`set_route` or a new :attr:`default` — clears every binding.
    Nothing else can stale one: a port's channel is fixed once its link
    is built, and crashes, impairment swaps and device replacement leave
    routes alone.
    """

    def __init__(self) -> None:
        self._routes: Dict[str, Port] = {}
        self._default: Optional[Port] = None
        #: destination -> channel out of its route's (connected) port.
        self.bound: Dict[str, "Channel"] = {}

    @property
    def default(self) -> Optional[Port]:
        """The port for destinations without a route of their own."""
        return self._default

    @default.setter
    def default(self, port: Optional[Port]) -> None:
        self._default = port
        self.bound.clear()

    def set_route(self, destination: str, port: Port) -> None:
        self._routes[destination] = port
        self.bound.clear()

    def lookup(self, destination: str) -> Port:
        port = self._routes.get(destination)
        if port is None:
            port = self._default
        if port is None:
            raise RoutingError(f"no route to {destination!r}")
        return port

    def egress(self, destination: str) -> Optional["Channel"]:
        """The channel toward ``destination`` (``None`` when its route
        port is unconnected); raises :class:`RoutingError` without a
        route.  Hot callers probe :attr:`bound` first and call this on
        a miss."""
        channel = self.bound.get(destination)
        if channel is None:
            channel = self.lookup(destination).channel
            if channel is not None:
                self.bound[destination] = channel
        return channel

    def transmit(self, destination: str, frame: Frame) -> None:
        """Send ``frame`` out of the route toward ``destination``."""
        channel = self.bound.get(destination) or self.egress(destination)
        if channel is None:
            # The route's port is not connected: the port raises.
            self.lookup(destination).transmit(frame)
            return
        channel.send(frame)

    def destinations(self) -> List[str]:
        return sorted(self._routes)

    def __len__(self) -> int:
        return len(self._routes)
