"""Topology builder: nodes, links, and shortest-path route computation.

Experiments construct small rack-scale fabrics (clients - switch - server,
optionally with PMNet devices in the path).  After wiring, a single call
to :meth:`Topology.compute_routes` fills every routing-capable node's
forwarding table with BFS next hops, so packets follow shortest paths —
the simulated analog of the paper's flow-consistent (ECMP) datacenter
fabric where a flow's path is fixed.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import NetworkError, RoutingError
from repro.net.device import Node, Port
from repro.net.link import Impairments, Link

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import NetworkProfile
    from repro.sim.kernel import Simulator


class Topology:
    """A set of nodes and the links between them."""

    def __init__(self, sim: "Simulator", profile: "NetworkProfile") -> None:
        self.sim = sim
        self.profile = profile
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []

    # ------------------------------------------------------------------
    def add(self, node: Node) -> Node:
        """Register a node (its name must be unique in the topology)."""
        if node.name in self.nodes:
            raise NetworkError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        return node

    def connect(self, a: Node, b: Node,
                impairments_ab: Optional[Impairments] = None,
                impairments_ba: Optional[Impairments] = None,
                profile: Optional[NetworkProfile] = None) -> Link:
        """Create a full-duplex link between fresh ports on ``a`` and ``b``.

        ``profile`` overrides the topology-wide network profile for this
        one link — a NIC-attached device sits on a short board trace,
        and spine uplinks cross longer fiber than rack-local links.  An
        override is validated here (raising
        :class:`~repro.errors.ConfigurationError`), so a bad one fails
        at construction rather than on the first frame it carries.
        """
        for node in (a, b):
            if node.name not in self.nodes:
                raise NetworkError(
                    f"node {node.name!r} must be added before connecting")
        if profile is not None:
            profile.validate()
        link = Link(self.sim, profile if profile is not None else self.profile,
                    a.add_port(), b.add_port(),
                    impairments_ab, impairments_ba)
        self.links.append(link)
        return link

    # ------------------------------------------------------------------
    def _adjacency(self) -> Dict[str, List[Tuple[Port, str]]]:
        adjacency: Dict[str, List[Tuple[Port, str]]] = {
            name: [] for name in self.nodes}
        for link in self.links:
            a, b = link.port_a.node, link.port_b.node
            adjacency[a.name].append((link.port_a, b.name))
            adjacency[b.name].append((link.port_b, a.name))
        return adjacency

    def compute_routes(self) -> None:
        """Fill every node's forwarding table with BFS next hops.

        Nodes without a ``table`` attribute (hosts drive their single port
        directly) are skipped as route *holders* but still participate as
        destinations and transit is never routed through them.
        """
        adjacency = self._adjacency()
        for name, node in self.nodes.items():
            table = getattr(node, "table", None)
            if table is None:
                continue
            next_hops = self._bfs_next_hops(name, adjacency)
            for destination, port in next_hops.items():
                table.set_route(destination, port)

    def _bfs_next_hops(self, origin: str,
                       adjacency: Dict[str, List[Tuple[Port, str]]]
                       ) -> Dict[str, Port]:
        """First-hop port from ``origin`` toward every reachable node.

        Transit through hosts (nodes without a forwarding table) is not
        allowed: a path may *end* at a host but never pass through one.
        """
        next_hop: Dict[str, Port] = {}
        visited = {origin}
        queue: deque[Tuple[str, Port]] = deque()
        for port, neighbor in adjacency[origin]:
            if neighbor not in visited:
                visited.add(neighbor)
                next_hop[neighbor] = port
                queue.append((neighbor, port))
        while queue:
            current, first_port = queue.popleft()
            if getattr(self.nodes[current], "table", None) is None:
                continue  # hosts terminate paths; do not transit
            for _port, neighbor in adjacency[current]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_hop[neighbor] = first_port
                    queue.append((neighbor, first_port))
        return next_hop

    def path(self, src: str, dst: str) -> List[str]:
        """Node names along the shortest path (for tests/diagnostics)."""
        if src not in self.nodes or dst not in self.nodes:
            raise RoutingError(f"unknown endpoint in path({src!r}, {dst!r})")
        adjacency = self._adjacency()
        parents: Dict[str, Optional[str]] = {src: None}
        queue = deque([src])
        while queue:
            current = queue.popleft()
            if current == dst:
                break
            if current != src and getattr(
                    self.nodes[current], "table", None) is None:
                continue
            for _port, neighbor in adjacency[current]:
                if neighbor not in parents:
                    parents[neighbor] = current
                    queue.append(neighbor)
        if dst not in parents:
            raise RoutingError(f"no path from {src!r} to {dst!r}")
        path = [dst]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path
