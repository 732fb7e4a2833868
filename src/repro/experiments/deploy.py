"""Declarative deployments: describe a system, then ``build(spec)`` it.

A :class:`DeploymentSpec` names *what* to stand up — racks, device
placement, chain length, shards, cache, per-tier network profiles — and
:func:`build` wires it: the paper's three single-rack design points
(Sec VI-A4), the alternative logging and replication designs PMNet is
compared against (Figs 17, 18, 21), the sharded single-ToR store, and
the multi-rack spine/leaf fabric with cross-switch chain replication
(:mod:`repro.net.fabric`).  The spec is frozen and JSON-round-trippable
(:meth:`DeploymentSpec.to_params`), so experiment jobs and the chaos
engine can ship deployments across process boundaries; live objects
(handlers, tracers, observability) stay arguments of :func:`build`.

Every build returns a :class:`Deployment` holding the simulator and
every component, so experiments and tests can drive and inspect the
system uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig, check_field_types
from repro.core.pmnet_device import PMNetDevice
from repro.core.replication import ReplicationPolicy
from repro.host.client import PMNetClient
from repro.host.handler import IdealHandler, RequestHandler
from repro.host.node import add_host
from repro.host.server import PMNetServer
from repro.host.stackmodel import TCP, UDP
from repro.net.device import Node
from repro.net.switch import Switch
from repro.net.topology import Topology
from repro.obs.context import Observability
from repro.protocol.session import SessionAllocator
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer

#: Valid values of :attr:`DeploymentSpec.placement`.
PLACEMENTS = ("none", "switch", "nic",
              "client-log", "server-log", "server-replication")

#: Valid values of :attr:`DeploymentSpec.transport`.
TRANSPORTS = (UDP, TCP)


@dataclass(frozen=True)
class DeploymentSpec:
    """A declarative description of one simulated system.

    Single-rack shapes (``racks == 1``) are the paper's design points and
    its baselines; ``racks > 1`` stands up the spine/leaf fabric with
    consistent-hash sharding and cross-rack chain replication.
    """

    #: Number of racks.  1 = the classic one-ToR star shapes.
    racks: int = 1
    #: Number of spine switches interconnecting the racks (fabric only).
    spines: int = 1
    #: Where the PMNet device sits: ``"none"`` (baseline client-server),
    #: ``"switch"`` (ToR position), or ``"nic"`` (bump-in-the-wire at
    #: the server; single-rack only).  The device-free alternative
    #: designs PMNet is compared against (Figs 17, 18, 21) place the
    #: log instead: ``"client-log"``, ``"server-log"`` and
    #: ``"server-replication"`` (single-rack only).
    placement: str = "switch"
    #: Replication strength.  Single-rack: devices in series under one
    #: ToR (Fig 9a), clients wait for all their ACKs.  Fabric: the
    #: cross-rack chain length; the tail's single ACK completes.
    #: Baselines: total log copies (local plus peer clients for
    #: ``"client-log"``; server plus replica servers otherwise).
    chain_length: int = 1
    #: PMNet devices per rack (fabric only): the primary sits between
    #: leaf and servers; extras hang off the leaf as chain members.
    devices_per_rack: int = 1
    #: Shard servers per rack.  Single-rack with > 1 builds the sharded
    #: single-ToR store.
    servers_per_rack: int = 1
    #: Client hosts per rack; ``None`` = ``config.num_clients``.
    clients_per_rack: Optional[int] = None
    #: Enable the in-network read cache on the devices.
    enable_cache: bool = False
    #: Transport for every host stack.
    transport: str = UDP
    #: Propagation delay of the NIC-to-host board trace (placement
    #: ``"nic"``).
    nic_wire_ns: int = 20
    #: Propagation delay override for leaf-spine links (fabric); ``None``
    #: = the topology-wide profile (cross-rack hop cost knob).
    spine_propagation_ns: Optional[int] = None
    #: Virtual points per member on the consistent-hash ring (fabric).
    ring_replicas: int = 32
    #: Control-plane polling period (fabric only); ``None`` = no control
    #: plane.  When set, :func:`build` attaches an *unstarted*
    #: :class:`~repro.control.balancer.ControlPlane` as
    #: ``deployment.control`` — callers add policies and start it.
    control_period_ns: Optional[int] = None

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, "
                f"got {self.placement!r}")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, "
                f"got {self.transport!r}")
        for name in ("racks", "spines", "chain_length", "devices_per_rack",
                     "servers_per_rack", "clients_per_rack", "ring_replicas",
                     "control_period_ns"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("nic_wire_ns", "spine_propagation_ns"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.control_period_ns is not None and self.racks == 1:
            raise ValueError("the control plane runs over the "
                             "multi-rack fabric (racks > 1)")
        if self.racks > 1:
            if self.placement != "switch":
                raise ValueError(
                    "the fabric places devices at the leaf (switch) "
                    f"position, not {self.placement!r}")
            total_devices = self.racks * self.devices_per_rack
            if self.chain_length > total_devices:
                raise ValueError(
                    f"chain length {self.chain_length} exceeds the "
                    f"{total_devices} devices in the fabric")
        else:
            if self.placement not in ("switch", "nic") and self.enable_cache:
                raise ValueError(
                    f"placement {self.placement!r} has no PMNet device "
                    "to cache on")
            if self.placement == "none" and self.chain_length > 1:
                raise ValueError(
                    "the baseline has no PMNet device to replicate on")
            if self.placement == "nic" and self.chain_length > 1:
                raise ValueError("NIC placement holds a single device")
            if self.servers_per_rack > 1 and self.placement != "switch":
                raise ValueError(
                    "the single-rack sharded store needs the ToR (switch) "
                    "placement")
            if self.servers_per_rack > 1 and self.chain_length > 1:
                raise ValueError(
                    "single-rack sharding and device chaining are "
                    "separate shapes; use racks > 1 for chained shards")

    # ------------------------------------------------------------------
    def to_params(self) -> Dict[str, object]:
        """A JSON-safe dict round-trippable via :meth:`from_params`."""
        return {
            "racks": self.racks,
            "spines": self.spines,
            "placement": self.placement,
            "chain_length": self.chain_length,
            "devices_per_rack": self.devices_per_rack,
            "servers_per_rack": self.servers_per_rack,
            "clients_per_rack": self.clients_per_rack,
            "enable_cache": self.enable_cache,
            "transport": self.transport,
            "nic_wire_ns": self.nic_wire_ns,
            "spine_propagation_ns": self.spine_propagation_ns,
            "ring_replicas": self.ring_replicas,
            "control_period_ns": self.control_period_ns,
        }

    @classmethod
    def from_params(cls, params: Dict[str, object]) -> "DeploymentSpec":
        unknown = sorted(set(params) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown DeploymentSpec field(s): "
                             f"{', '.join(unknown)}")
        return cls(**params)  # type: ignore[arg-type]


@dataclass
class Deployment:
    """A fully wired simulated system."""

    sim: Simulator
    config: SystemConfig
    topology: Topology
    clients: List[PMNetClient]
    server: PMNetServer
    devices: List[PMNetDevice] = field(default_factory=list)
    switches: List[Switch] = field(default_factory=list)
    tracer: Optional[Tracer] = None
    #: The observability bundle attached to the simulator (``None`` when
    #: the run is uninstrumented — the zero-cost default).
    obs: Optional[Observability] = None
    #: Additional shard servers in multi-server deployments (the
    #: ``server`` field holds shard 0).
    extra_servers: List[PMNetServer] = field(default_factory=list)
    #: The spec this deployment was built from (``None`` for hand-wired
    #: systems).
    spec: Optional[DeploymentSpec] = None
    #: Fabric deployments: server name -> replication chain of device
    #: names, head first, tail last.
    chains: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Fabric deployments: the placement ring and rack layout
    #: (:class:`repro.net.fabric.FabricInfo`).
    fabric: Optional[object] = None
    #: The attached control plane
    #: (:class:`~repro.control.balancer.ControlPlane`), if any.
    control: Optional[object] = None

    @property
    def servers(self) -> List[PMNetServer]:
        return [self.server] + self.extra_servers

    @property
    def pmnet_names(self) -> List[str]:
        return [device.name for device in self.devices]

    def recovery_devices(self, server_name: str) -> List[str]:
        """Which devices a recovering server should poll.

        In the fabric the server polls its chain — the tail holds every
        acknowledged entry, and the chain-walked invalidations settle
        the upstream members' resend engines; single-rack shapes poll
        every device, as before.
        """
        chain = self.chains.get(server_name)
        if chain:
            return list(chain)
        return self.pmnet_names

    def open_all_sessions(self) -> None:
        for client in self.clients:
            client.start_session()


# ----------------------------------------------------------------------
# The one entry point
# ----------------------------------------------------------------------
def build(spec: DeploymentSpec, config: SystemConfig,
          handler: Optional[RequestHandler] = None,
          handler_factory=None,
          tracer: Optional[Tracer] = None,
          obs: Optional[Observability] = None) -> Deployment:
    """Wire the system a :class:`DeploymentSpec` describes.

    ``handler`` serves single-server shapes; multi-server shapes take a
    ``handler_factory`` (each shard gets its own instance).  An
    inconsistent ``config`` raises :class:`ConfigurationError`.

    Every single-rack shape is one path (:func:`wire_path`); the
    placement picks only its nodes, the server class and, for
    ``"client-log"``, the client.  ``"none"`` is the paper's
    Client-Server baseline and ``"switch"`` puts ``chain_length`` PMNet
    switches in series behind the merge switch (Sec VI-A1, Fig 9a);
    ``"nic"`` puts one device at the server as its bump-in-the-wire NIC.
    The alternative designs keep ``chain_length`` log copies:
    ``"client-log"`` logs at each client plus its next
    ``chain_length - 1`` peer clients (Fig 17a); ``"server-log"``
    acknowledges from the server's early write log (Fig 17b) and
    ``"server-replication"`` after commit (Fig 21), each waiting on
    ``chain_length - 1`` replica servers on the ToR.
    """
    config.validate()
    if handler is not None and handler_factory is not None:
        raise ValueError("pass handler or handler_factory, not both")
    if spec.racks > 1:
        from repro.net.fabric import build_fabric

        deployment = build_fabric(spec, config,
                                  handler_factory=handler_factory,
                                  handler=handler, tracer=tracer, obs=obs)
        if spec.control_period_ns is not None:
            from repro.control.balancer import attach_control_plane

            attach_control_plane(deployment,
                                 period_ns=spec.control_period_ns)
        return deployment
    if spec.servers_per_rack > 1 and handler is not None:
        raise ValueError("sharded shapes need a handler_factory, each "
                         "server gets its own handler instance")
    copies = spec.chain_length
    if spec.placement == "client-log" and copies > config.num_clients:
        raise ValueError(
            f"chain_length {copies} needs more log copies than the "
            f"{config.num_clients} clients can hold")
    sim = Simulator(seed=config.seed, obs=obs)
    path: List[Node] = [Switch(sim, "merge" if spec.placement == "switch"
                               else "tor", config.network)]
    if spec.placement in ("switch", "nic"):
        names = ([f"pmnet{index}" for index in range(1, copies + 1)]
                 if spec.placement == "switch" else ["pmnet-nic"])
        path += [PMNetDevice(sim, name, config, mode=spec.placement,
                             enable_cache=spec.enable_cache, tracer=tracer)
                 for name in names]
    server_class: Callable[..., PMNetServer] = PMNetServer
    new_client = None
    if spec.placement == "server-log":
        from repro.baselines.server_logging import ServerLoggingServer

        server_class = ServerLoggingServer
    elif spec.placement == "server-replication":
        from repro.baselines.replication import ReplicatingServer

        server_class = ReplicatingServer
    elif spec.placement == "client-log":
        from repro.baselines.client_logging import ClientLoggingClient

        def new_client(index, host, allocator):
            peers = [f"client{(index + offset) % config.num_clients}"
                     for offset in range(1, copies)]
            return ClientLoggingClient(sim, host, config, "server",
                                       allocator, peers=peers)
    return wire_path(sim, config, path, spec, server_class, new_client,
                     handler_factory if handler is None else lambda: handler,
                     tracer=tracer)


def wire_path(sim: Simulator, config: SystemConfig, path: Sequence[Node],
              spec: Optional[DeploymentSpec] = None,
              server_class: Callable[..., PMNetServer] = PMNetServer,
              new_client: Optional[Callable] = None,
              handler_factory: Optional[Callable[[], RequestHandler]] = None,
              acks_required: Optional[int] = None,
              tracer: Optional[Tracer] = None) -> Deployment:
    """Lay out ``clients -> path[0] -> ... -> path[-1] -> server(s)``.

    ``path`` holds switches and PMNet devices, clients side first; the
    clients (and the replica servers of ``"server-log"`` and
    ``"server-replication"``) hang off ``path[0]``, and
    ``spec.servers_per_rack`` servers off ``path[-1]`` — over a
    ``spec.nic_wire_ns`` board trace when that is a NIC-mode device.
    Each client is a :class:`PMNetClient` (a
    :class:`~repro.host.sharded.ShardedClient` over several servers)
    unless ``new_client(index, host, allocator)`` builds another kind;
    its policy waits for ``acks_required`` device ACKs, by default one
    per PMNet device on the path.  Each server gets a
    ``handler_factory()`` (default an :class:`IdealHandler`).

    The order is fixed, because chaos plans pick impairment channels by
    index into ``topology.links``: nodes are added path first, then
    servers, replicas and clients; path links run from the first PMNet
    device towards the servers, then from ``path[0]`` up to that
    device; then each server's link (device to host), each replica's
    and each client's (host to ``path[0]``).
    """
    shape = spec if spec is not None else DeploymentSpec()
    topology = Topology(sim, config.network)
    for node in path:
        topology.add(node)
    devices = [node for node in path if isinstance(node, PMNetDevice)]
    first = path.index(devices[0]) if devices else 0
    for index in [*range(first, len(path) - 1), *range(first)]:
        topology.connect(path[index], path[index + 1])
    edge, last = path[0], path[-1]
    board_trace = (replace(config.network, propagation_ns=shape.nic_wire_ns)
                   if isinstance(last, PMNetDevice) and last.mode == "nic"
                   else None)
    replica_hosts: List[str] = []
    if shape.placement in ("server-log", "server-replication"):
        replica_hosts = [f"replica{index}"
                         for index in range(1, shape.chain_length)]
        server_class = partial(server_class, replica_hosts=replica_hosts)
    servers: List[PMNetServer] = []
    for index in range(shape.servers_per_rack):
        host = add_host(topology, f"server{index}" if index else "server",
                        config.server_stack, shape.transport, last,
                        inbound=True, profile=board_trace)
        handler = (handler_factory() if handler_factory is not None
                   else IdealHandler(config.server.ideal_handler_ns))
        servers.append(server_class(sim, host, handler, config,
                                    tracer=tracer))
    if replica_hosts:
        from repro.baselines.common import ReplicaLogger

        for name in replica_hosts:
            ReplicaLogger(sim, add_host(topology, name, config.server_stack,
                                        shape.transport, edge))
    policy = ReplicationPolicy(acks_required=len(devices)
                               if acks_required is None else acks_required)
    if new_client is None:
        client_class: Callable = PMNetClient
        target: object = servers[0].host.name
        if len(servers) > 1:
            from repro.host.sharded import ShardedClient

            client_class = ShardedClient
            target = [server.host.name for server in servers]

        def new_client(index, host, allocator):
            return client_class(sim, host, config, target, allocator,
                                policy=policy, tracer=tracer)
    allocator = SessionAllocator()
    clients = [new_client(index,
                          add_host(topology, f"client{index}",
                                   config.client_stack, shape.transport,
                                   edge),
                          allocator)
               for index in range(config.num_clients)]
    topology.compute_routes()
    return Deployment(sim=sim, config=config, topology=topology,
                      clients=clients, server=servers[0], devices=devices,
                      switches=[node for node in path
                                if not isinstance(node, PMNetDevice)],
                      tracer=tracer, obs=sim.obs,
                      extra_servers=servers[1:], spec=spec)
