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
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import SystemConfig, check_field_types
from repro.core.pmnet_device import PMNetDevice
from repro.core.replication import (
    NO_PMNET,
    ReplicationPolicy,
    build_pmnet_chain,
)
from repro.host.client import PMNetClient
from repro.host.handler import IdealHandler, RequestHandler
from repro.host.node import HostNode
from repro.host.server import PMNetServer
from repro.host.stackmodel import TCP, UDP, HostStack
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
# Shared wiring pieces
# ----------------------------------------------------------------------
def _make_server(sim: Simulator, topology: Topology, config: SystemConfig,
                 handler: Optional[RequestHandler], transport: str,
                 tracer: Optional[Tracer],
                 server_class: Callable[..., PMNetServer] = PMNetServer
                 ) -> PMNetServer:
    stack = HostStack(sim, "server", config.server_stack, transport)
    host = HostNode(sim, "server", stack)
    topology.add(host)
    if handler is None:
        handler = IdealHandler(config.server.ideal_handler_ns)
    return server_class(sim, host, handler, config, tracer=tracer)


def _make_clients(sim: Simulator, topology: Topology, config: SystemConfig,
                  attach_to: object, policy: ReplicationPolicy,
                  transport: str, tracer: Optional[Tracer],
                  new_client: Optional[Callable] = None) -> list:
    """One client host per ``config.num_clients``, linked to ``attach_to``.

    Each gets a :class:`PMNetClient` under ``policy``, unless
    ``new_client(index, host, allocator)`` builds another client class.
    """
    allocator = SessionAllocator()
    clients = []
    for index in range(config.num_clients):
        name = f"client{index}"
        stack = HostStack(sim, name, config.client_stack, transport)
        host = HostNode(sim, name, stack)
        topology.add(host)
        topology.connect(host, attach_to)  # type: ignore[arg-type]
        if new_client is not None:
            clients.append(new_client(index, host, allocator))
        else:
            clients.append(PMNetClient(sim, host, config, "server",
                                       allocator, policy=policy,
                                       tracer=tracer))
    return clients


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
    if spec.servers_per_rack > 1:
        return _build_single_rack_sharded(spec, config, handler_factory,
                                          handler, tracer, obs)
    if handler is None and handler_factory is not None:
        handler = handler_factory()
    if spec.placement == "nic":
        return _build_nic(spec, config, handler, tracer, obs)
    if spec.placement == "switch":
        return _build_tor_chain(spec, config, handler, tracer, obs)
    return _build_baseline(spec, config, handler, tracer, obs)


def _build_baseline(spec: DeploymentSpec, config: SystemConfig,
                    handler: Optional[RequestHandler],
                    tracer: Optional[Tracer],
                    obs: Optional[Observability]) -> Deployment:
    """The device-free designs: clients - ToR - server.

    ``"none"`` is the paper's Client-Server baseline.  The alternative
    designs keep ``chain_length`` log copies: ``"client-log"`` logs at
    each client plus its next ``chain_length - 1`` peer clients (Fig
    17a); ``"server-log"`` acknowledges from the server's early write
    log (Fig 17b) and ``"server-replication"`` after commit (Fig 21),
    each waiting on ``chain_length - 1`` replica servers on the ToR.
    """
    copies = spec.chain_length
    if spec.placement == "client-log" and copies > config.num_clients:
        raise ValueError(
            f"chain_length {copies} needs more log copies than the "
            f"{config.num_clients} clients can hold")
    sim = Simulator(seed=config.seed, obs=obs)
    topology = Topology(sim, config.network)
    switch = Switch(sim, "tor", config.network)
    topology.add(switch)
    server_class: Callable[..., PMNetServer] = PMNetServer
    replica_hosts: List[str] = []
    if spec.placement in ("server-log", "server-replication"):
        from repro.baselines.common import ReplicaLogger
        from repro.baselines.replication import ReplicatingServer
        from repro.baselines.server_logging import ServerLoggingServer

        replica_hosts = [f"replica{index}" for index in range(1, copies)]
        server_class = partial(
            ServerLoggingServer if spec.placement == "server-log"
            else ReplicatingServer, replica_hosts=replica_hosts)
    server = _make_server(sim, topology, config, handler, spec.transport,
                          tracer, server_class)
    topology.connect(switch, server.host)
    for name in replica_hosts:
        stack = HostStack(sim, name, config.server_stack, spec.transport)
        host = HostNode(sim, name, stack)
        topology.add(host)
        topology.connect(host, switch)
        ReplicaLogger(sim, host)
    new_client = None
    if spec.placement == "client-log":
        from repro.baselines.client_logging import ClientLoggingClient

        def new_client(index, host, allocator):
            peers = [f"client{(index + offset) % config.num_clients}"
                     for offset in range(1, copies)]
            return ClientLoggingClient(sim, host, config, "server",
                                       allocator, peers=peers)
    clients = _make_clients(sim, topology, config, switch, NO_PMNET,
                            spec.transport, tracer, new_client)
    topology.compute_routes()
    return Deployment(sim=sim, config=config, topology=topology,
                      clients=clients, server=server, switches=[switch],
                      tracer=tracer, obs=obs, spec=spec)


def _build_tor_chain(spec: DeploymentSpec, config: SystemConfig,
                     handler: Optional[RequestHandler],
                     tracer: Optional[Tracer],
                     obs: Optional[Observability]) -> Deployment:
    """PMNet in the ToR switch position (Sec VI-A1); ``chain_length > 1``
    places that many PMNet switches in series (Fig 9a) and makes every
    client wait for all of their ACKs."""
    sim = Simulator(seed=config.seed, obs=obs)
    topology = Topology(sim, config.network)
    merge = Switch(sim, "merge", config.network)
    topology.add(merge)
    chain = build_pmnet_chain(sim, topology, config, spec.chain_length,
                              mode="switch", enable_cache=spec.enable_cache,
                              tracer=tracer)
    topology.connect(merge, chain[0])
    server = _make_server(sim, topology, config, handler, spec.transport,
                          tracer)
    topology.connect(chain[-1], server.host)
    policy = ReplicationPolicy(acks_required=spec.chain_length)
    clients = _make_clients(sim, topology, config, merge, policy,
                            spec.transport, tracer)
    topology.compute_routes()
    return Deployment(sim=sim, config=config, topology=topology,
                      clients=clients, server=server, devices=chain,
                      switches=[merge], tracer=tracer, obs=obs, spec=spec)


def _build_nic(spec: DeploymentSpec, config: SystemConfig,
               handler: Optional[RequestHandler],
               tracer: Optional[Tracer],
               obs: Optional[Observability]) -> Deployment:
    """PMNet as the server's bump-in-the-wire NIC (Sec VI-A1): the
    device sits right next to the host, so its link to the server has
    near-zero propagation delay."""
    sim = Simulator(seed=config.seed, obs=obs)
    topology = Topology(sim, config.network)
    tor = Switch(sim, "tor", config.network)
    topology.add(tor)
    nic = PMNetDevice(sim, "pmnet-nic", config, mode="nic",
                      enable_cache=spec.enable_cache, tracer=tracer)
    topology.add(nic)
    topology.connect(tor, nic)
    server = _make_server(sim, topology, config, handler, spec.transport,
                          tracer)
    # The NIC-to-host hop is a short board-level wire.
    short_wire = replace(config.network, propagation_ns=spec.nic_wire_ns)
    topology.connect(nic, server.host, profile=short_wire)
    clients = _make_clients(sim, topology, config, tor,
                            ReplicationPolicy(acks_required=1),
                            spec.transport, tracer)
    topology.compute_routes()
    return Deployment(sim=sim, config=config, topology=topology,
                      clients=clients, server=server, devices=[nic],
                      switches=[tor], tracer=tracer, obs=obs, spec=spec)


def _build_single_rack_sharded(spec: DeploymentSpec, config: SystemConfig,
                               handler_factory,
                               handler: Optional[RequestHandler],
                               tracer: Optional[Tracer],
                               obs: Optional[Observability]) -> Deployment:
    """A sharded store: N servers behind one PMNet ToR switch.

    Each client is a :class:`~repro.host.sharded.ShardedClient` with one
    session (and ordered update stream) per shard; the single PMNet
    device logs traffic for every shard and replays each server's
    entries only to that server on recovery.
    """
    from repro.host.sharded import ShardedClient

    if handler is not None:
        raise ValueError("sharded shapes need a handler_factory, each "
                         "server gets its own handler instance")
    sim = Simulator(seed=config.seed, obs=obs)
    topology = Topology(sim, config.network)
    merge = Switch(sim, "merge", config.network)
    topology.add(merge)
    device = PMNetDevice(sim, "pmnet1", config, mode="switch",
                         tracer=tracer)
    topology.add(device)
    topology.connect(merge, device)
    servers: List[PMNetServer] = []
    for index in range(spec.servers_per_rack):
        name = f"server{index}" if index else "server"
        stack = HostStack(sim, name, config.server_stack, spec.transport)
        host = HostNode(sim, name, stack)
        topology.add(host)
        topology.connect(device, host)
        shard_handler = (handler_factory() if handler_factory is not None
                         else IdealHandler(config.server.ideal_handler_ns))
        servers.append(PMNetServer(sim, host, shard_handler, config,
                                   tracer=tracer))
    allocator = SessionAllocator()
    clients = []
    server_names = [server.host.name for server in servers]
    for index in range(config.num_clients):
        name = f"client{index}"
        stack = HostStack(sim, name, config.client_stack, spec.transport)
        host = HostNode(sim, name, stack)
        topology.add(host)
        topology.connect(host, merge)
        clients.append(ShardedClient(sim, host, config, server_names,
                                     allocator, tracer=tracer))
    topology.compute_routes()
    return Deployment(sim=sim, config=config, topology=topology,
                      clients=clients, server=servers[0],
                      devices=[device], switches=[merge], tracer=tracer,
                      obs=obs, extra_servers=servers[1:], spec=spec)
