"""The multi-rack spine/leaf fabric with cross-switch chain replication.

This is the structural scale-out of the one-ToR star: R racks, each a
(leaf switch + PMNet devices + shard servers + client hosts) pod, wired
under S spine switches and routed by the existing BFS
:class:`~repro.net.topology.Topology`.  The keyspace is sharded over
the rack servers by a consistent-hash ring
(:class:`~repro.core.hashring.HashRing`); every write travels a
NetChain-style replication chain of PMNet devices *across racks* —
entering at the head, persisted member by member through the spine, and
early-ACKed by the *tail* device (the paper's Sec IV-B1 "ACK from
another PMNet", generalized across switches).

Placement invariants the protocol relies on:

* each rack's *primary* device sits between the leaf and the rack's
  shard servers, so all server-bound traffic — including SERVER_ACKs on
  their way back to clients — passes the chain tail;
* extra devices (``devices_per_rack > 1``) hang off the leaf and are
  reached only by explicitly addressed chain traffic;
* a shard's chain tail is its home rack's primary, so the tail-to-
  server hand-off is rack-local and a recovering server replays from
  its tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.control.placement import PlacementView
from repro.core.hashring import HashRing
from repro.core.pmnet_device import PMNetDevice
from repro.host.handler import IdealHandler
from repro.host.node import add_host
from repro.host.server import PMNetServer
from repro.host.sharded import RingClient
from repro.net.switch import Switch
from repro.net.topology import Topology
from repro.protocol.session import SessionAllocator
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import SystemConfig
    from repro.experiments.deploy import Deployment, DeploymentSpec
    from repro.obs.context import Observability
    from repro.sim.trace import Tracer


@dataclass
class RackInfo:
    """One rack's component names."""

    index: int
    leaf: str
    devices: List[str]          # primary first
    servers: List[str]
    clients: List[str]

    @property
    def primary(self) -> str:
        return self.devices[0]


@dataclass
class FabricInfo:
    """The fabric's layout, for experiments and the chaos engine."""

    spines: List[str]
    racks: List[RackInfo]
    ring: HashRing
    #: server name -> chain (device names, head first, tail last).
    chains: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: (rack index, spine index, link) for every leaf-spine uplink, in
    #: wiring order — the chaos engine impairs these.
    spine_links: List[tuple] = field(default_factory=list)
    #: The shared routing view (ring + live migration overrides) every
    #: client of this fabric resolves through.
    placement: Optional[PlacementView] = None

    def rack_of_device(self, device: str) -> Optional[int]:
        for rack in self.racks:
            if device in rack.devices:
                return rack.index
        return None

    def rack_of_server(self, server: str) -> Optional[int]:
        for rack in self.racks:
            if server in rack.servers:
                return rack.index
        return None


def plan_chains(device_order: List[str], primaries: Dict[str, str],
                chain_length: int) -> Dict[str, Tuple[str, ...]]:
    """Chain membership: for each server, ``chain_length`` distinct
    devices ending at the home rack's primary (the tail).

    The upstream members are the devices *following* the tail in the
    global device ring, visited farthest-first, so consecutive racks
    back each other up and membership is a pure function of the layout
    (every client and the recovery path agree without coordination).
    """
    chains: Dict[str, Tuple[str, ...]] = {}
    total = len(device_order)
    for server, tail in primaries.items():
        anchor = device_order.index(tail)
        upstream = tuple(device_order[(anchor + offset) % total]
                         for offset in range(chain_length - 1, 0, -1))
        chains[server] = upstream + (tail,)
    return chains


def build_fabric(spec: "DeploymentSpec", config: "SystemConfig",
                 handler_factory=None, handler=None,
                 tracer: Optional["Tracer"] = None,
                 obs: Optional["Observability"] = None) -> "Deployment":
    """Wire the spine/leaf fabric a multi-rack spec describes."""
    from dataclasses import replace as dc_replace

    from repro.experiments.deploy import Deployment

    if handler is not None:
        raise ValueError("the fabric shards over many servers; pass a "
                         "handler_factory, not a single handler")
    sim = Simulator(seed=config.seed, obs=obs)
    topology = Topology(sim, config.network)
    spine_profile = (dc_replace(config.network,
                                propagation_ns=spec.spine_propagation_ns)
                     if spec.spine_propagation_ns is not None else None)

    spines = [Switch(sim, f"spine{index}", config.network)
              for index in range(spec.spines)]
    for spine in spines:
        topology.add(spine)

    racks: List[RackInfo] = []
    devices: List[PMNetDevice] = []
    servers: List[PMNetServer] = []
    spine_links: List[tuple] = []
    primaries: Dict[str, str] = {}
    clients_per_rack = (spec.clients_per_rack
                        if spec.clients_per_rack is not None
                        else config.num_clients)

    for rack_index in range(spec.racks):
        leaf = Switch(sim, f"leaf{rack_index}", config.network)
        topology.add(leaf)
        for spine_index, spine in enumerate(spines):
            link = topology.connect(leaf, spine, profile=spine_profile)
            spine_links.append((rack_index, spine_index, link))
        rack_devices: List[PMNetDevice] = []
        for device_index in range(spec.devices_per_rack):
            name = (f"pmnet-r{rack_index}" if device_index == 0
                    else f"pmnet-r{rack_index}x{device_index}")
            device = PMNetDevice(sim, name, config, mode="switch",
                                 enable_cache=spec.enable_cache,
                                 tracer=tracer)
            topology.add(device)
            topology.connect(leaf, device)
            rack_devices.append(device)
        devices.extend(rack_devices)
        rack_servers: List[PMNetServer] = []
        for server_index in range(spec.servers_per_rack):
            name = f"server-r{rack_index}s{server_index}"
            host = add_host(topology, name, config.server_stack,
                            spec.transport, rack_devices[0], inbound=True)
            shard_handler = (handler_factory()
                             if handler_factory is not None
                             else IdealHandler(config.server.ideal_handler_ns))
            rack_servers.append(PMNetServer(sim, host, shard_handler,
                                            config, tracer=tracer))
            primaries[name] = rack_devices[0].name
        servers.extend(rack_servers)
        racks.append(RackInfo(
            index=rack_index, leaf=leaf.name,
            devices=[device.name for device in rack_devices],
            servers=[server.host.name for server in rack_servers],
            clients=[]))

    device_order = [device.name for device in devices]
    chains = plan_chains(device_order, primaries, spec.chain_length)
    ring = HashRing([server.host.name for server in servers],
                    replicas=spec.ring_replicas)

    placement = PlacementView(ring)
    allocator = SessionAllocator()
    clients: List[RingClient] = []
    leaves = {rack.index: rack for rack in racks}
    for rack_index in range(spec.racks):
        leaf_switch = topology.nodes[leaves[rack_index].leaf]
        for client_index in range(clients_per_rack):
            name = f"client-r{rack_index}c{client_index}"
            host = add_host(topology, name, config.client_stack,
                            spec.transport, leaf_switch)
            clients.append(RingClient(sim, host, config, ring, chains,
                                      allocator, tracer=tracer,
                                      placement=placement))
            racks[rack_index].clients.append(name)
    topology.compute_routes()

    fabric = FabricInfo(spines=[spine.name for spine in spines],
                        racks=racks, ring=ring, chains=chains,
                        spine_links=spine_links, placement=placement)
    return Deployment(sim=sim, config=config, topology=topology,
                      clients=clients, server=servers[0], devices=devices,
                      switches=[*spines] + [topology.nodes[rack.leaf]
                                            for rack in racks],
                      tracer=tracer, obs=obs,
                      extra_servers=servers[1:], spec=spec,
                      chains=chains, fabric=fabric)
