"""Sharded access to multiple PM servers (the paper's Sec I framing).

Datacenter storage spans many servers; a client talks to the shard that
owns each key.  :class:`ShardedClient` wraps one per-server
:class:`~repro.host.client.PMNetClient` (each with its own session and
ordered update stream) behind the same ``send_update``/``bypass``
surface, routing by key hash.  Incoming frames are demultiplexed to the
owning sub-client by SessionID.

Ordering note: per-session ordering is per *shard* — exactly the
guarantee a sharded store gives (cross-shard operations would need the
application-level locks of Sec III-C, same as cross-client ones).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.control.placement import PlacementView
from repro.core.hashring import HashRing
from repro.core.replication import ReplicationPolicy, SINGLE_LOG
from repro.protocol.crc import crc32
from repro.errors import SessionError
from repro.host.client import PMNetClient
from repro.host.node import HostNode
from repro.net.packet import Frame
from repro.protocol.packet import PMNetPacket
from repro.protocol.session import SessionAllocator
from repro.sim.event import SimEvent
from repro.sim.trace import Tracer
from repro.workloads.kv import Operation

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import SystemConfig
    from repro.sim.kernel import Simulator


class ShardedClient:
    """One application client spanning several storage shards."""

    def __init__(self, sim: "Simulator", host: HostNode,
                 config: "SystemConfig", servers: List[str],
                 allocator: SessionAllocator,
                 policy: ReplicationPolicy = SINGLE_LOG,
                 tracer: Optional[Tracer] = None) -> None:
        if not servers:
            raise SessionError("a sharded client needs at least one server")
        self.sim = sim
        self.host = host
        self.servers = list(servers)
        host.bind(self)
        self._subclients: List[PMNetClient] = [
            PMNetClient(sim, host, config, server, allocator,
                        policy=policy, tracer=tracer, bind=False,
                        instrument_scope=f"{host.name}:{server}")
            for server in self.servers]
        self._by_session: Dict[int, PMNetClient] = {}

    # ------------------------------------------------------------------
    # Table I surface
    # ------------------------------------------------------------------
    def start_session(self) -> None:
        """Open one session per shard."""
        for subclient in self._subclients:
            session = subclient.start_session()
            self._by_session[session.session_id] = subclient

    def end_session(self) -> None:
        for subclient in self._subclients:
            subclient.end_session()
        self._by_session.clear()

    def send_update(self, op: Operation,
                    payload_bytes: Optional[int] = None) -> SimEvent:
        return self.shard_for(op.key).send_update(op, payload_bytes)

    def bypass(self, op: Operation,
               payload_bytes: Optional[int] = None) -> SimEvent:
        return self.shard_for(op.key).bypass(op, payload_bytes)

    # ------------------------------------------------------------------
    def shard_index(self, key: object) -> int:
        """Stable key-to-shard placement.

        Uses CRC-32 of the key's repr, not Python's builtin ``hash`` —
        the builtin is salted per process for strings, which would move
        keys between shards across runs and break reproducibility.
        """
        return crc32(repr(key).encode()) % len(self.servers)

    def shard_for(self, key: object) -> PMNetClient:
        return self._subclients[self.shard_index(key)]

    @property
    def retransmissions(self):  # driver-facing counter aggregation
        total = sum(int(c.retransmissions) for c in self._subclients)
        return total

    @property
    def outstanding(self) -> int:
        return sum(c.outstanding for c in self._subclients)

    # ------------------------------------------------------------------
    def on_frame(self, frame: Frame) -> None:
        """Demultiplex to the owning sub-client by SessionID."""
        packet = frame.payload
        if not isinstance(packet, PMNetPacket):
            return
        subclient = self._by_session.get(packet.session_id)
        if subclient is not None:
            subclient.on_frame(frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardedClient {self.host.name} "
                f"shards={len(self.servers)}>")


class RingClient(ShardedClient):
    """A sharded client whose placement comes from a consistent-hash
    ring, with per-shard replication chains.

    The fabric hands every client the same :class:`HashRing` over the
    shard-server names plus a ``chains`` map (server -> device chain,
    head first, tail last), so all clients agree on placement and each
    sub-client sends its updates down the owning shard's chain.

    Routing goes through a shared
    :class:`~repro.control.placement.PlacementView` (the ring plus live
    migration overrides); with no overrides it resolves exactly like
    the bare ring.  The control plane can :meth:`freeze` traffic to one
    server during a migration — frozen operations park behind proxy
    events in FIFO order and are re-routed on :meth:`thaw`, so callers
    never observe a dropped or reordered operation.
    """

    def __init__(self, sim: "Simulator", host: HostNode,
                 config: "SystemConfig", ring: HashRing,
                 chains: Mapping[str, Tuple[str, ...]],
                 allocator: SessionAllocator,
                 policy: ReplicationPolicy = SINGLE_LOG,
                 tracer: Optional[Tracer] = None,
                 placement: Optional[PlacementView] = None) -> None:
        if not isinstance(ring, HashRing):
            raise SessionError("RingClient needs a HashRing")
        if placement is not None and placement.ring is not ring:
            raise SessionError("placement view built over a different ring")
        self.sim = sim
        self.host = host
        self.ring = ring
        self.placement = placement if placement is not None \
            else PlacementView(ring)
        self.servers = list(ring.members)
        self.chains = {server: tuple(chain)
                       for server, chain in chains.items()}
        host.bind(self)
        self._subclients = [
            PMNetClient(sim, host, config, server, allocator,
                        policy=policy, tracer=tracer, bind=False,
                        chain=self.chains.get(server, ()),
                        instrument_scope=f"{host.name}:{server}")
            for server in self.servers]
        self._by_server = dict(zip(self.servers, self._subclients))
        # The member list is immutable, so the index of each server is
        # too — even across migrations, which only change which *keys*
        # resolve to a server, never the member list itself.  (The old
        # ``servers.index(...)`` linear scan made every routed request
        # O(members).)
        self._index_by_server = {server: index
                                 for index, server in enumerate(self.servers)}
        self._by_session: Dict[int, PMNetClient] = {}
        #: Per-frozen-server FIFO of parked operations:
        #: (op, payload_bytes, is_update, proxy event).
        self._frozen: Dict[str, List[Tuple[Operation, Optional[int],
                                           bool, SimEvent]]] = {}
        #: Instant from which each freeze takes effect.  Park decisions
        #: compare sim.now against this timestamp instead of depending
        #: on whether the freeze callback ran before or after the op
        #: within the same instant (same-instant callback order is an
        #: artefact of the scheduler, so it must never influence
        #: routing).
        self._freeze_at: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def send_update(self, op: Operation,
                    payload_bytes: Optional[int] = None) -> SimEvent:
        return self._route(op, payload_bytes, True)

    def bypass(self, op: Operation,
               payload_bytes: Optional[int] = None) -> SimEvent:
        return self._route(op, payload_bytes, False)

    def _route(self, op: Operation, payload_bytes: Optional[int],
               is_update: bool) -> SimEvent:
        server = self.placement.lookup(op.key)
        parked = self._frozen.get(server)
        if parked is not None and \
                self.sim.now >= self._freeze_at.get(server, 0):
            proxy = self.sim.event(f"{self.host.name}.frozen-op")
            parked.append((op, payload_bytes, is_update, proxy))
            return proxy
        subclient = self._by_server[server]
        if is_update:
            return subclient.send_update(op, payload_bytes)
        return subclient.bypass(op, payload_bytes)

    def shard_index(self, key: object) -> int:
        return self._index_by_server[self.placement.lookup(key)]

    def shard_for(self, key: object) -> PMNetClient:
        return self._by_server[self.placement.lookup(key)]

    # ------------------------------------------------------------------
    # Control-plane surface (used by SessionMigrator)
    # ------------------------------------------------------------------
    def freeze(self, server: str, at_ns: Optional[int] = None) -> None:
        """Park new operations destined for ``server`` until thawed.

        ``at_ns`` defers activation: operations issued at instants
        strictly before it keep routing directly.  Controllers freeze
        at ``sim.now + 1`` so ops sharing the freeze instant behave
        identically whether they execute before or after this call.
        """
        self._frozen.setdefault(server, [])
        self._freeze_at[server] = self.sim.now if at_ns is None else at_ns

    def thaw(self, server: str) -> None:
        """Release parked operations, re-routing through the (possibly
        updated) placement in their original FIFO order."""
        self._freeze_at.pop(server, None)
        for op, payload_bytes, is_update, proxy in \
                self._frozen.pop(server, []):
            real = self._route(op, payload_bytes, is_update)
            real.add_callback(self._complete_thawed, proxy)

    @staticmethod
    def _complete_thawed(event: SimEvent, proxy: SimEvent) -> None:
        if event.exception is not None:
            proxy.fail(event.exception)
        else:
            proxy.succeed(event.value)

    def outstanding_for(self, server: str) -> int:
        """In-flight requests on the wire toward ``server`` (parked
        frozen operations are not on the wire and do not count)."""
        return self._by_server[server].outstanding

    def frozen_count(self, server: str) -> int:
        parked = self._frozen.get(server)
        return len(parked) if parked is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RingClient {self.host.name} "
                f"shards={len(self.servers)}>")
