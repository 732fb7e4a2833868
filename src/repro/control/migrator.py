"""Live session migration between shard servers.

Moves every shard currently owned by a *source* server to a *target*
server while the workload keeps running, without violating the paper's
persistence rules or per-session ordering:

1. **Freeze** — every client parks new operations destined for the
   source behind proxy events (FIFO per client, so per-key program
   order is preserved end to end).
2. **Drain** — wait until no client has an in-flight request toward the
   source.  Together with the freeze this quiesces the source's
   sessions at a clean boundary: everything sent has been acknowledged,
   nothing new is on the wire.
3. **Transfer** — copy the source store's committed entries for the
   moving shards into the target store, charged at the stores' real
   metered insert cost plus a per-item wire cost.  Entries still
   sitting in PMNet device redo logs are *not* copied: on recovery they
   replay to the original server, whose store remains part of the
   durable union the oracle checks.
4. **Re-ring** — one :meth:`PlacementView.assign` call re-points the
   moving ring members at the target for every client atomically.
5. **Thaw** — parked operations flush in FIFO order through the updated
   placement.  They enter the *target's existing* per-client sessions,
   so SeqNum streams stay per-session-continuous and the server-side
   reorder buffers never see a discontinuity.

Migrations are serialized: a second request queues until the active one
commits, so at most one server is frozen at a time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, List, Mapping, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.clock import microseconds
from repro.sim.event import SimEvent
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.control.placement import PlacementView
    from repro.host.server import PMNetServer
    from repro.host.sharded import RingClient
    from repro.sim.kernel import Simulator


@dataclass
class MigrationStats:
    """One completed (or in-flight) migration, with its timeline."""

    source: str
    target: str
    requested_at_ns: int
    started_at_ns: int
    drained_at_ns: Optional[int] = None
    completed_at_ns: Optional[int] = None
    moved_members: Tuple[str, ...] = ()
    requested_members: Optional[Tuple[str, ...]] = None
    items_copied: int = 0
    parked_released: int = 0
    transfer_cost_ns: int = 0

    def describe(self) -> str:
        return (f"migrate {self.source}->{self.target}: "
                f"{len(self.moved_members)} shards, "
                f"{self.items_copied} items, "
                f"{self.parked_released} parked ops")


class SessionMigrator:
    """Serialized live migration over a deployment's shared placement."""

    def __init__(self, sim: "Simulator", placement: "PlacementView",
                 clients: List["RingClient"],
                 servers: Mapping[str, "PMNetServer"],
                 tracer: Optional[Tracer] = None,
                 poll_ns: int = microseconds(5),
                 transfer_base_ns: int = microseconds(50),
                 per_item_wire_ns: int = microseconds(1)) -> None:
        self.sim = sim
        self.placement = placement
        self.clients = list(clients)
        self.servers = dict(servers)
        self.tracer = tracer
        self.poll_ns = poll_ns
        self.transfer_base_ns = transfer_base_ns
        self.per_item_wire_ns = per_item_wire_ns
        self.completed: List[MigrationStats] = []
        self._pending: Deque[Tuple[str, str, Optional[Tuple[str, ...]],
                                   SimEvent, int]] = deque()
        self._active: Optional[MigrationStats] = None

    @property
    def busy(self) -> bool:
        return self._active is not None or bool(self._pending)

    # ------------------------------------------------------------------
    def migrate(self, source: str, target: str,
                members: Optional[Tuple[str, ...]] = None) -> SimEvent:
        """Request a migration; returns an event succeeding with the
        :class:`MigrationStats` once the move commits.

        ``members`` restricts the move to a subset of the source's ring
        members (hot-shard spill); ``None`` moves everything the source
        currently owns.
        """
        for name in (source, target):
            if name not in self.servers:
                raise SimulationError(f"unknown migration server {name!r}")
        done = self.sim.event(f"migrate:{source}->{target}")
        self._pending.append((source, target, members, done, self.sim.now))
        if self._active is None:
            self._start_next()
        return done

    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        if not self._pending:
            return
        source, target, members, done, requested_at = self._pending.popleft()
        stats = MigrationStats(source=source, target=target,
                               requested_at_ns=requested_at,
                               started_at_ns=self.sim.now,
                               requested_members=members)
        self._active = stats
        # Activate the freeze one instant ahead: ops issued at this
        # exact instant race this callback, and that order is an
        # artefact of the scheduler's tie-break.  A timestamped gate
        # keeps the park/no-park decision order-independent.
        freeze_from = self.sim.now + 1
        for client in self.clients:
            client.freeze(source, at_ns=freeze_from)
        self._trace("migration_freeze", source=source, target=target)
        # First drain check at the freeze-activation instant, after
        # every op issued at the freeze instant has hit the wire (and
        # is therefore counted by outstanding_for).  The +1 ns also
        # pushes the drain/commit schedule off the microsecond event
        # grid, so poll and thaw instants stop colliding with
        # data-plane arrivals.
        self.sim.schedule(1, self._poll_drain, stats, done)

    def _poll_drain(self, stats: MigrationStats, done: SimEvent) -> None:
        for client in self.clients:
            if client.outstanding_for(stats.source):
                self.sim.schedule(self.poll_ns, self._poll_drain, stats, done)
                return
        stats.drained_at_ns = self.sim.now
        self._trace("migration_drained", source=stats.source,
                    target=stats.target)
        self._transfer(stats, done)

    def _transfer(self, stats: MigrationStats, done: SimEvent) -> None:
        placement = self.placement
        owned = placement.owners_resolving_to(stats.source)
        if stats.requested_members is None:
            stats.moved_members = tuple(owned)
        else:
            # A requested member that no longer resolves to the source
            # (racing policies) is silently dropped, not re-stolen.
            stats.moved_members = tuple(
                member for member in stats.requested_members
                if member in owned)
        moving = set(stats.moved_members)
        cost = self.transfer_base_ns
        copied = 0
        source_store = getattr(self.servers[stats.source].handler,
                               "structure", None)
        target_store = getattr(self.servers[stats.target].handler,
                               "structure", None)
        if (stats.source != stats.target and moving
                and source_store is not None and target_store is not None):
            ring = placement.ring
            for key, value in list(source_store.items()):
                # Only entries whose shard is moving travel; stale
                # copies left by an earlier migration away from this
                # server resolve elsewhere and are skipped.
                if ring.lookup(key) not in moving:
                    continue
                cost += target_store.set(key, value) + self.per_item_wire_ns
                copied += 1
        stats.items_copied = copied
        stats.transfer_cost_ns = cost
        self.sim.schedule(cost, self._commit, stats, done)

    def _commit(self, stats: MigrationStats, done: SimEvent) -> None:
        self.placement.assign_members(stats.moved_members, stats.target)
        released = 0
        # Thaw one client per nanosecond.  Released batches serialize
        # on each client's uplink at the frame period, so two clients
        # thawed at the *same* instant produce identical downstream
        # arrival lattices — frames from different racks then tie at
        # shared devices and the tie-break order is a same-instant
        # scheduling artifact.  A 1 ns phase offset per client keeps
        # every lattice disjoint (offsets stay far below one frame
        # serialization time, so no latency is meaningfully charged).
        for idx, client in enumerate(self.clients):
            released += client.frozen_count(stats.source)
            if idx == 0:
                client.thaw(stats.source)
            else:
                self.sim.schedule(idx, client.thaw, stats.source)
        stats.parked_released = released
        stats.completed_at_ns = self.sim.now
        self._trace("migration_commit", source=stats.source,
                    target=stats.target, shards=len(stats.moved_members),
                    items=stats.items_copied, parked=released)
        self.completed.append(stats)
        self._active = None
        done.succeed(stats)
        self._start_next()

    def _trace(self, event: str, **details) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "control", event, **details)
