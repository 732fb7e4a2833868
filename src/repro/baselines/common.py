"""Shared pieces of the alternative-design baselines (Fig 17).

Every baseline ships its log records to copy holders and acknowledges
only once all of them have answered: the servers of server-side logging
and server-side replication wait on replica servers, a client-side
logging client on its peer clients.  :class:`ReplicaWait` is that wait;
:class:`ReplicaLogger` is the endpoint answering it on a copy holder: it
charges a persistent log write and answers with an acknowledgement.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Set, Tuple

from repro.host.node import HostNode
from repro.net.packet import Frame, RawPayload
from repro.sim.clock import microseconds
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Message tags used by the replication side channels.
REPLICATE_LOG = "replicate_log"
REPLICATE_ACK = "replicate_ack"

#: Applying a replicated record on a replica server: PM write +
#: bookkeeping.
REPLICA_APPLY_NS = microseconds(1.2)


class ReplicaLogger:
    """Persists replicated log records on ``host`` and ACKs each one
    ``apply_ns`` after it arrives."""

    def __init__(self, sim: "Simulator", host: HostNode,
                 apply_ns: int) -> None:
        self.sim = sim
        self.host = host
        self.apply_ns = apply_ns
        self.records_logged = Counter(f"{host.name}.replica_logged")

    def on_frame(self, frame: Frame) -> None:
        payload = frame.payload
        if not isinstance(payload, RawPayload):
            return
        data = payload.data
        if not (isinstance(data, tuple) and len(data) == 3
                and data[0] == REPLICATE_LOG):
            return
        self.sim.schedule(self.apply_ns, self._acknowledge, frame.src,
                          data[1], frame.udp_port)

    def _acknowledge(self, origin: str, record_id: int,
                     udp_port: int) -> None:
        if self.host.failed:
            return
        self.records_logged.increment()
        ack = RawPayload((REPLICATE_ACK, record_id, self.host.name), 16)
        self.host.send_frame(origin, ack, 16, udp_port)


class ReplicaWait:
    """A host's wait on the copy holders of its log records.

    :meth:`ship` sends a record to every replica host; once each of them
    (and each name in its ``held_by``) has confirmed it,
    ``on_replicated(value)`` runs — at once when there is nobody to wait
    on.  Confirmations are kept per holder, so a duplicated ACK counts
    once.  The wait is volatile: a power cut loses it, so a server's
    ``crash`` must :meth:`clear` it, or an ACK arriving after the
    machine reboots would release a record the crash lost.
    """

    def __init__(self, host: HostNode, replica_hosts: List[str],
                 on_replicated: Callable[[object], None]) -> None:
        self.host = host
        self.replica_hosts = list(replica_hosts)
        self.on_replicated = on_replicated
        #: record id -> (value to release, holders still to confirm).
        self._pending: Dict[int, Tuple[object, Set[str]]] = {}
        self._record_ids = itertools.count(1)

    def ship(self, value: object, payload_bytes: int,
             held_by: Iterable[str] = ()) -> int:
        """Send ``value``'s record to the replicas; its record id.

        ``held_by`` names further holders the caller will
        :meth:`confirm` itself (a client's own log)."""
        record_id = next(self._record_ids)
        missing = {*self.replica_hosts, *held_by}
        if not missing:
            self.on_replicated(value)
            return record_id
        self._pending[record_id] = (value, missing)
        for replica in self.replica_hosts:
            self.host.send_frame(
                replica,
                RawPayload((REPLICATE_LOG, record_id, payload_bytes),
                           payload_bytes),
                payload_bytes, udp_port=9200)
        return record_id

    def confirm(self, record_id: int, holder: str) -> None:
        """``holder`` holds record ``record_id``."""
        entry = self._pending.get(record_id)
        if entry is None:
            return
        value, missing = entry
        missing.discard(holder)
        if not missing:
            del self._pending[record_id]
            self.on_replicated(value)

    def on_raw(self, data: object) -> bool:
        """Take one ``REPLICATE_ACK``; whether ``data`` was one."""
        if not (isinstance(data, tuple) and len(data) == 3
                and data[0] == REPLICATE_ACK):
            return False
        self.confirm(data[1], data[2])
        return True

    def clear(self) -> None:
        self._pending.clear()
