"""Shared pieces of the alternative-design baselines (Fig 17).

Both client-side and server-side logging replicate their logs to peer
machines; :class:`ReplicaLogger` is the endpoint running on such a peer:
it charges a persistent log write and answers with an acknowledgement.
The servers that wait on replicas (server-side logging and server-side
replication) share :class:`ReplicaWait`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.host.node import HostNode
from repro.net.packet import Frame, RawPayload
from repro.sim.clock import microseconds
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Message tags used by the replication side channels.
REPLICATE_LOG = "replicate_log"
REPLICATE_ACK = "replicate_ack"

#: Applying a replicated record: PM write + bookkeeping.
REPLICA_APPLY_NS = microseconds(1.2)


class ReplicaLogger:
    """A peer machine that persists replicated log records and ACKs."""

    def __init__(self, sim: "Simulator", host: HostNode) -> None:
        self.sim = sim
        self.host = host
        host.bind(self)
        self.records_logged = Counter(f"{host.name}.replica_logged")

    def on_frame(self, frame: Frame) -> None:
        payload = frame.payload
        if not isinstance(payload, RawPayload):
            return
        data = payload.data
        if not (isinstance(data, tuple) and len(data) == 3
                and data[0] == REPLICATE_LOG):
            return
        _tag, record_id, record_bytes = data
        self.sim.schedule(REPLICA_APPLY_NS, self._acknowledge, frame.src,
                          record_id, frame.udp_port)

    def _acknowledge(self, origin: str, record_id: int,
                     udp_port: int) -> None:
        if self.host.failed:
            return
        self.records_logged.increment()
        ack = RawPayload((REPLICATE_ACK, record_id, self.host.name), 16)
        self.host.send_frame(origin, ack, 16, udp_port)


class ReplicaWait:
    """A server's wait on its replicas.

    :meth:`ship` sends a record to every replica host; once each has
    answered, ``on_replicated(value)`` runs.  The wait is volatile: a
    power cut loses it, so the server's ``crash`` must :meth:`clear` it,
    or an ACK arriving after the machine reboots would release a record
    the crash lost.
    """

    def __init__(self, host: HostNode, replica_hosts: List[str],
                 on_replicated: Callable[[object], None]) -> None:
        self.host = host
        self.replica_hosts = list(replica_hosts)
        self.on_replicated = on_replicated
        #: record id -> (value to release, replica ACKs still missing).
        self._pending: Dict[int, Tuple[object, int]] = {}
        self._record_ids = itertools.count(1)

    def ship(self, value: object, payload_bytes: int) -> None:
        record_id = next(self._record_ids)
        self._pending[record_id] = (value, len(self.replica_hosts))
        for replica in self.replica_hosts:
            self.host.send_frame(
                replica,
                RawPayload((REPLICATE_LOG, record_id, payload_bytes),
                           payload_bytes),
                payload_bytes, udp_port=9200)

    def on_raw(self, data: object) -> bool:
        """Count one ``REPLICATE_ACK``; whether ``data`` was one."""
        if not (isinstance(data, tuple) and len(data) == 3
                and data[0] == REPLICATE_ACK):
            return False
        entry = self._pending.get(data[1])
        if entry is not None:
            value, remaining = entry
            if remaining <= 1:
                del self._pending[data[1]]
                self.on_replicated(value)
            else:
                self._pending[data[1]] = (value, remaining - 1)
        return True

    def clear(self) -> None:
        self._pending.clear()
