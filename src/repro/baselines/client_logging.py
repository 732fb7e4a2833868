"""Client-side logging, the first alternative design (Fig 17a).

The client logs the update in a co-located dedicated logger process
(one IPC round trip plus a PM write — no network stack) and proceeds
immediately; the request is then forwarded to the server off the
critical path.  With replication, the log record must additionally be
persisted on peer *client* machines before the application may proceed,
which drags the full network stack back onto the critical path — the
effect Fig 18's replicated columns show.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.baselines.common import ReplicaLogger, ReplicaWait
from repro.errors import SessionError
from repro.host.client import Completion
from repro.host.node import HostNode
from repro.net.packet import Frame, RawPayload
from repro.protocol.fragment import fragment_request, max_fragment_payload
from repro.protocol.packet import PMNetPacket
from repro.protocol.session import Session, SessionAllocator
from repro.protocol.types import PacketType
from repro.sim.event import SimEvent
from repro.sim.trace import Tracer
from repro.workloads.kv import Operation, Result

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import SystemConfig
    from repro.sim.kernel import Simulator


class ClientLoggingClient:
    """Drop-in client whose updates complete at the local logger."""

    def __init__(self, sim: "Simulator", host: HostNode,
                 config: "SystemConfig", server: str,
                 allocator: SessionAllocator,
                 peers: Optional[List[str]] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.sim = sim
        self.host = host
        self.config = config
        self.server = server
        self.allocator = allocator
        self.tracer = tracer if tracer is not None else sim.tracer
        host.bind(self)
        self.session: Optional[Session] = None
        #: Updates awaiting the local log and the peer client machines
        #: holding log replicas (no peers = no replication).
        self.replicas = ReplicaWait(host, peers or [], self._logged)
        #: This machine's copies of its peers' log records.
        self.logger = ReplicaLogger(sim, host,
                                    config.client.local_log_write_ns)
        #: request id -> (completion, first packet) of a pending read.
        self._reads: Dict[int, Tuple[SimEvent, PMNetPacket]] = {}
        self._mtu_payload = max_fragment_payload(
            config.network.mtu_bytes, config.network.header_overhead_bytes)

    # -- session management (same surface as PMNetClient) ----------------
    def start_session(self) -> Session:
        if self.session is not None and not self.session.closed:
            raise SessionError(f"client {self.host.name} already in a session")
        self.session = self.allocator.open(self.host.name, self.server)
        return self.session

    def end_session(self) -> None:
        if self.session is None:
            raise SessionError(f"client {self.host.name} has no session")
        self.allocator.close(self.session)

    # ------------------------------------------------------------------
    def send_update(self, op: Operation,
                    payload_bytes: Optional[int] = None) -> SimEvent:
        """Log locally (plus peers), forward to the server asynchronously."""
        size = payload_bytes if payload_bytes is not None \
            else self.config.payload_bytes
        packets = self._fragment(PacketType.UPDATE_REQ, op, size)
        completion = self.sim.event(f"cl-log{packets[0].request_id}")
        record_id = self.replicas.ship((completion, packets[0]), size,
                                       held_by=(self.host.name,))
        local_cost = (2 * self.config.client.local_ipc_ns
                      + self.config.client.local_log_write_ns)
        self.sim.schedule(local_cost, self.replicas.confirm, record_id,
                          self.host.name)
        # Off the critical path: the request still goes to the server.
        self._forward(packets)
        return completion

    def bypass(self, op: Operation,
               payload_bytes: Optional[int] = None) -> SimEvent:
        """Reads go to the server as usual."""
        size = payload_bytes if payload_bytes is not None \
            else self.config.payload_bytes
        packets = self._fragment(PacketType.BYPASS_REQ, op, size)
        self._forward(packets)
        completion = self.sim.event(f"cl-read{packets[0].request_id}")
        self._reads[packets[0].request_id] = (completion, packets[0])
        return completion

    def _fragment(self, packet_type: PacketType, op: Operation,
                  size: int) -> List[PMNetPacket]:
        if self.session is None or self.session.closed:
            raise SessionError(
                f"client {self.host.name}: start_session() first")
        packets = fragment_request(self.session, packet_type, op, size,
                                   self._mtu_payload)
        if self.tracer.enabled:
            first = packets[0]
            self.tracer.emit(self.sim.now, self.host.name, "request_sent",
                             req=first.request_id, session=first.session_id,
                             seq=first.seq_num,
                             update=packet_type is PacketType.UPDATE_REQ,
                             fragments=len(packets))
        return packets

    def _forward(self, packets: List[PMNetPacket]) -> None:
        for packet in packets:
            self.host.send_frame(self.server, packet, packet.wire_bytes,
                                 51000 + packet.session_id % 1000)

    # ------------------------------------------------------------------
    def _logged(self, update: Tuple[SimEvent, PMNetPacket]) -> None:
        completion, first = update
        self._trace_completed(first, "client-log", True, True)
        completion.succeed(Completion(result=Result(ok=True),
                                      via="client-log"))

    def _trace_completed(self, first: PMNetPacket, via: str, update: bool,
                         ok: bool) -> None:
        """The record :class:`~repro.host.client.PMNetClient` emits when
        a request completes."""
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.host.name, "completed",
                             req=first.request_id, session=first.session_id,
                             seq=first.seq_num, via=via, update=update,
                             ok=ok)

    # ------------------------------------------------------------------
    def on_frame(self, frame: Frame) -> None:
        payload = frame.payload
        if isinstance(payload, RawPayload):
            # An ACK from a peer holding this client's record, or a
            # peer's record for this machine to hold.
            if not self.replicas.on_raw(payload.data):
                self.logger.on_frame(frame)
            return
        if isinstance(payload, PMNetPacket):
            if payload.packet_type is PacketType.SERVER_RESP:
                read = self._reads.pop(payload.request_id, None)
                if read is not None and not read[0].triggered:
                    completion, first = read
                    result = payload.payload if isinstance(
                        payload.payload, Result) else Result(ok=True)
                    self._trace_completed(first, "server", False, result.ok)
                    completion.succeed(Completion(result=result,
                                                  via="server"))
            # SERVER_ACKs for forwarded updates invalidate the local log;
            # nothing blocks on them.
