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

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.baselines.common import REPLICATE_ACK, REPLICATE_LOG
from repro.errors import SessionError
from repro.host.client import Completion
from repro.host.node import HostNode
from repro.net.packet import Frame, RawPayload
from repro.protocol.fragment import fragment_request, max_fragment_payload
from repro.protocol.packet import PMNetPacket
from repro.protocol.session import Session, SessionAllocator
from repro.protocol.types import PacketType
from repro.sim.event import SimEvent
from repro.sim.monitor import Counter
from repro.sim.trace import Tracer
from repro.workloads.kv import Operation, Result

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import SystemConfig
    from repro.sim.kernel import Simulator

_record_ids = itertools.count(1)


@dataclass
class _UpdateState:
    completion: SimEvent
    local_done: bool = False
    acks_needed: int = 0
    acks_received: int = 0
    #: The first packet forwarded to the server: its ids name the
    #: request in the trace.
    first: Optional[PMNetPacket] = None

    @property
    def satisfied(self) -> bool:
        return self.local_done and self.acks_received >= self.acks_needed


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
        #: Peer client machines holding log replicas (empty = no repl).
        self.peers = list(peers or [])
        self.tracer = tracer if tracer is not None else sim.tracer
        host.bind(self)
        self.session: Optional[Session] = None
        self._updates: Dict[int, _UpdateState] = {}
        #: request id -> (completion, first packet) of a pending read.
        self._reads: Dict[int, Tuple[SimEvent, PMNetPacket]] = {}
        self._mtu_payload = max_fragment_payload(
            config.network.mtu_bytes, config.network.header_overhead_bytes)
        self.logged_locally = Counter(f"{host.name}.logged_locally")

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
        record_id = next(_record_ids)
        state = _UpdateState(completion=self.sim.event(f"cl-log{record_id}"),
                             acks_needed=len(self.peers))
        self._updates[record_id] = state
        local_cost = (2 * self.config.client.local_ipc_ns
                      + self.config.client.local_log_write_ns)
        self.sim.schedule(local_cost, self._local_logged, record_id)
        for peer in self.peers:
            self.host.send_frame(
                peer, RawPayload((REPLICATE_LOG, record_id, size), size),
                size, udp_port=9200)
        # Off the critical path: the request still goes to the server.
        state.first = self._forward(PacketType.UPDATE_REQ, op, size)[0]
        return state.completion

    def bypass(self, op: Operation,
               payload_bytes: Optional[int] = None) -> SimEvent:
        """Reads go to the server as usual."""
        size = payload_bytes if payload_bytes is not None \
            else self.config.payload_bytes
        packets = self._forward(PacketType.BYPASS_REQ, op, size)
        completion = self.sim.event(f"cl-read{packets[0].request_id}")
        self._reads[packets[0].request_id] = (completion, packets[0])
        return completion

    def _forward(self, packet_type: PacketType, op: Operation,
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
        for packet in packets:
            self.host.send_frame(self.server, packet, packet.wire_bytes,
                                 51000 + packet.session_id % 1000)
        return packets

    # ------------------------------------------------------------------
    def _local_logged(self, record_id: int) -> None:
        state = self._updates.get(record_id)
        if state is None:
            return
        self.logged_locally.increment()
        state.local_done = True
        self._maybe_complete(record_id, state)

    def _maybe_complete(self, record_id: int, state: _UpdateState) -> None:
        if state.satisfied and not state.completion.triggered:
            del self._updates[record_id]
            self._trace_completed(state.first, "client-log", True, True)
            state.completion.succeed(
                Completion(result=Result(ok=True), via="client-log"))

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
            data = payload.data
            if (isinstance(data, tuple) and len(data) == 3
                    and data[0] == REPLICATE_ACK):
                state = self._updates.get(data[1])
                if state is not None:
                    state.acks_received += 1
                    self._maybe_complete(data[1], state)
            elif (isinstance(data, tuple) and len(data) == 3
                    and data[0] == REPLICATE_LOG):
                # This machine is a replica target for a peer client.
                self.sim.schedule(
                    self.config.client.local_log_write_ns,
                    self._replica_ack, frame.src, data[1], frame.udp_port)
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

    def _replica_ack(self, origin: str, record_id: int,
                     udp_port: int) -> None:
        if self.host.failed:
            return
        self.host.send_frame(
            origin, RawPayload((REPLICATE_ACK, record_id, self.host.name),
                               16), 16, udp_port)
