"""The client-side PMNet library (Table I: client side).

:class:`PMNetClient` exposes the paper's four-call interface —
``start_session`` / ``end_session`` / ``send_update`` / ``bypass`` —
over the simulated fabric.  ``send_update`` returns an event that
succeeds once the request is *persistent*: either every fragment holds
PMNet-ACKs from the required number of distinct devices (the replication
policy), or the server itself acknowledged.  ``bypass`` completes on the
server's (or in-network cache's) response.

The library also implements the reliability half of the protocol: it
retransmits unacknowledged fragments after a timeout and answers the
server's Retrans requests for packets PMNet could not serve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.config import folding_enabled
from repro.core.replication import ReplicationPolicy, SINGLE_LOG
from repro.errors import SessionError
from repro.host.node import HostNode
from repro.net.packet import Frame
from repro.obs import spans
from repro.obs.registry import register_with_sim
from repro.protocol.fragment import fragment_request, max_fragment_payload
from repro.protocol.packet import PMNetPacket, RetransRequest
from repro.protocol.session import Session, SessionAllocator
from repro.protocol.types import PacketType, UPDATE_TYPES
from repro.sim.event import SimEvent
from repro.sim.monitor import Counter
from repro.sim.trace import Tracer
from repro.workloads.kv import Operation, Result

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import SystemConfig
    from repro.sim.kernel import Simulator


@dataclass
class Completion:
    """What a finished request hands back to the application."""

    result: Result
    #: "pmnet" (early ACK), "server" (server ACK/response), or "cache".
    via: str
    retransmissions: int = 0


@dataclass
class _PendingRequest:
    """Client-side state of one in-flight request."""

    packets: List[PMNetPacket]
    completion: SimEvent
    is_update: bool
    #: Per-fragment set of distinct PMNet device names that ACKed.
    pmnet_origins: List[Set[str]] = field(default_factory=list)
    server_acked: List[bool] = field(default_factory=list)
    retransmissions: int = 0
    timer_token: object = None
    #: The armed timeout's heap record (whole-request folding cancels it
    #: on completion instead of letting it fire as a no-op).
    timer_call: object = None

    def __post_init__(self) -> None:
        if not self.pmnet_origins:
            self.pmnet_origins = [set() for _ in self.packets]
        if not self.server_acked:
            self.server_acked = [False] * len(self.packets)


class PMNetClient:
    """One client instance bound to a host."""

    def __init__(self, sim: "Simulator", host: HostNode,
                 config: "SystemConfig", server: str,
                 allocator: SessionAllocator,
                 policy: ReplicationPolicy = SINGLE_LOG,
                 max_retries: Optional[int] = None,
                 tracer: Optional[Tracer] = None,
                 bind: bool = True,
                 chain: Tuple[str, ...] = (),
                 instrument_scope: Optional[str] = None) -> None:
        self.sim = sim
        self.host = host
        self.config = config
        self.server = server
        self.allocator = allocator
        self.policy = policy
        self.max_retries = max_retries
        #: Replication chain for updates (device names, head first, tail
        #: last).  When set, updates go out as CHAIN_UPDATEs addressed to
        #: the head; the tail's PMNET_ACK completes them.
        self.chain: Tuple[str, ...] = tuple(chain)
        self.tracer = tracer if tracer is not None else sim.tracer
        self._spans = spans.spans_for(sim)
        if bind:
            # A sharded wrapper owns the host endpoint and demultiplexes
            # frames to per-server sub-clients instead.
            host.bind(self)
        self.session: Optional[Session] = None
        self._pending: Dict[int, _PendingRequest] = {}
        self._by_seq: Dict[Tuple[int, int], Tuple[_PendingRequest, int]] = {}
        #: Latest-expiring no-op timeout of a completed request, kept
        #: armed so the end-of-run clock matches the unfolded timeline.
        self._stale_timer = None
        self._mtu_payload = max_fragment_payload(
            config.network.mtu_bytes, config.network.header_overhead_bytes)
        # Sub-clients of a sharded wrapper share one host; the wrapper
        # scopes their instrument names per shard to keep them unique.
        scope = instrument_scope if instrument_scope else host.name
        self.completed_pmnet = Counter(f"{scope}.completed_pmnet")
        self.completed_server = Counter(f"{scope}.completed_server")
        self.completed_cache = Counter(f"{scope}.completed_cache")
        self.retransmissions = Counter(f"{scope}.retransmissions")
        self._completed_via = {"pmnet": self.completed_pmnet,
                               "server": self.completed_server,
                               "cache": self.completed_cache}
        self._fold = folding_enabled()
        if self._fold:
            # Whole-request folding: inbound ACK chains may extend
            # through the stack receive cost (revocable pre-draw), the
            # completion timeout is cancelled instead of firing as a
            # no-op, and the application wakeup dispatches inline at its
            # unfolded heap slot.
            host.express_inbound = True
        register_with_sim(sim, self)

    def instruments(self) -> tuple:
        """This client's typed instruments (explicit registration)."""
        return (self.completed_pmnet, self.completed_server,
                self.completed_cache, self.retransmissions)

    # ------------------------------------------------------------------
    # Table I interface
    # ------------------------------------------------------------------
    def start_session(self) -> Session:
        """``PMNet_start_session()``: open a session to the server."""
        if self.session is not None and not self.session.closed:
            raise SessionError(f"client {self.host.name} already in a session")
        self.session = self.allocator.open(self.host.name, self.server)
        return self.session

    def end_session(self) -> None:
        """``PMNet_end_session()``: close the current session."""
        if self.session is None:
            raise SessionError(f"client {self.host.name} has no session")
        self.allocator.close(self.session)

    def send_update(self, op: Operation,
                    payload_bytes: Optional[int] = None) -> SimEvent:
        """``PMNet_send_update()``: an update-req that PMNet may log."""
        packet_type = (PacketType.CHAIN_UPDATE if self.chain
                       else PacketType.UPDATE_REQ)
        return self._send(packet_type, op, payload_bytes)

    def bypass(self, op: Operation,
               payload_bytes: Optional[int] = None) -> SimEvent:
        """``PMNet_bypass()``: a read/synchronization request that must
        reach the server (no early acknowledgement)."""
        return self._send(PacketType.BYPASS_REQ, op, payload_bytes)

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def _send(self, packet_type: PacketType, op: Operation,
              payload_bytes: Optional[int]) -> SimEvent:
        if self.session is None or self.session.closed:
            raise SessionError(
                f"client {self.host.name}: start_session() first")
        size = payload_bytes if payload_bytes is not None \
            else self.config.payload_bytes
        packets = fragment_request(self.session, packet_type, op, size,
                                   self._mtu_payload)
        if packet_type is PacketType.CHAIN_UPDATE:
            for packet in packets:
                packet.chain = self.chain
        is_update = packet_type in UPDATE_TYPES
        state = _PendingRequest(
            packets=packets,
            completion=self.sim.event(f"req{packets[0].request_id}"),
            is_update=is_update)
        self._pending[packets[0].request_id] = state
        if self._spans is not None:
            self._spans.record(packets[0].request_id, spans.CLIENT_SEND,
                               self.sim.now)
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.host.name, "request_sent",
                             req=packets[0].request_id,
                             session=packets[0].session_id,
                             seq=packets[0].seq_num, update=is_update,
                             fragments=len(packets))
        for index, packet in enumerate(packets):
            # Updates and reads draw from separate SeqNum streams
            # (session.py), so the stream is part of the key.
            key = (packet.session_id, packet.seq_num, is_update)
            self._by_seq[key] = (state, index)
            self._transmit(packet)
        self._arm_timeout(state)
        return state.completion

    def _transmit(self, packet: PMNetPacket) -> None:
        # Chain updates enter at the head device; everything else —
        # including timeout retransmissions of chain packets, which
        # re-walk the chain so missing members regain their copies —
        # goes straight at the server.
        destination = (packet.chain[0]
                       if packet.packet_type is PacketType.CHAIN_UPDATE
                       and packet.chain else self.server)
        self.host.send_frame(destination, packet, packet.wire_bytes,
                             51000 + packet.session_id % 1000)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_frame(self, frame: Frame) -> None:
        packet = frame.payload
        if not isinstance(packet, PMNetPacket):
            return
        kind = packet.packet_type
        if kind is PacketType.RETRANS:
            self._handle_retrans(packet)
            return
        is_update_ack = kind in (PacketType.PMNET_ACK,
                                 PacketType.SERVER_ACK)
        lookup = self._by_seq.get(
            (packet.session_id, packet.seq_num, is_update_ack))
        if lookup is None:
            return  # late ACK for an already-completed request
        state, index = lookup
        if kind is PacketType.PMNET_ACK:
            state.pmnet_origins[index].add(packet.origin_device or "pmnet")
            self._check_update_completion(state, via="pmnet")
        elif kind is PacketType.SERVER_ACK:
            state.server_acked[index] = True
            self._check_update_completion(state, via="server")
        elif kind in (PacketType.SERVER_RESP, PacketType.CACHE_RESP):
            result = packet.payload if isinstance(packet.payload, Result) \
                else Result(ok=True)
            via = "cache" if kind is PacketType.CACHE_RESP else "server"
            self._complete(state, result, via)

    def _fragment_persistent(self, state: _PendingRequest, index: int) -> bool:
        if state.server_acked[index]:
            return True
        return (self.policy.uses_pmnet
                and self.policy.satisfied_by(len(state.pmnet_origins[index])))

    def _check_update_completion(self, state: _PendingRequest,
                                 via: str) -> None:
        if not state.is_update or state.completion.triggered:
            return
        if all(self._fragment_persistent(state, i)
               for i in range(len(state.packets))):
            self._complete(state, Result(ok=True), via)

    def _complete(self, state: _PendingRequest, result: Result,
                  via: str) -> None:
        if state.completion.triggered:
            return
        for packet in state.packets:
            self._by_seq.pop(
                (packet.session_id, packet.seq_num, state.is_update), None)
        self._pending.pop(state.packets[0].request_id, None)
        state.timer_token = None
        if self._fold and state.timer_call is not None:
            # The pending timeout would fire as a pure no-op (its token
            # is cleared and the completion is triggered below, both
            # checked first thing), so it can be cancelled — except that
            # a run's *final* no-op timeout still advances the drained
            # queue's end-of-run clock, which fold identity preserves.
            # Keeping the latest-expiring stale timer armed (and only
            # cancelling ones dominated by it) pins that tail event in
            # place: one surviving no-op per client instead of one per
            # request.
            call = state.timer_call
            state.timer_call = None
            stale = self._stale_timer
            if stale is None:
                self._stale_timer = call
            elif stale.time <= call.time:
                stale.cancel()
                self._stale_timer = call
            else:
                call.cancel()
        self._completed_via[via].increment()
        first = state.packets[0]
        if self._spans is not None:
            self._spans.record(first.request_id, spans.CLIENT_COMPLETE,
                               self.sim.now)
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.host.name, "completed",
                             req=first.request_id, session=first.session_id,
                             seq=first.seq_num, via=via,
                             update=state.is_update, ok=result.ok)
        # The application wakeup (epoll + scheduler) is charged here.
        # The draw goes through the host so an outstanding express-claim
        # pre-draw is revoked before the jitter stream advances.
        completion = Completion(result=result, via=via,
                                retransmissions=state.retransmissions)
        cost = self.host.dispatch_cost()
        if self._fold and state.completion.waiter_count == 1:
            # Single waiter (the driver): run it inline at the wakeup
            # instant.  The one-hop ``(0,)`` defer re-sequences the
            # record at ``now + cost``, allocating the fresh seq exactly
            # where the unfolded ``_succeed`` event would sit, so any
            # same-instant tie-breaking is unchanged — but the waiter's
            # resumption piggybacks on this event instead of costing its
            # own.  Zero- or multi-waiter completions keep the plain
            # path: their callback scheduling order is observable.
            self.sim.schedule_deferred(cost, (0,), self._succeed_inline,
                                       state.completion, completion,
                                       first.request_id)
        else:
            self.sim.schedule(cost, self._succeed, state.completion,
                              completion, first.request_id)

    def _succeed(self, event: SimEvent, value: Completion,
                 request_id: int) -> None:
        if not event.triggered:
            if self._spans is not None:
                # The instant the application wakes up — the driver's
                # measured completion time, so span end-to-end equals the
                # experiment's latency sample exactly.
                self._spans.record(request_id, spans.COMPLETED, self.sim.now)
            event.succeed(value)

    def _succeed_inline(self, event: SimEvent, value: Completion,
                        request_id: int) -> None:
        """Whole-request folding's :meth:`_succeed`: same guards and span,
        but the single waiter resumes synchronously inside this event."""
        if not event.triggered:
            if self._spans is not None:
                self._spans.record(request_id, spans.COMPLETED, self.sim.now)
            event.succeed_inline(value)

    # ------------------------------------------------------------------
    # Reliability: timeout retransmission and server Retrans requests
    # ------------------------------------------------------------------
    def _arm_timeout(self, state: _PendingRequest) -> None:
        token = object()
        state.timer_token = token
        sim = self.sim
        state.timer_call = sim.schedule_at(
            sim.now + self.config.client.timeout_ns, self._on_timeout,
            state, token)

    def _on_timeout(self, state: _PendingRequest, token: object) -> None:
        if state.timer_token is not token or state.completion.triggered:
            return
        if self.host.failed:
            # The machine is dead: its timers die with it.  (A rebooted
            # client restarts its application and sessions from scratch;
            # stale pre-crash request state is never resumed.)
            return
        if (self.max_retries is not None
                and state.retransmissions >= self.max_retries):
            self._complete(state, Result(ok=False, error="timeout"), "server")
            return
        state.retransmissions += 1
        self.retransmissions.increment()
        for index, packet in enumerate(state.packets):
            if not self._fragment_persistent(state, index):
                self._transmit(packet)
        self.tracer.emit(self.sim.now, self.host.name, "timeout_retransmit",
                         req=state.packets[0].request_id,
                         attempt=state.retransmissions)
        self._arm_timeout(state)

    def _handle_retrans(self, packet: PMNetPacket) -> None:
        """The server asked for packets neither it nor PMNet has."""
        request = packet.payload
        if not isinstance(request, RetransRequest):
            return
        for seq in request.missing_seq_nums:
            # The server only tracks gaps in the update stream.
            lookup = self._by_seq.get((request.session_id, seq, True))
            if lookup is not None:
                state, index = lookup
                self.retransmissions.increment()
                self._transmit(state.packets[index])

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PMNetClient {self.host.name} -> {self.server}>"
