"""The server-side PMNet library and application (Table I: server side).

:class:`PMNetServer` implements ``PMNet_recv``/``PMNet_ack`` semantics:

* restores per-session ordering with a reorder buffer and requests
  retransmissions for persistent gaps (Fig 7);
* reassembles MTU-fragmented requests;
* dispatches complete requests to a pool of worker processes (the
  Table II server has 20 cores) which run the workload handler;
* sends a ``server-ACK`` per update fragment (invalidating PMNet logs on
  the way to the client) and a ``SERVER_RESP`` for reads;
* persists the per-session applied SeqNum with each operation so that a
  crash can be recovered exactly once, and drives the recovery poll of
  Sec IV-E1 after a restart.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.host.handler import HandlerOutcome, LockTable, RequestHandler
from repro.host.node import HostNode
from repro.net.packet import Frame, RawPayload
from repro.protocol.fragment import Reassembler
from repro.protocol.header import PMNetHeader
from repro.protocol.ordering import ReorderBuffer
from repro.protocol.packet import (
    PMNetPacket,
    RecoveryPoll,
    RetransRequest,
    next_request_id,
)
from repro.protocol.types import PacketType, is_update
from repro.obs import spans
from repro.obs.registry import register_with_sim
from repro.sim.clock import microseconds
from repro.sim.event import SimEvent
from repro.sim.monitor import Counter
from repro.sim.process import Interrupted, Process
from repro.sim.trace import Tracer
from repro.workloads.kv import OpKind, Operation, Result, estimate_result_bytes

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import SystemConfig
    from repro.sim.kernel import Simulator

#: How long a sequence gap may persist before the server asks for
#: retransmission (a handful of one-way delays).
DEFAULT_GAP_TIMEOUT_NS = microseconds(40)

#: Cost of a lock-table operation on the server (in-memory, tiny).
LOCK_OP_COST_NS = microseconds(1.0)


class PMNetServer:
    """The server application endpoint."""

    def __init__(self, sim: "Simulator", host: HostNode,
                 handler: RequestHandler, config: "SystemConfig",
                 gap_timeout_ns: int = DEFAULT_GAP_TIMEOUT_NS,
                 tracer: Optional[Tracer] = None) -> None:
        self.sim = sim
        self.host = host
        self.handler = handler
        self.config = config
        self.gap_timeout_ns = gap_timeout_ns
        self.tracer = tracer if tracer is not None else sim.tracer
        self._spans = spans.spans_for(sim)
        host.bind(self)
        self.reorder = ReorderBuffer()
        self.reassembler = Reassembler()
        self.locks = LockTable()
        self._ready: Deque[List[PMNetPacket]] = deque()
        self._idle_workers: List[SimEvent] = []
        self._workers: List[Process] = []
        self._gap_timers: Dict[int, object] = {}
        self._dispatch_horizon: Dict[int, int] = {}
        #: SessionID -> next SeqNum to apply; lives in PM, updated
        #: atomically with each applied operation (survives crashes).
        self.persistent_applied: Dict[int, int] = {}
        self.processed = Counter(f"{host.name}.processed")
        self.makeup_acks = Counter(f"{host.name}.makeup_acks")
        self.retrans_sent = Counter(f"{host.name}.retrans_sent")
        #: Succeeds when a recovery finishes draining the PMNet logs; a
        #: fresh event is installed by :meth:`recover`.
        self.recovered_event: Optional[SimEvent] = None
        self._recovery_started_ns = 0
        self._awaiting_resends: set = set()
        self._repoll_armed = False
        self.recovery_repolls = Counter(f"{host.name}.recovery_repolls")
        #: False between a crash and the end of application recovery:
        #: the machine may answer pings (it has rebooted) but the
        #: application drops PMNet traffic until its PM pools are open.
        self._app_ready = True
        self._spawn_workers()
        register_with_sim(sim, self)

    def instruments(self) -> tuple:
        """This server's typed instruments (explicit registration)."""
        return (self.processed, self.makeup_acks, self.retrans_sent,
                self.recovery_repolls)

    # ------------------------------------------------------------------
    def _spawn_workers(self) -> None:
        self._workers = [
            self.sim.spawn(self._worker_loop(), f"{self.host.name}.worker{i}")
            for i in range(self.config.server.worker_cores)]

    # ------------------------------------------------------------------
    # Frame entry point
    # ------------------------------------------------------------------
    def on_frame(self, frame: Frame) -> None:
        payload = frame.payload
        if isinstance(payload, RawPayload):
            self._handle_raw(frame, payload)
            return
        if not isinstance(payload, PMNetPacket):
            return
        if not self._app_ready:
            return  # machine is up but the application is still recovering
        packet = payload
        if packet.packet_type in (PacketType.UPDATE_REQ,
                                  PacketType.BYPASS_REQ,
                                  PacketType.CHAIN_UPDATE):
            self._handle_request(packet)
        # Other types (stray ACKs etc.) are ignored by the server.

    def _handle_raw(self, frame: Frame, payload: RawPayload) -> None:
        """Heartbeat pings are echoed; resend-done control messages feed
        the recovery completion tracking."""
        data = payload.data
        if isinstance(data, tuple) and len(data) == 2 and data[0] == "ping":
            self.host.send_frame(frame.src,
                                 RawPayload(("pong", data[1]), 8), 8,
                                 frame.udp_port)
        elif isinstance(data, tuple) and len(data) == 2 and data[0] == "resend_done":
            self._on_resend_done(data[1])

    # ------------------------------------------------------------------
    # Request path: ordering, dedup, reassembly
    # ------------------------------------------------------------------
    def _handle_request(self, packet: PMNetPacket) -> None:
        if packet.packet_type is PacketType.BYPASS_REQ:
            # Reads/synchronization are idempotent and unordered; they
            # use their own SeqNum stream (a cache-served read must not
            # leave a gap in the update ordering).
            fragments = self.reassembler.push(packet)
            if fragments is not None:
                self._dispatch(fragments)
            return
        sid = packet.session_id
        expected = self.reorder.expected_seq(sid)
        if packet.seq_num < expected:
            # Below the applied horizon (Sec IV-E1 case 3): already
            # committed — send a make-up server-ACK so stale log entries
            # get invalidated.
            self.makeup_acks.increment()
            self._send_ack(packet)
            return
        deliverable = self.reorder.push(packet)
        for ready in deliverable:
            fragments = self.reassembler.push(ready)
            if fragments is not None:
                self._dispatch(fragments)
        if self.reorder.has_gap(sid):
            self._arm_gap_timer(sid, packet)
        elif sid in self._gap_timers:
            del self._gap_timers[sid]

    def _dispatch(self, fragments: List[PMNetPacket]) -> None:
        """Charge the application wakeup, then queue for a worker.

        Wakeup jitter must never reorder requests *within* a session —
        the applied-SeqNum horizon assumes same-session requests reach
        the workers in order — so each session's dispatch completion
        time is kept monotonic.
        """
        sid = fragments[0].session_id
        cost = self.host.stack.dispatch_cost()
        now = self.sim.now
        ready_at = max(now + cost, self._dispatch_horizon.get(sid, 0))
        self._dispatch_horizon[sid] = ready_at
        epoch = self.host.epoch
        # Relative ``schedule``: the wakeup is never cancelled, so it
        # needs no ``schedule_at`` handle.
        self.sim.schedule(ready_at - now, self._enqueue_ready, fragments,
                          epoch)

    def _enqueue_ready(self, fragments: List[PMNetPacket], epoch: int) -> None:
        if self.host.failed or epoch != self.host.epoch:
            return
        self._ready.append(fragments)
        if self._idle_workers:
            self._idle_workers.pop().succeed()

    # ------------------------------------------------------------------
    # Gap handling: request retransmission (Fig 7b)
    # ------------------------------------------------------------------
    def _arm_gap_timer(self, sid: int, sample: PMNetPacket) -> None:
        if sid in self._gap_timers:
            return
        token = object()
        self._gap_timers[sid] = token
        self.sim.schedule(self.gap_timeout_ns, self._check_gap, sid,
                          sample, token)

    def _check_gap(self, sid: int, sample: PMNetPacket, token: object) -> None:
        if self._gap_timers.get(sid) is not token or self.host.failed:
            return
        del self._gap_timers[sid]
        missing = self.reorder.missing(sid)
        if not missing:
            return
        hashes = tuple(
            PMNetHeader(PacketType.UPDATE_REQ, sid, seq).compute_hash()
            for seq in missing)
        request = RetransRequest(sid, tuple(missing), hashes)
        header = PMNetHeader(PacketType.RETRANS, sid, missing[0])
        packet = PMNetPacket(header=header, payload=request,
                             payload_bytes=8 + 8 * len(missing),
                             request_id=next_request_id(),
                             client=sample.client, server=self.host.name)
        self.retrans_sent.increment()
        self.tracer.emit(self.sim.now, self.host.name, "retrans_request",
                         session=sid, missing=len(missing))
        self.host.send_frame(sample.client, packet, packet.wire_bytes,
                             51000 + sid % 1000)
        self._arm_gap_timer(sid, sample)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self):
        try:
            while True:
                if not self._ready:
                    idle = self.sim.event("server-idle")
                    self._idle_workers.append(idle)
                    yield idle
                    continue
                fragments = self._ready.popleft()
                outcome = self._apply(fragments)
                if outcome.cost_ns > 0:
                    yield outcome.cost_ns
                if self.host.failed:
                    return
                self._respond(fragments, outcome)
        except Interrupted:
            return

    def _apply(self, fragments: List[PMNetPacket]) -> HandlerOutcome:
        """Execute the operation and persist the applied horizon — one
        atomic step (the PM transaction's commit point).

        The worker's processing-time yield happens *after* this point:
        it models the rest of the handler's occupancy (undo-log
        bookkeeping, index maintenance, response marshalling), so a
        crash mid-request either shows the whole operation or none of
        it, and never loses the op/horizon pairing.
        """
        first = fragments[0]
        sid = first.session_id
        outcome = self._execute(first.payload, sid)
        if is_update(first.packet_type):
            # Only updates advance the horizon (reads have their own
            # seq stream).
            self.persistent_applied[sid] = max(
                self.persistent_applied.get(sid, 0),
                fragments[-1].seq_num + 1)
        self.processed.value += 1
        if self._spans is not None:
            self._spans.record(first.request_id, spans.SERVER_HANDLER,
                               self.sim.now)
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.host.name, "processed",
                             req=first.request_id, session=sid,
                             seq=first.seq_num,
                             update=is_update(first.packet_type))
        return outcome

    def _execute(self, op: object, session_id: int) -> HandlerOutcome:
        if isinstance(op, Operation) and op.kind is OpKind.LOCK:
            ok = self.locks.acquire(op.key, session_id)
            return HandlerOutcome(Result(ok=ok,
                                         error=None if ok else "lock_held"),
                                  LOCK_OP_COST_NS, 16)
        if isinstance(op, Operation) and op.kind is OpKind.UNLOCK:
            ok = self.locks.release(op.key, session_id)
            return HandlerOutcome(Result(ok=ok), LOCK_OP_COST_NS, 16)
        if isinstance(op, Operation):
            return self.handler.process(op)
        return HandlerOutcome(Result(ok=False, error="bad_request"),
                              LOCK_OP_COST_NS, 16)

    def _respond(self, fragments: List[PMNetPacket],
                 outcome: HandlerOutcome) -> None:
        """Acknowledge the (already committed) operation."""
        first = fragments[0]
        sid = first.session_id
        if is_update(first.packet_type):
            for fragment in fragments:
                self._send_ack(fragment)
        else:
            response = first.make_response(
                outcome.result,
                max(outcome.response_bytes,
                    estimate_result_bytes(outcome.result)))
            if self._spans is not None:
                self._spans.record(first.request_id, spans.SERVER_RESPONSE,
                                   self.sim.now)
            self.host.send_frame(first.client, response,
                                 response.wire_bytes,
                                 51000 + sid % 1000)

    def _send_ack(self, packet: PMNetPacket) -> None:
        if self._spans is not None:
            self._spans.record(packet.request_id, spans.SERVER_ACK,
                               self.sim.now)
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.host.name, "server_ack",
                             req=packet.request_id,
                             session=packet.session_id, seq=packet.seq_num)
        ack = packet.make_ack(PacketType.SERVER_ACK,
                              origin_device=self.host.name)
        self.host.send_frame(packet.client, ack, ack.wire_bytes,
                             51000 + packet.session_id % 1000)

    @property
    def app_ready(self) -> bool:
        """Whether the application is serving (False between a crash and
        the end of application recovery — the window where the machine
        answers pings but drops PMNet traffic)."""
        return self._app_ready

    # ------------------------------------------------------------------
    # Failure and recovery (Sec IV-E)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Power-fail the server: volatile state vanishes, PM survives."""
        self.host.fail()
        for worker in self._workers:
            worker.interrupt("server crash")
        self._ready.clear()
        self._idle_workers = []
        self._gap_timers.clear()
        self._dispatch_horizon.clear()
        self.reorder = ReorderBuffer()
        self.reassembler = Reassembler()
        self.locks.release_all()
        self.handler.crash()
        self._app_ready = False
        self.tracer.emit(self.sim.now, self.host.name, "crash")

    def machine_boot(self) -> None:
        """Bring the *machine* back without the application.

        After a power cycle the host answers pings (heartbeat monitors
        see it) while the application is still down; a subsequent
        :meth:`recover` call runs application recovery and log replay.
        """
        self.host.recover()

    def recover(self, pmnet_devices: List[str]) -> SimEvent:
        """Restart the server and poll PMNet devices for redo logs.

        Returns an event that succeeds (with the recovery duration in ns)
        once every polled device has drained its resend queue — detected
        by the devices' logs going empty for this server's traffic, which
        experiments assert through :meth:`recovery_complete`.
        """
        self.recovered_event = self.sim.event(f"{self.host.name}.recovered")
        self._recovery_started_ns = self.sim.now
        self._awaiting_resends = set(pmnet_devices)
        app_recovery = self.handler.recovery_cost_ns()
        # The host stays dark until the application has reopened its PM
        # pools — packets arriving during app recovery are lost exactly
        # like during the outage itself.
        self.sim.schedule(app_recovery, self._come_online, pmnet_devices)
        self.tracer.emit(self.sim.now, self.host.name, "recover",
                         app_recovery_ns=app_recovery)
        return self.recovered_event

    def _come_online(self, pmnet_devices: List[str]) -> None:
        self.host.recover()
        self._app_ready = True
        # Rebuild the ordering horizon from the persistent applied table.
        self.reorder = ReorderBuffer()
        for sid, next_seq in self.persistent_applied.items():
            self.reorder.restore_session(sid, next_seq)
        self.reassembler = Reassembler()
        self._spawn_workers()
        if not pmnet_devices:
            self._finish_recovery()
        else:
            self._send_recovery_polls(pmnet_devices)

    def _send_recovery_polls(self, pmnet_devices: List[str]) -> None:
        poll_payload = RecoveryPoll(dict(self.persistent_applied))
        self._arm_repoll()
        for device in pmnet_devices:
            header = PMNetHeader(PacketType.RECOVERY_POLL, 0, 0)
            packet = PMNetPacket(header=header, payload=poll_payload,
                                 payload_bytes=16 + 8 * len(
                                     poll_payload.expected_seq),
                                 request_id=next_request_id(),
                                 client=self.host.name, server=self.host.name)
            self.host.send_frame(device, packet, packet.wire_bytes, 51000)

    def _arm_repoll(self) -> None:
        """Re-poll devices that stay silent past the redo timeout.

        The recovery conversation crosses a lossy network in both
        directions: the poll, every replayed request, and the final
        ``resend_done`` control message can each be dropped, and none
        of them carries its own retransmission.  The server owns the
        recovery end to end, so it is the one to retry — a device whose
        replay already drained answers a duplicate poll with an
        immediate ``resend_done``.
        """
        if self._repoll_armed:
            return
        self._repoll_armed = True
        self.sim.schedule(self.config.log.redo_timeout_ns, self._repoll_tick)

    def _repoll_tick(self) -> None:
        self._repoll_armed = False
        if not self._app_ready or not self._awaiting_resends:
            return
        if self.recovered_event is not None and self.recovered_event.triggered:
            return
        self.recovery_repolls.increment()
        self._send_recovery_polls(sorted(self._awaiting_resends))

    def _on_resend_done(self, device: str) -> None:
        self._awaiting_resends.discard(device)
        if not self._awaiting_resends:
            self._finish_recovery()

    def _finish_recovery(self) -> None:
        if self.recovered_event is not None and not self.recovered_event.triggered:
            duration = self.sim.now - self._recovery_started_ns
            self.recovered_event.succeed(duration)
            self.tracer.emit(self.sim.now, self.host.name,
                             "recovery_complete", duration_ns=duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PMNetServer {self.host.name} handler={self.handler.name} "
                f"queued={len(self._ready)}>")
