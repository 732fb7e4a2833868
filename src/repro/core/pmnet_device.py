"""The PMNet device: a programmable switch/NIC with a persistent log.

This is the paper's primary contribution (Sec IV).  The device executes
the three-stage MAT pipeline of Fig 8:

* **ingress** — classify by UDP port and PMNet Type;
* **PM access** — create/remove/look up log entries through the
  BDP-sized log queues, never blocking the pipeline;
* **egress** — forward requests toward the server, generate PMNet-ACKs
  once a request is durable, serve Retrans from the log, and (optionally)
  serve reads from the integrated cache.

``mode`` is cosmetic ("switch" at the ToR position, "nic" as the server's
bump-in-the-wire): both run the identical pipeline, as in the paper where
the two differ only by placement (Sec VI-B1 finds their latency within
1 us of each other).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.cache import ReadCache
from repro.core.mat import MATAction, classify, pmnet_packet
from repro.core.recovery import ResendEngine
from repro.net.device import ForwardingTable, Node, Port
from repro.net.packet import Frame
from repro.pm.device import PMDevice
from repro.pm.log import LogEntry, LogRegion
from repro.pm.queues import LogQueue
from repro.protocol.packet import (
    PMNetPacket,
    RecoveryPoll,
    RetransRequest,
)
from repro.obs import spans
from repro.obs.registry import register_with_sim
from repro.protocol.types import PacketType
from repro.sim.monitor import Counter
from repro.sim.trace import Tracer
from repro.workloads.kv import Operation, Result

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import SystemConfig
    from repro.sim.kernel import Simulator


class PMNetDevice(Node):
    """A PM-backed programmable data-plane device."""

    def __init__(self, sim: "Simulator", name: str, config: "SystemConfig",
                 mode: str = "switch", enable_cache: bool = False,
                 cache_capacity: int = 4096,
                 tracer: Optional[Tracer] = None) -> None:
        if mode not in ("switch", "nic"):
            raise ValueError(f"mode must be 'switch' or 'nic', got {mode!r}")
        super().__init__(sim, name)
        self.config = config
        self.mode = mode
        self.table = ForwardingTable()
        self.tracer = tracer if tracer is not None else sim.tracer
        self._spans = spans.spans_for(sim)
        self.pm = PMDevice(sim, f"{name}.pm", config.network_pm)
        self.write_queue = LogQueue(sim, f"{name}.wq",
                                    config.log.write_queue_bytes,
                                    self.pm, is_write=True)
        self.read_queue = LogQueue(sim, f"{name}.rq",
                                   config.log.read_queue_bytes,
                                   self.pm, is_write=False)
        self.log = LogRegion(sim, f"{name}.log", config.log, self.pm,
                             self.write_queue, self.read_queue)
        self.cache = ReadCache(cache_capacity, f"{name}.cache") if enable_cache else None
        self.resend_engine = ResendEngine(self)
        #: HashVal -> key for cacheable reads forwarded to the server,
        #: so the returning response can be captured into the cache.
        self._outstanding_reads: Dict[int, object] = {}
        self.acks_sent = Counter(f"{name}.pmnet_acks")
        self.cache_responses = Counter(f"{name}.cache_responses")
        self.retrans_served = Counter(f"{name}.retrans_served")
        self.forwarded_plain = Counter(f"{name}.forwarded_plain")
        self.redo_resends = Counter(f"{name}.redo_resends")
        #: Always 0 (every stage is its own event); the benchmark
        #: reads it.
        self.folded_stages = Counter(f"{name}.folded_stages")
        self._scrub_armed = False
        register_with_sim(sim, self)

    def instruments(self) -> tuple:
        """This device's typed instruments (explicit registration).

        The embedded :class:`ReadCache` has no registration hook of its
        own (it is not a :class:`~repro.net.device.Node`), so its
        hits/misses/evictions/overflow ride along here — otherwise
        cache statistics silently vanish from every metrics export.
        """
        own = (self.acks_sent, self.cache_responses, self.retrans_served,
               self.forwarded_plain, self.redo_resends, self.folded_stages)
        if self.cache is not None:
            return own + self.cache.instruments()
        return own

    # ------------------------------------------------------------------
    # Frame entry point
    # ------------------------------------------------------------------
    def handle_frame(self, frame: Frame, in_port: Port) -> None:
        self.sim.schedule(self.config.pipeline.ingress_ns,
                          self._after_ingress, frame)

    def arrival_extension(self, frame: Frame) -> None:
        """Retired with arrival extensions: always ``None``.  Kept as a
        name only for the benchmark's layer map."""
        return None

    def _after_ingress(self, frame: Frame) -> None:
        if self.failed:
            return
        action = classify(frame)
        packet = pmnet_packet(frame)
        if action is MATAction.FORWARD_PLAIN:
            self.forwarded_plain.increment()
            self._egress(frame, payload_cost=False)
        elif action is MATAction.LOG_AND_FORWARD:
            self._handle_update(frame, packet)
        elif action is MATAction.BYPASS:
            self._handle_bypass(frame, packet)
        elif action is MATAction.FORWARD_ACK:
            self._egress(frame, payload_cost=False)
        elif action is MATAction.INVALIDATE_AND_FORWARD:
            self._handle_server_ack(frame, packet)
        elif action is MATAction.SERVE_RETRANS:
            self._handle_retrans(frame, packet)
        elif action is MATAction.CAPTURE_RESPONSE:
            self._handle_response(frame, packet)
        elif action is MATAction.RECOVERY:
            self._handle_recovery_poll(frame, packet)
        elif action is MATAction.CHAIN_LOG_AND_FORWARD:
            self._handle_chain_update(frame, packet)

    # ------------------------------------------------------------------
    # update-req: PM-access stage + egress (Fig 8 steps 3, 6, 7)
    # ------------------------------------------------------------------
    def _handle_update(self, frame: Frame, packet: PMNetPacket) -> None:
        self.sim.schedule(self.config.pipeline.pm_stage_ns,
                          self._log_update, frame, packet)

    def _log_update(self, frame: Frame, packet: PMNetPacket) -> None:
        if self.failed:
            return
        if self._spans is not None:
            self._spans.record(packet.request_id, spans.LOG_WRITE,
                               self.sim.now)
        logged = self.log.try_log(packet, self._on_persisted)
        if logged:
            self._arm_scrubber()
        op = packet.payload if isinstance(packet.payload, Operation) else None
        if self.cache is not None and op is not None and packet.frag_count == 1:
            if op.is_cacheable_set:
                if logged:
                    self.cache.on_update_logged(op.key, op.value)  # T1/T3/T4/T5
                else:
                    self.cache.on_update_bypassed(op.key)
            elif op.is_update and op.key is not None and not logged:
                self.cache.on_update_bypassed(op.key)
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name,
                             "update_logged" if logged else "update_bypassed",
                             req=packet.request_id, seq=packet.seq_num)
        # Forward to the server regardless of the logging outcome
        # (Sec IV-B1: full log or collision means forward-without-ack).
        self._egress(frame, payload_cost=True)

    def _on_persisted(self, entry: LogEntry) -> None:
        """The log write completed: the request is in the persistence
        domain — generate the PMNet-ACK (Fig 3 step 4)."""
        if self.failed:
            return
        packet = entry.packet
        ack = packet.make_ack(PacketType.PMNET_ACK, origin_device=self.name)
        if self._spans is not None:
            self._spans.record(packet.request_id, spans.PMNET_ACK,
                               self.sim.now)
        self.acks_sent.increment()
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name, "pmnet_ack",
                             req=packet.request_id, seq=packet.seq_num)
        self.sim.schedule(self.config.pipeline.ack_generation_ns,
                          self._transmit_packet, ack, packet.client)

    # ------------------------------------------------------------------
    # chain-update: NetChain-style replication across devices.  Store-
    # and-forward: each member persists its copy before handing the
    # write to the next member; only the tail ACKs the client (the
    # paper's Sec IV-B1 "ACK from another PMNet", generalized across
    # switches).
    # ------------------------------------------------------------------
    def _handle_chain_update(self, frame: Frame, packet: PMNetPacket) -> None:
        self.sim.schedule(self.config.pipeline.pm_stage_ns,
                          self._log_chain_update, frame, packet)

    def _log_chain_update(self, frame: Frame, packet: PMNetPacket) -> None:
        if self.failed:
            return
        if self._spans is not None:
            self._spans.record(packet.request_id, spans.LOG_WRITE,
                               self.sim.now)
        existing = self.log.lookup(packet.hash_val)
        if existing is not None:
            # A client retransmission re-walking the chain (some member
            # downstream may still be missing its copy).  A durable
            # entry continues the walk immediately; a still-volatile
            # one advances through its original persist continuation.
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, self.name, "chain_duplicate",
                                 req=packet.request_id, seq=packet.seq_num)
            if existing.durable:
                self._advance_chain(packet)
            return
        if self.log.try_log(packet, self._on_chain_persisted):
            self._arm_scrubber()
            op = (packet.payload
                  if isinstance(packet.payload, Operation) else None)
            if (self.cache is not None and op is not None
                    and packet.frag_count == 1 and op.is_cacheable_set):
                self.cache.on_update_logged(op.key, op.value)
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, self.name, "update_logged",
                                 req=packet.request_id, seq=packet.seq_num)
            return
        # Log full / queue saturated: this member cannot hold a copy.
        # Pass the write along with the chain marked broken — the tail
        # withholds its early ACK, so the client completes on the
        # server ACK instead (forward-without-ack, chain edition).
        op = packet.payload if isinstance(packet.payload, Operation) else None
        if (self.cache is not None and op is not None and op.is_update
                and op.key is not None and packet.frag_count == 1):
            self.cache.on_update_bypassed(op.key)
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name, "update_bypassed",
                             req=packet.request_id, seq=packet.seq_num)
        self._advance_chain(replace(packet, chain_broken=True))

    def _on_chain_persisted(self, entry: LogEntry) -> None:
        """A chain member's copy is durable: continue the walk."""
        if self.failed:
            return
        self._advance_chain(entry.packet)

    def _advance_chain(self, packet: PMNetPacket) -> None:
        chain = packet.chain
        try:
            index = chain.index(self.name)
        except ValueError:
            # Not a member (stale routing after a membership change):
            # degrade to the plain-update behavior and push the write
            # toward the server.
            self._transmit_packet(packet, packet.server)
            return
        cost = (self.config.pipeline.egress_ns
                + round(packet.wire_bytes * self.config.pipeline.per_byte_ns))
        if index + 1 < len(chain):
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, self.name, "chain_forward",
                                 req=packet.request_id, seq=packet.seq_num,
                                 to=chain[index + 1])
            self.sim.schedule(cost, self._transmit_packet, packet,
                              chain[index + 1])
            return
        # Tail: every member upstream holds a durable copy unless one
        # bypassed en route (chain_broken) — early-ACK the client, then
        # hand the write to the shard server.
        if not packet.chain_broken:
            ack = packet.make_ack(PacketType.PMNET_ACK,
                                  origin_device=self.name)
            if self._spans is not None:
                self._spans.record(packet.request_id, spans.PMNET_ACK,
                                   self.sim.now)
            self.acks_sent.value += 1
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, self.name, "pmnet_ack",
                                 req=packet.request_id, seq=packet.seq_num)
            self.sim.schedule(self.config.pipeline.ack_generation_ns,
                              self._transmit_packet, ack, packet.client)
        self.sim.schedule(cost, self._transmit_packet, packet, packet.server)

    def _propagate_chain_invalidate(self, packet: PMNetPacket) -> None:
        """Walk a server ACK's invalidation toward the chain head.

        Members upstream of the tail are not on the server-to-client
        path, so the tail (and each member in turn) re-addresses the
        ACK to its predecessor.  Each hop invalidates its local entry
        in :meth:`_handle_server_ack` and keeps walking; the head stops.
        """
        index = packet.chain.index(self.name)
        if index == 0:
            return
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name, "chain_invalidate",
                             req=packet.request_id, seq=packet.seq_num,
                             to=packet.chain[index - 1])
        self.sim.schedule(self.config.pipeline.egress_ns,
                          self._transmit_packet, packet,
                          packet.chain[index - 1])

    # ------------------------------------------------------------------
    # bypass-req: cache lookup, else plain forwarding (Fig 10)
    # ------------------------------------------------------------------
    def _handle_bypass(self, frame: Frame, packet: PMNetPacket) -> None:
        op = packet.payload if isinstance(packet.payload, Operation) else None
        if (self.cache is not None and op is not None
                and op.is_cacheable_get and packet.frag_count == 1):
            value = self.cache.lookup(op.key)
            if value is not None:
                self._serve_from_cache(packet, value)
                return
            # Miss: remember the key so the response can be captured.
            self._outstanding_reads[packet.hash_val] = op.key
            if len(self._outstanding_reads) > 4 * self.config.log.num_entries:
                self._outstanding_reads.pop(next(iter(self._outstanding_reads)))
        self._egress(frame, payload_cost=True)

    def _serve_from_cache(self, packet: PMNetPacket, value: object) -> None:
        """Serve a read hit: one PM read, then answer the client."""
        result = Result(ok=True, value=value, from_cache=True)
        size = max(16, packet.payload_bytes)
        if not self.read_queue.try_enqueue(size, self._cache_respond,
                                           packet, result, size):
            # Cache read port busy: fall back to the server path.
            self._transmit_packet(packet, packet.server)

    def _cache_respond(self, packet: PMNetPacket, result: Result,
                       size: int) -> None:
        if self.failed:
            return
        response = packet.make_response(result, size, from_cache=True,
                                        origin_device=self.name)
        self.cache_responses.increment()
        self.sim.schedule(self.config.pipeline.ack_generation_ns,
                          self._transmit_packet, response, packet.client)

    # ------------------------------------------------------------------
    # server-ACK: invalidate + forward (Fig 8 step 4)
    # ------------------------------------------------------------------
    def _handle_server_ack(self, frame: Frame, packet: PMNetPacket) -> None:
        entry = self.log.lookup(packet.hash_val)
        if entry is not None:
            if self._spans is not None:
                self._spans.record(packet.request_id, spans.LOG_INVALIDATE,
                                   self.sim.now)
            op = (entry.packet.payload
                  if isinstance(entry.packet.payload, Operation) else None)
            self.log.invalidate(packet.hash_val)
            if self.cache is not None and op is not None and op.key is not None:
                self.cache.on_server_ack(op.key)  # T2/T6
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, self.name, "log_invalidated",
                                 req=packet.request_id, seq=packet.seq_num)
        self.resend_engine.on_server_ack(packet.hash_val)
        if packet.chain and self.name in packet.chain:
            self._propagate_chain_invalidate(packet)
        if frame.dst == self.name:
            # A chain-addressed invalidation terminates here; the
            # propagation above keeps walking tail-to-head.
            return
        # Always forward toward the client: an upstream PMNet in a
        # replication chain may hold its own copy (Sec IV-B1).
        self._egress(frame, payload_cost=False)

    # ------------------------------------------------------------------
    # Retrans: serve from log when possible (Sec IV-B1)
    # ------------------------------------------------------------------
    def _handle_retrans(self, frame: Frame, packet: PMNetPacket) -> None:
        request = packet.payload
        if not isinstance(request, RetransRequest):
            self._egress(frame, payload_cost=False)
            return
        leftover_seqs = []
        leftover_hashes = []
        for seq, hash_val in zip(request.missing_seq_nums,
                                 request.missing_hash_vals):
            entry = self.log.lookup(hash_val)
            if entry is not None and entry.durable:
                self.retrans_served.increment()
                self.log.read_entry(entry, self._resend_to_server, entry)
            else:
                leftover_seqs.append(seq)
                leftover_hashes.append(hash_val)
        if leftover_seqs:
            remainder = RetransRequest(request.session_id,
                                       tuple(leftover_seqs),
                                       tuple(leftover_hashes))
            forwarded = PMNetPacket(
                header=packet.header, payload=remainder,
                payload_bytes=packet.payload_bytes,
                request_id=packet.request_id, client=packet.client,
                server=packet.server)
            self._transmit_packet(forwarded, packet.client)

    # ------------------------------------------------------------------
    # Server responses: capture reads into the cache (Fig 10 step 5)
    # ------------------------------------------------------------------
    def _handle_response(self, frame: Frame, packet: PMNetPacket) -> None:
        if self.cache is not None:
            key = self._outstanding_reads.pop(packet.hash_val, None)
            result = packet.payload
            if key is not None and isinstance(result, Result) and result.ok:
                self.cache.on_server_response(key, result.value)
        self._egress(frame, payload_cost=False)

    # ------------------------------------------------------------------
    # Recovery poll (Sec IV-E1): start the ordered resend
    # ------------------------------------------------------------------
    def _handle_recovery_poll(self, frame: Frame, packet: PMNetPacket) -> None:
        if frame.dst != self.name:
            # The server polls each device individually; polls for other
            # devices in the chain pass through.
            self._egress(frame, payload_cost=False)
            return
        poll = packet.payload
        expected = poll.expected_seq if isinstance(poll, RecoveryPoll) else {}
        self.tracer.emit(self.sim.now, self.name, "recovery_poll",
                         sessions=len(expected))
        self.resend_engine.start(packet.server, expected)

    # ------------------------------------------------------------------
    # Log scrubber: redo aged, never-ACKed entries (tail-loss repair)
    # ------------------------------------------------------------------
    def _arm_scrubber(self) -> None:
        """Ensure one scrub pass is scheduled while entries exist.

        The client already holds a PMNet-ACK for every logged entry, so
        if the forwarded copy was lost on the way to the server nobody
        else will retry — the device redoes entries older than the redo
        timeout (the log acting as the redo log it is, Sec III).
        Event-driven: no periodic timer runs while the log is empty.
        """
        if self._scrub_armed or self.failed:
            return
        self._scrub_armed = True
        self.sim.schedule(self.config.log.redo_timeout_ns, self._scrub)

    def _scrub(self) -> None:
        self._scrub_armed = False
        if self.failed or self.resend_engine.active:
            # A full recovery resend is already replaying everything.
            if self.log.occupancy:
                self._arm_scrubber()
            return
        now = self.sim.now
        redone = 0
        for entry in self.log.durable_entries_in_order():
            if redone >= self.config.log.redo_batch:
                break
            if now - entry.inserted_at_ns < self.config.log.redo_timeout_ns:
                break  # insertion order == age order
            self.redo_resends.increment()
            self.log.read_entry(entry, self._resend_to_server, entry)
            redone += 1
        if self.log.occupancy:
            self._arm_scrubber()

    def _resend_to_server(self, entry: LogEntry) -> None:
        """Redo one durable log entry toward the server (log read done)."""
        self._transmit_packet(entry.packet.as_resent(), entry.packet.server)

    # ------------------------------------------------------------------
    # Egress stage: stage cost + transmit via the forwarding table
    # ------------------------------------------------------------------
    def _egress(self, frame: Frame, payload_cost: bool) -> None:
        cost = self.config.pipeline.egress_ns
        if payload_cost:
            cost += round(frame.payload_bytes * self.config.pipeline.per_byte_ns)
        self.sim.schedule(cost, self._forward_frame, frame)

    def _forward_frame(self, frame: Frame) -> None:
        if self.failed:
            return
        channel = self.table.bound.get(frame.dst)
        if channel is None:
            self.table.transmit(frame.dst, frame)
        else:
            channel.send(frame)

    def _transmit_packet(self, packet: PMNetPacket, destination: str) -> None:
        """Wrap a device-generated packet in a frame and send it."""
        if self.failed:
            return
        frame = Frame(self.name, destination, packet, packet.wire_bytes,
                      51000 + packet.session_id % 1000)
        channel = self.table.bound.get(destination)
        if channel is None:
            self.table.transmit(destination, frame)
        else:
            channel.send(frame)

    # ------------------------------------------------------------------
    # Failure semantics
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Power-fail the device: durable log entries survive, everything
        volatile (queues, in-flight PM writes, pipeline state) is lost."""
        super().fail()
        self.pm.crash()
        self.log.crash()
        self.resend_engine.reset()
        self._outstanding_reads.clear()

    def recover(self) -> None:
        super().recover()
        self.pm.recover()
        self.write_queue.recover()
        self.read_queue.recover()
        self._scrub_armed = False
        if self.log.occupancy:
            self._arm_scrubber()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PMNetDevice {self.name} mode={self.mode} "
                f"log={self.log.occupancy}>")
