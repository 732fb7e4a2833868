"""Links: serialization, propagation, FIFO queueing, and impairments.

A :class:`Link` is full duplex: it is built from two independent directed
:class:`Channel` objects.  Each channel models

* a drop-tail output queue (finite packet capacity),
* a transmitter that serializes one frame at a time at the link rate,
* fixed propagation delay, and
* optional impairments (loss, reordering, duplication) driven by a
  dedicated random stream so experiments can inject packet loss exactly
  where the paper's Fig 7 scenarios need it.

The common case — no impairments, transmitter idle, output queue empty —
takes a **latency-folded fast path**: serialization and propagation are
summed into one scheduled delivery event instead of a ``_serialized``
hop followed by a ``_deliver`` hop.  Delivery times are bit-identical to
the unfolded path (``PMNET_FOLD=none`` keeps it testable); only the
event count changes.  Folding requires ``propagation_ns > 0``: with a
zero-delay wire the deferred chain would execute delivery on the seq
allocated at send time instead of the fresh seq the unfolded ``_serialized``
allocates at the serialize instant, perturbing same-nanosecond
tie-breaking.  Transmitter occupancy is tracked as an absolute
``_busy_until`` time so back-to-back sends still serialize exactly: a
frame arriving mid-serialization queues, and the folded record ahead of
it is rewritten **in place** into the unfolded ``_serialized`` callback
— its queue slot (serialize-end time, seq allocated at serialize start)
is exactly where the unfolded record would sit, so the queue restarts
with bit-identical tie-breaking and the transmission finishes on the
unfolded code path.  In-place rewrites and revocations only ever touch
a record's callback, args, and deferred chain — never its ``(time,
seq)`` — which is what keeps them legal in the tiered scheduler: the
record keeps its slot whether it lives in the now lane, a calendar
bucket, or the far tier (see ``docs/simulator.md``), and deferred hops
re-sequence through the owning queue so each hop draws its fresh seq at
the exact virtual instant the unfolded path would have.  Impaired
channels never fold — their per-frame
random draws and the loss/duplicate/reorder branching stay on the
original path, preserving RNG stream positions draw for draw.

Folding interacts with mid-run crashes through revocation: a folded
send commits its delivery at reservation time, while the unfolded
timeline re-checks the sender's liveness when the fire-time callback
runs.  :meth:`Channel.send_in` therefore records an ``on_revoke``
callback (the owner's unfolded fire-time callback) with every
reservation, and ``Node.fail`` revokes every reservation that has not
started serializing — converting each back into that callback at its
original queue slot, where the owner's ``failed`` check drops the frame
exactly as the unfolded run would.

**Whole-request folding** extends a reservation's chain
*through the receiving node*: at reservation time the channel asks the
sink node for an :meth:`~repro.net.device.Node.arrival_extension` —
extra deterministic hops (a PMNet device's ingress/PM stages, a client
host's pre-drawn stack receive cost) appended to the serialize +
propagation chain, ending in the node's own barrier callback instead of
:meth:`_deliver`.  Each extra hop re-sequences at exactly the instant
the *stage-folded* path — each component folding only its own delays,
the shape an unextended record has — would have allocated the
corresponding event, so tie-breaking is unchanged; the barrier
re-checks the receiver's liveness just as the stage-folded interior
callbacks would.  Extended
records revoke in place like base ones — a queueing frame, a competing
send, a node failure, or (for claims) any competing RNG draw at the
receiving host converts the record back to the exact stage-folded (or
unfolded) shape via :meth:`strip_extension`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.config import folding_enabled
from repro.errors import SimulationError
from repro.net.device import Port
from repro.net.packet import PMNET_UDP_PORT_MAX, PMNET_UDP_PORT_MIN, Frame
from repro.protocol.packet import PMNetPacket
from repro.sim.clock import transmission_delay
from repro.obs.registry import register_with_sim
from repro.sim.monitor import Counter, Gauge, instruments_summary

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import NetworkProfile
    from repro.sim.kernel import Simulator


@dataclass(slots=True)
class Impairments:
    """Probabilistic misbehaviour of a directed channel."""

    loss_probability: float = 0.0
    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0
    #: Extra delay added to a reordered frame so it lands behind its
    #: successors.
    reorder_extra_ns: int = 5_000

    def __post_init__(self) -> None:
        # A negative probability would silently disable its impairment,
        # and a negative extra delay would surface only at the first
        # reordered frame, as a scheduling error.
        for name in ("loss_probability", "duplicate_probability",
                     "reorder_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"Impairments.{name} must be in [0, 1], "
                                 f"got {value!r}")
        if self.reorder_extra_ns < 0:
            raise ValueError(f"Impairments.reorder_extra_ns must be >= 0, "
                             f"got {self.reorder_extra_ns!r}")

    def any_enabled(self) -> bool:
        return (self.loss_probability > 0.0
                or self.duplicate_probability > 0.0
                or self.reorder_probability > 0.0)


#: Frame-kind key for non-PMNet traffic in the arrival-plan cache.
_PLAIN_KIND = object()

#: Cache-miss sentinel (``None`` is a valid cached plan: "never extends").
_NO_PLAN = object()


def _remaining_hops(call) -> int:
    """Hops a deferred record has not yet consumed (0 = final slot)."""
    defer = call.defer_ns
    if type(defer) is tuple:
        return len(defer)
    return 1 if defer else 0


class _Reservation:
    """Bookkeeping for one :meth:`Channel.send_in` reservation.

    ``hops`` is the chain length at construction (2 for the base
    serialize + propagation chain, more when an arrival extension was
    appended): a record is *started* once its remaining hop count drops
    below ``hops``, and past the serialize-end slot once it drops to
    ``hops - 2``.  ``claim`` is the receiving host's pre-drawn RNG
    claim, if any — every in-place revocation must release it so the
    host's random stream rewinds to its unfolded position.
    """

    __slots__ = ("call", "frame", "start", "prev_busy_until", "wire_bytes",
                 "on_revoke", "hops", "claim")

    def __init__(self, call, frame, start, prev_busy_until, wire_bytes,
                 on_revoke, hops, claim):
        self.call = call
        self.frame = frame
        self.start = start
        self.prev_busy_until = prev_busy_until
        self.wire_bytes = wire_bytes
        self.on_revoke = on_revoke
        self.hops = hops
        self.claim = claim


class Channel:
    """One direction of a link: ``source`` port -> ``sink`` port."""

    def __init__(self, sim: "Simulator", name: str, profile: "NetworkProfile",
                 sink: Port, impairments: Optional[Impairments] = None) -> None:
        self.sim = sim
        self.name = name
        self.profile = profile
        self.sink = sink
        #: ``Port.node`` is never reassigned, so deliveries and plan
        #: lookups skip the port dereference.
        self._sink_node = sink.node
        self.impairments = impairments or Impairments()
        self._rng = sim.random.stream(f"channel:{name}")
        self._queue: Deque[Frame] = deque()
        #: Absolute time the transmitter finishes its current frame.
        self._busy_until = 0
        #: An *unfolded* transmission is in progress: set when
        #: ``_serialized`` is scheduled, cleared when it runs.  While
        #: set, the transmitter is busy even at exactly ``_busy_until``
        #: — the pending ``_serialized`` callback owns the restart, so
        #: a same-nanosecond send must queue behind it (matching the
        #: pre-fold boolean-busy semantics tick for tick).  Folded
        #: transmissions leave this False; they free the transmitter
        #: only once their deferred record has been re-sequenced past
        #: the serialize-end slot, which happens at the same
        #: sub-nanosecond point the unfolded ``_serialized`` would run
        #: (see :meth:`send`).
        self._transmitting = False
        #: The heap record of the newest *folded* transmission whose
        #: serialization has begun (a plain-send fold, or a reservation
        #: observed past its start).  While ``now < _busy_until`` with
        #: ``_transmitting`` False, this record owns the transmitter; a
        #: frame queueing behind it converts it in place into the
        #: unfolded ``_serialized`` callback (see :meth:`_unfold_inflight`).
        self._serializing = None
        #: The :class:`_Reservation` backing :attr:`_serializing` when it
        #: came from :meth:`send_in` (``None`` for plain-send folds) —
        #: needed to interpret an *extended* record's remaining hops and
        #: to release its claim on conversion.
        self._serializing_res = None
        #: Future-start :class:`_Reservation` records taken by
        #: :meth:`send_in`, oldest first.  A plain :meth:`send` arriving
        #: before a reservation's start revokes it (see
        #: :meth:`revoke_unstarted`), so reservations can never overtake
        #: a frame that reached the channel earlier.
        self._reservations: Deque[_Reservation] = deque()
        #: Latest start of a send this channel knows will arrive
        #: *unfolded*: one :meth:`send_in` declined (its caller sends at
        #: that instant) or a reservation :meth:`revoke_unstarted`
        #: turned back into its fire-time callback.  That send would
        #: revoke any reservation not started by then, so none is taken
        #: until the instant has passed.
        self._unfolded_send_at = -1
        #: Construction-time half of the fold gate; impairments are
        #: re-checked per send because experiments swap them mid-run
        #: (e.g. a timed loss window).  ``propagation_ns > 0`` keeps the
        #: delivery seq allocation on its own later instant (see the
        #: module docstring).
        self._fold = (folding_enabled()
                      and profile.queue_capacity_packets > 0
                      and profile.propagation_ns > 0)
        # The profile is frozen: hold the per-frame constants directly.
        self._propagation = profile.propagation_ns
        self._overhead = profile.header_overhead_bytes
        self._capacity = profile.queue_capacity_packets
        #: ``payload_bytes -> (wire_bytes, serialize_ns)`` — a run sends
        #: a handful of frame sizes over and over (see :meth:`_costs`).
        self._wire_costs: dict = {}
        self.delivered = Counter(f"{name}.delivered")
        self.dropped_full = Counter(f"{name}.dropped_full")
        self.dropped_full_bytes = Counter(f"{name}.dropped_full_bytes")
        self.dropped_loss = Counter(f"{name}.dropped_loss")
        self.bytes_sent = Counter(f"{name}.bytes")
        self.folded_sends = Counter(f"{name}.folded")
        self.queue_depth_highwater = Gauge(f"{name}.queue_depth")
        register_with_sim(sim, self)

    # ------------------------------------------------------------------
    def _sink_extension(self, frame: Frame):
        """The receiving node's arrival extension for ``frame``, served
        from the per-(node, frame-kind) plan cache when the node allows.

        The extension walk (classification + config lookups) is a pure
        function of the frame kind on nodes that declare
        ``arrival_plans_static`` — re-walking it on every delivery was
        measurable at loadgen scale.  A cached plan stores only the
        static half ``(hops, barrier)``; the per-frame ``args`` are
        rebuilt as ``(frame, frame.payload)``, which is exactly what
        every static extender passes.  A cache miss queries the node
        through its instance attribute (so test spies intercept the
        first delivery of each kind), and anything per-frame — a claim,
        or unexpected args — is passed through uncached.  Plans are
        dropped by ``Node.invalidate_arrival_plans`` on failure,
        recovery, impairment change, and device replacement.
        """
        node = self._sink_node
        plans = node._arrival_plans
        if plans is None:
            return node.arrival_extension(frame)
        payload = frame.payload
        if (PMNET_UDP_PORT_MIN <= frame.udp_port <= PMNET_UDP_PORT_MAX
                and isinstance(payload, PMNetPacket)):
            kind = payload.packet_type
        else:
            kind = _PLAIN_KIND
        plan = plans.get(kind, _NO_PLAN)
        if plan is _NO_PLAN:
            extension = node.arrival_extension(frame)
            if extension is None:
                plans[kind] = None
                return None
            hops, callback, args, claim = extension
            if claim is not None or args != (frame, payload):
                # Per-frame state the rebuild could not reproduce:
                # serve it, but never cache it.
                return extension
            plans[kind] = (tuple(hops), callback)
            return extension
        if plan is None:
            return None
        hops, callback = plan
        return (hops, callback, (frame, payload), None)

    def _costs(self, frame: Frame) -> tuple:
        """``(wire_bytes, serialize_ns)`` of ``frame`` on this channel,
        on a miss of the :attr:`_wire_costs` memo."""
        wire_bytes = frame.wire_size(self._overhead)
        costs = (wire_bytes,
                 transmission_delay(wire_bytes, self.profile.bandwidth_bps))
        self._wire_costs[frame.payload_bytes] = costs
        return costs

    def send(self, frame: Frame) -> None:
        """Enqueue a frame for transmission (drop-tail when full)."""
        if self._reservations:
            self.revoke_unstarted()
        serializing = self._serializing
        if serializing is not None:
            res = self._serializing_res
            ext = res.hops - 2 if res is not None else 0
            # ``_remaining_hops`` inlined: this runs on most sends.
            defer = serializing.defer_ns
            if (len(defer) if type(defer) is tuple
                    else 1 if defer else 0) <= ext:
                # The folded record has been re-sequenced past its
                # serialize-end slot (only arrival-extension hops, if
                # any, remain): the instant the unfolded ``_serialized``
                # would have run is behind us, so the transmitter really
                # is free.
                self._serializing = serializing = None
                self._serializing_res = None
        # At exactly ``now == _busy_until`` a still-deferred record means
        # the unfolded ``_serialized`` (same heap slot) has NOT run yet
        # relative to this event — the kernel re-sequences folded records
        # in (time, seq) order, so ``defer_ns`` being truthy is precisely
        # "our seq comes later this nanosecond".  The unfolded timeline
        # would find ``_transmitting`` still True and queue this frame,
        # so the folded one must too (converting the record in place).
        queue = self._queue
        if (serializing is None and self._fold and not self._transmitting
                and not queue and self.sim._now >= self._busy_until
                and not self.impairments.any_enabled()):
            # Fast path: idle transmitter, empty queue, no impairments —
            # serialization + propagation fold into one delivery event.
            # The receiving node may extend the chain through its own
            # pipeline head exactly as on the :meth:`send_in` path; a
            # plain send starts serializing immediately, so the record
            # goes straight into the :attr:`_serializing` slot (with a
            # reservation alongside when extended, so hop accounting and
            # claim release keep working on conversion).
            sim = self.sim
            now = sim._now
            wire_bytes, serialize = (self._wire_costs.get(frame.payload_bytes)
                                     or self._costs(frame))
            # Hot path: the counters are bumped in place (``wire_bytes``
            # is never negative, so ``Counter.increment``'s guard has
            # nothing to catch here).
            self.bytes_sent.value += wire_bytes
            self.folded_sends.value += 1
            extension = self._sink_extension(frame)
            if extension is None:
                self._serializing = sim.schedule_deferred(
                    serialize, self._propagation, self._deliver, frame)
                self._serializing_res = None
            else:
                extra_hops, ext_callback, ext_args, claim = extension
                hops = (self._propagation,) + tuple(extra_hops)
                call = sim.schedule_deferred(
                    serialize, hops if len(hops) > 1 else hops[0],
                    self._deliver_ext, ext_callback, ext_args)
                self._serializing = call
                # ``hops`` counts the serialize hop like send_in's chains
                # (it lives in the record's surface delay here), so the
                # started/free arithmetic stays uniform.
                self._serializing_res = _Reservation(
                    call, frame, now, self._busy_until, wire_bytes, None,
                    len(hops) + 1, claim)
                if claim is not None:
                    claim.attach(call, self)
            self._busy_until = now + serialize
            return
        if len(queue) >= self._capacity:
            self.dropped_full.increment()
            self.dropped_full_bytes.increment(
                frame.wire_size(self._overhead))
            return
        queue.append(frame)
        # The queue-depth gauge, bumped in place (a length is never
        # negative, so ``Gauge.update``'s guard has nothing to catch).
        depth = len(queue)
        gauge = self.queue_depth_highwater
        gauge.value = depth
        if depth > gauge.highwater:
            gauge.highwater = depth
        if not self._transmitting:
            if serializing is not None:
                # A *folded* frame still owns the transmitter (either
                # mid-serialization, or ending this very nanosecond with
                # its record not yet re-sequenced): nothing would call
                # `_transmit_next` when it frees, so rewrite the folded
                # record into the unfolded `_serialized` callback at its
                # exact heap slot.
                self._unfold_inflight()
            elif self.sim._now >= self._busy_until:
                self._transmit_next()
            else:
                raise SimulationError(
                    f"channel {self.name}: busy transmitter with no "
                    f"in-flight record to convert")

    def send_in(self, pre_delay_ns: int, frame: Frame,
                on_revoke: Optional[Callable[[Frame], None]] = None) -> bool:
        """Reserve the transmitter for a send ``pre_delay_ns`` from now.

        A node whose next hop toward the wire is a fixed delay (a
        switch's forwarding latency, a device's egress stage, a host's
        stack-send cost) can fold that delay into the wire chain:
        pre-delay + serialization + propagation become one deferred
        event that executes only at delivery.  The reservation is taken
        only when the transmitter is predictably idle at send time:
        empty queue, no transmission in progress, any current busy
        period (including earlier reservations) over by
        ``now + pre_delay_ns``, and no impairments.  Returns ``False``
        otherwise — the caller must then schedule its own callback and
        call :meth:`send` at the original time (the unfolded path).

        A reservation is *provisional* until its serialization start
        time: if any plain :meth:`send` reaches the channel during the
        pre-delay gap — when the unfolded timeline would have had an
        idle transmitter — or the owning node fails, then
        :meth:`revoke_unstarted` converts the reservation back into the
        exact event the unfolded path would have executed.
        Single-writer rule: only the node owning the source port sends
        on a channel, so every competing send does come through
        :meth:`send` and triggers that revocation.

        ``on_revoke`` is the unfolded fire-time callback the reservation
        replaces: when revoked, the reservation's heap slot runs
        ``on_revoke(frame)`` so the owner's liveness check (``failed``,
        epoch) executes exactly as it would have unfolded.  Callers that
        incremented counters at fold time must roll them back inside
        ``on_revoke``.  Without one, the revoked slot falls back to a
        bare re-:meth:`send` — correct only for senders that can never
        fail mid-run (bare channels in tests).

        Two more refusals keep admission exact and waste-free:

        * a start at exactly the serialize end of a reservation that
          has not started yet.  Unfolded, this send's callback (seq
          allocated now) runs before that frame's ``_serialized`` (seq
          allocated at its later start), finds the transmitter busy and
          queues; folded, it would draw its serialize-end seq at its
          own slot instead of inside ``_serialized``;
        * any reservation while a known unfolded send has not yet run
          (see :attr:`_unfolded_send_at`): that send would revoke it.
          Declining is exact either way — the caller's unfolded
          callback takes the slot a revocation would have given it.
        """
        now = self.sim._now
        start = now + pre_delay_ns
        refused = (not self._fold or self._transmitting or self._queue
                   or start < self._busy_until
                   or now <= self._unfolded_send_at
                   or self.impairments.any_enabled())
        reservations = self._reservations
        if reservations and not refused:
            # ``_pop_started`` inlined: this runs on every send_in.
            while reservations:
                head = reservations[0]
                defer = head.call.defer_ns
                remaining = (len(defer) if type(defer) is tuple
                             else 1 if defer else 0)
                if remaining >= head.hops:
                    break
                reservations.popleft()
                self._serializing = head.call
                self._serializing_res = head
            if reservations and start == self._busy_until:
                refused = True
        if refused:
            # The caller sends unfolded at ``start``.
            if start > self._unfolded_send_at:
                self._unfolded_send_at = start
            return False
        wire_bytes, serialize = (self._wire_costs.get(frame.payload_bytes)
                                 or self._costs(frame))
        self.bytes_sent.value += wire_bytes
        self.folded_sends.value += 1
        hops = (serialize, self._propagation)
        callback, args, claim = self._deliver, (frame,), None
        # Whole-request folding: the receiving node may extend the chain
        # through its own deterministic pipeline head, ending in a
        # barrier callback that re-checks its liveness.  A plan-cache
        # hit is served here, exactly as ``_sink_extension`` serves it;
        # a miss (or a node without a cache) goes through it.
        payload = frame.payload
        plans = self._sink_node._arrival_plans
        plan = _NO_PLAN
        if plans is not None:
            if (PMNET_UDP_PORT_MIN <= frame.udp_port <= PMNET_UDP_PORT_MAX
                    and isinstance(payload, PMNetPacket)):
                plan = plans.get(payload.packet_type, _NO_PLAN)
            else:
                plan = plans.get(_PLAIN_KIND, _NO_PLAN)
        if plan is _NO_PLAN:
            extension = self._sink_extension(frame)
            if extension is not None:
                extra_hops, ext_callback, ext_args, claim = extension
                hops = hops + tuple(extra_hops)
                callback, args = self._deliver_ext, (ext_callback, ext_args)
        elif plan is not None:
            hops = hops + plan[0]
            callback, args = self._deliver_ext, (plan[1], (frame, payload))
        call = self.sim.schedule_deferred(pre_delay_ns, hops, callback, *args)
        reservation = _Reservation(call, frame, start, self._busy_until,
                                   wire_bytes, on_revoke, len(hops), claim)
        if claim is not None:
            claim.attach(call, self)
        self._reservations.append(reservation)
        self._busy_until = start + serialize
        return True

    def _deliver_ext(self, callback, args) -> None:
        """Barrier slot of an extension-carrying chain: count the wire
        delivery (the chain subsumed the ``_deliver`` hop) and run the
        receiving node's barrier callback."""
        self.delivered.value += 1
        callback(*args)

    def _pop_started(self) -> None:
        """Drop reservations whose serialization began from tracking.

        The kernel consumed the chain's first hop (the remaining hop
        count dropped below the construction-time length), i.e.
        serialization began — they can no longer be revoked.  The newest
        one popped owns the transmitter whenever ``now < _busy_until``,
        so it becomes the :attr:`_serializing` record a queueing frame
        may convert.
        """
        res = self._reservations
        while res:
            head = res[0]
            defer = head.call.defer_ns
            # ``_remaining_hops`` inlined: this runs on every send_in.
            remaining = (len(defer) if type(defer) is tuple
                         else 1 if defer else 0)
            if remaining >= head.hops:
                return
            res.popleft()
            self._serializing = head.call
            self._serializing_res = head

    def revoke_unstarted(self) -> None:
        """Fall every not-yet-started reservation back to the unfolded
        timeline (a competing plain send arrived during its gap, or the
        owning node failed).

        A reservation whose serialization has begun is indistinguishable
        from a folded in-flight frame and stays.  One that is still in
        its pre-delay gap is converted **in place**: its heap record —
        whose (time, seq) slot is exactly where the unfolded send
        callback's record sits, because the seq was allocated at the
        same instant — becomes the reservation's ``on_revoke`` callback
        at the original start time, and the transmitter-busy horizon
        rolls back to what it was before the reservation.  The callback
        then re-runs the owner's unfolded fire-time path — liveness
        check included — re-counting bytes on whichever path it takes.
        """
        self._pop_started()
        res = self._reservations
        restored = False
        while res:
            entry = res.popleft()
            if not restored:
                self._busy_until = entry.prev_busy_until
                restored = True
            self.bytes_sent.rollback(entry.wire_bytes)
            self.folded_sends.rollback(1)
            if entry.claim is not None:
                entry.claim.release()
            call = entry.call
            call.defer_ns = 0
            call.callback = (self._revoked_send if entry.on_revoke is None
                             else entry.on_revoke)
            call.args = (entry.frame,)
            if entry.start > self._unfolded_send_at:
                self._unfolded_send_at = entry.start

    def strip_extension(self, call, frame: Frame) -> None:
        """Convert an extended in-flight record back to the stage-folded
        chain (the receiving node revoked its arrival extension).

        The claim's pre-drawn hop is removed and the record becomes a
        plain ``_deliver`` chain: drop the trailing extension hop from
        whatever shape the chain is currently in, so the record ends at
        the wire-arrival instant with the seq the stage-folded path
        allocates there.  Reservation bookkeeping shrinks to the base
        two-hop interpretation so started/free detection keeps working.
        """
        defer = call.defer_ns
        if type(defer) is tuple:
            if len(defer) > 2:
                call.defer_ns = defer[:-1]
            elif len(defer) == 2:
                call.defer_ns = defer[0]
            elif defer:
                # A post-serialization extension (``_serialized``): the
                # sole remaining hop IS the claim's — the record already
                # sits at the wire-arrival slot.
                call.defer_ns = 0
            else:
                return
        elif defer:
            call.defer_ns = 0
        else:
            return  # already at its final slot: nothing left to strip
        call.callback = self._deliver
        call.args = (frame,)
        if self._serializing is call:
            self._serializing_res = None
        else:
            for entry in self._reservations:
                if entry.call is call:
                    entry.hops = 2
                    entry.claim = None
                    break

    def on_impairments_changed(self) -> None:
        """Fall in-flight folded work back to the unfolded path after a
        mid-run impairment swap (a chaos fault window opening).

        Folding commits draws-free delivery up front, but the unfolded
        timeline draws loss/duplicate/reorder at each frame's
        serialize-end — so any folded record whose serialize-end lies
        *after* this instant must be converted back: reservations still
        in their pre-delay gap revoke wholesale, and a record
        mid-serialization is rewritten in place into ``_serialized`` at
        its serialize-end slot, where it re-checks impairments
        and draws exactly as the unfolded run does.  Records already
        past serialize-end committed before the swap on both timelines
        and stay folded.

        Cached arrival plans on the receiving node are dropped too: the
        plan cache must never outlive a reconfiguration of the path
        that feeds it (the send paths also stop querying extensions
        entirely while impairments are enabled).
        """
        self._sink_node.invalidate_arrival_plans()
        if self._reservations:
            self.revoke_unstarted()
        call = self._serializing
        if call is not None:
            ext = (self._serializing_res.hops - 2
                   if self._serializing_res is not None else 0)
            if _remaining_hops(call) == ext + 1:
                self._unfold_inflight()

    def _revoked_send(self, frame: Frame) -> None:
        """Fallback for reservations taken without ``on_revoke``: re-send
        unconditionally.  Only correct when the sender cannot fail."""
        self.send(frame)

    def _unfold_inflight(self) -> None:
        """Convert the in-flight folded transmission into ``_serialized``.

        A frame just queued while a folded transmission occupies the
        transmitter, so something must restart the queue when it frees.
        The folded record sits at exactly the heap slot the unfolded
        ``_serialized`` callback would occupy — same time (the serialize
        end), same seq (allocated at the serialize start) — so rather
        than scheduling a separate drain event (whose later-allocated
        seq could tie-break differently against unrelated
        same-nanosecond events), the record is rewritten in place into
        that callback.  From here the transmission is bit-for-bit the
        unfolded one: ``_serialized`` launches the frame, allocating the
        delivery seq at the serialize instant exactly as the unfolded
        path does, and restarts the queue.
        """
        call = self._serializing
        res = self._serializing_res
        ext = res.hops - 2 if res is not None else 0
        assert call is not None and _remaining_hops(call) == ext + 1, \
            "busy transmitter without a convertible folded record"
        if res is not None and res.claim is not None:
            res.claim.release()
            res.claim = None
        call.callback = self._serialized
        call.args = (res.frame,) if res is not None else call.args
        call.defer_ns = 0
        self._transmitting = True
        self._serializing = None
        self._serializing_res = None

    def _transmit_next(self) -> None:
        """Start serializing the head of the queue, if any."""
        queue = self._queue
        if not queue:
            return
        frame = queue.popleft()
        self.queue_depth_highwater.value = len(queue)
        wire_bytes, serialize = (self._wire_costs.get(frame.payload_bytes)
                                 or self._costs(frame))
        self.bytes_sent.value += wire_bytes
        self._busy_until = self.sim._now + serialize
        self._transmitting = True
        # The transmitter is busy for the serialization time, then the
        # frame flies for the propagation delay while the next one starts.
        self.sim.schedule(serialize, self._serialized, frame)

    def _serialized(self, frame: Frame) -> None:
        """Serialization of ``frame`` ended: put it on the wire, then
        restart the queue."""
        self._transmitting = False
        if not self.impairments.any_enabled():
            # Even an *unfolded* transmission (queued behind contention)
            # can extend its delivery through the receiving node: the
            # record's push seq lands at this serialize-end instant and
            # each extension hop re-sequences exactly where the
            # stage-folded interior would have allocated its events, so
            # the chain is heap-order-identical with one event fewer.
            # The record is already past the transmitter (nothing here
            # tracks it), and claims stay revocable through the host
            # hooks.  Impaired copies never extend, mirroring the fold
            # gate.
            extension = self._sink_extension(frame)
            if extension is not None:
                extra_hops, ext_callback, ext_args, claim = extension
                call = self.sim.schedule_deferred(
                    self._propagation, tuple(extra_hops),
                    self._deliver_ext, ext_callback, ext_args)
                if claim is not None:
                    claim.attach(call, self)
            else:
                self.sim.schedule(self._propagation, self._deliver, frame)
        else:
            # Draw order per frame: loss(original), duplicate, then per
            # surviving copy a reorder draw and — for the duplicate —
            # its own loss draw.  Each copy is an independent wire
            # traversal, so each gets independent loss and reorder
            # draws (sharing the original's draws made duplicate+loss
            # and duplicate+reorder unreachable); duplication is decided
            # once per frame, so a duplicate cannot spawn further
            # duplicates.  All draws come from the channel's dedicated
            # stream, keeping runs seeded.
            imp = self.impairments
            rng = self._rng
            lost = rng.random() < imp.loss_probability
            duplicated = rng.random() < imp.duplicate_probability
            self._launch_copy(frame, lost, imp, rng)
            if duplicated:
                self._launch_copy(frame, rng.random() < imp.loss_probability,
                                  imp, rng)
        # Restart the queue: ``_transmit_next`` inlined, since most
        # queued frames have a successor waiting.
        queue = self._queue
        if queue:
            head = queue.popleft()
            self.queue_depth_highwater.value = len(queue)
            wire_bytes, serialize = (
                self._wire_costs.get(head.payload_bytes)
                or self._costs(head))
            self.bytes_sent.value += wire_bytes
            self._busy_until = self.sim._now + serialize
            self._transmitting = True
            self.sim.schedule(serialize, self._serialized, head)

    def _launch_copy(self, frame: Frame, lost: bool,
                     imp: Impairments, rng) -> None:
        """Deliver (or drop) one copy of an impaired frame."""
        if lost:
            self.dropped_loss.increment()
            return
        delay = self._propagation
        if rng.random() < imp.reorder_probability:
            delay += imp.reorder_extra_ns
        self.sim.schedule(delay, self._deliver, frame)

    def _deliver(self, frame: Frame) -> None:
        self.delivered.value += 1
        self._sink_node.receive(frame, self.sink)

    @property
    def queue_depth(self) -> int:
        """Frames waiting behind the one being serialized."""
        return len(self._queue)

    def instruments(self) -> tuple:
        """This channel's typed instruments (the explicit registration
        protocol; see :mod:`repro.obs.registry`)."""
        return (self.delivered, self.dropped_full, self.dropped_full_bytes,
                self.dropped_loss, self.bytes_sent, self.folded_sends,
                self.queue_depth_highwater)

    def summary(self) -> dict:
        """Every counter/gauge on this channel (queue pressure included)."""
        return instruments_summary(self.instruments())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Channel {self.name} queued={self.queue_depth}>"


class Link:
    """A full-duplex link between two ports (two directed channels)."""

    def __init__(self, sim: "Simulator", profile: "NetworkProfile",
                 port_a: Port, port_b: Port,
                 impairments_ab: Optional[Impairments] = None,
                 impairments_ba: Optional[Impairments] = None) -> None:
        name_ab = f"{port_a.node.name}->{port_b.node.name}"
        name_ba = f"{port_b.node.name}->{port_a.node.name}"
        self.forward = Channel(sim, name_ab, profile, port_b, impairments_ab)
        self.backward = Channel(sim, name_ba, profile, port_a, impairments_ba)
        port_a.channel = self.forward
        port_b.channel = self.backward
        self.port_a = port_a
        self.port_b = port_b

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.forward.name}>"
