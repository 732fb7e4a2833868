"""Links: serialization, propagation, FIFO queueing, and impairments.

A :class:`Link` is full duplex: it is built from two independent directed
:class:`Channel` objects.  Each channel models

* a drop-tail output queue (finite packet capacity),
* a transmitter that serializes one frame at a time at the link rate,
* fixed propagation delay, and
* optional impairments (loss, reordering, duplication) driven by a
  dedicated random stream so experiments can inject packet loss exactly
  where the paper's Fig 7 scenarios need it.

Every frame takes one path: :meth:`Channel.send` either drops it (the
queue is full), queues it behind the frame being serialized, or — the
transmitter idle — starts serializing it at once; ``_serialized`` puts
it on the wire at the serialize end, allocating the delivery event's seq
at that instant, and starts the next queued frame; ``_deliver`` hands
it to the receiving node.

**Arrival extensions** (``PMNET_FOLD=whole``): at the serialize end an
unimpaired channel asks the receiving node for an
:meth:`~repro.net.device.Node.arrival_extension` — extra deterministic
hops (a PMNet device's ingress/PM stages, a client host's pre-drawn
stack receive cost) appended to the propagation hop, ending in the
node's own barrier callback instead of :meth:`_deliver`.  A sink whose
class keeps the base ``Node.arrival_extension`` (a plain switch) never
extends and is not asked.  Each extra hop re-sequences at exactly the
instant the receiving node would have allocated the corresponding
event, so tie-breaking is unchanged; the barrier re-checks the
receiver's liveness.  A host that needs its jitter stream before such a
chain reaches the wire-arrival slot revokes its claim, and
:meth:`Channel.strip_extension` rewrites the queued chain in place into
a plain delivery.  Impaired frames never extend: their per-frame random
draws and the loss/duplicate/reorder branching stay on the plain path,
preserving RNG stream positions draw for draw.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.net.device import Node, Port
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


#: Frame-kind key for non-PMNet traffic in the arrival-plan cache.
_PLAIN_KIND = object()

#: Cache-miss sentinel (``None`` is a valid cached plan: "never extends").
_NO_PLAN = object()


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
        #: Whether the sink can extend arrivals at all: a node class
        #: that keeps the base ``arrival_extension`` never does.
        self._sink_extends = (type(sink.node).arrival_extension
                              is not Node.arrival_extension)
        self.impairments = impairments or Impairments()
        self._rng = sim.random.stream(f"channel:{name}")
        self._queue: Deque[Frame] = deque()
        #: A frame is being serialized (its ``_serialized`` is pending);
        #: the queue holds only frames waiting behind it.
        self._transmitting = False
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
        """Transmit a frame: start serializing it at once when the
        transmitter is idle, else queue it behind, drop-tail when the
        queue is full."""
        if not self._transmitting and self._capacity > 0:
            # Idle, so the queue is empty and the gauge reads 0, and
            # there is room: the frame is queued and dequeued in the
            # same instant, which leaves the gauge at 0 with a
            # high-water mark of at least 1.  (A zero-capacity channel
            # has no room even now: it takes the drop below.)
            gauge = self.queue_depth_highwater
            if not gauge.highwater:
                gauge.highwater = 1
            wire_bytes, serialize = (
                self._wire_costs.get(frame.payload_bytes)
                or self._costs(frame))
            self.bytes_sent.value += wire_bytes
            self._transmitting = True
            # The transmitter is busy for the serialization time, then
            # the frame flies for the propagation delay while the next
            # one starts.
            self.sim.schedule(serialize, self._serialized, frame)
            return
        queue = self._queue
        depth = len(queue)
        if depth >= self._capacity:
            self.dropped_full.increment()
            self.dropped_full_bytes.increment(
                frame.wire_size(self._overhead))
            return
        queue.append(frame)
        # The queue-depth gauge, bumped in place (a length is never
        # negative, so ``Gauge.update``'s guard has nothing to catch).
        depth += 1
        gauge = self.queue_depth_highwater
        gauge.value = depth
        if depth > gauge.highwater:
            gauge.highwater = depth

    def send_in(self, pre_delay_ns: int, frame: Frame,
                on_revoke: Optional[Callable[[Frame], None]] = None) -> bool:
        """Never reserves the transmitter: returns ``False``, which tells
        the caller to send ``frame`` itself ``pre_delay_ns`` from now.

        Kept for callers outside the package that still offer a
        reservation; nothing in ``repro`` calls it.
        """
        return False

    def _deliver_ext(self, callback, args) -> None:
        """Barrier slot of an extension-carrying chain: count the wire
        delivery (the chain subsumed the ``_deliver`` hop) and run the
        receiving node's barrier callback."""
        self.delivered.value += 1
        callback(*args)

    def strip_extension(self, chain: list, frame: Frame) -> None:
        """Turn an extended chain that has not reached its wire-arrival
        slot back into a plain ``_deliver`` (the receiving host revoked
        its claim).

        Claims ride a one-hop extension, so while the chain is still
        deferred it sits at the wire-arrival instant with the seq the
        plain delivery allocates there: rewriting the queued chain list
        in place, dropping the hop and the barrier, is all it takes.
        """
        chain[0] = 0
        chain[1] = self._deliver
        chain[2] = (frame,)

    def on_impairments_changed(self) -> None:
        """Drop the receiving node's cached arrival plans after a mid-run
        impairment swap (a chaos fault window opening): the plan cache
        must never outlive a reconfiguration of the path that feeds it."""
        self._sink_node.invalidate_arrival_plans()

    def _serialized(self, frame: Frame) -> None:
        """Serialization of ``frame`` ended: put it on the wire, then
        start the next queued frame."""
        self._transmitting = False
        imp = self.impairments
        if not (imp.loss_probability > 0.0
                or imp.duplicate_probability > 0.0
                or imp.reorder_probability > 0.0):
            # The delivery may extend through the receiving node: the
            # chain's push seq lands at this serialize-end instant and
            # each extension hop re-sequences exactly where the node
            # would have allocated its own events, so the chain is
            # heap-order-identical with fewer events.  Claims stay
            # revocable through the host hooks.  Impaired copies never
            # extend.
            extension = (self._sink_extension(frame) if self._sink_extends
                         else None)
            if extension is not None:
                extra_hops, ext_callback, ext_args, claim = extension
                chain = self.sim.schedule_deferred(
                    self._propagation, tuple(extra_hops),
                    self._deliver_ext, ext_callback, ext_args)
                if claim is not None:
                    claim.attach(chain, self)
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
            rng = self._rng
            lost = rng.random() < imp.loss_probability
            duplicated = rng.random() < imp.duplicate_probability
            self._launch_copy(frame, lost, imp, rng)
            if duplicated:
                self._launch_copy(frame, rng.random() < imp.loss_probability,
                                  imp, rng)
        # Start the next queued frame, if any.
        queue = self._queue
        if queue:
            head = queue.popleft()
            self.queue_depth_highwater.value = len(queue)
            wire_bytes, serialize = (
                self._wire_costs.get(head.payload_bytes)
                or self._costs(head))
            self.bytes_sent.value += wire_bytes
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
