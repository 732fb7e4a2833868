"""Links: serialization, propagation, FIFO queueing, and impairments.

A :class:`Link` is full duplex: it is built from two independent directed
:class:`Channel` objects.  Each channel models

* a drop-tail output queue (finite packet capacity),
* a transmitter that serializes one frame at a time at the link rate,
* fixed propagation delay, and
* optional impairments (loss, reordering, duplication) driven by a
  dedicated random stream so experiments can inject packet loss exactly
  where the paper's Fig 7 scenarios need it.

A frame costs one heap entry per hop.  :meth:`Channel.commit` (and
:meth:`Channel.send`, a commit at the current instant) decides the
frame's whole passage when it is handed over: it starts when the
transmitter frees up (``busy_until``), or at once if idle, and its
delivery, ``_deliver``, is pushed once at start + serialization +
propagation.  Nothing is revoked and no event marks a serialize end.

The queue is the frames committed but not yet started.  A deque holds
the start instant of each frame that had to wait, and a commit at
instant ``at`` first drops the ones at or before ``at``: what is left is
the occupancy drop-tail and the depth gauge read.  A switch commits one
forwarding delay ahead, so its channel's queue is counted as of the end
of that window.

An impaired channel keeps one serialize-end event per frame,
``_draw_impairments``, so its draws come in the same order as ever; the
frame carries the :class:`Impairments` in force at its commit.  An
unimpaired channel draws nothing.

The seq of a delivery is taken at commit, so two deliveries in the same
nanosecond run in commit order, not serialize-end order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.net.device import Port
from repro.net.packet import Frame
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


class _DepthGauge(Gauge):
    """A channel's queue-depth gauge.  Its level is read from the
    channel when asked (nothing runs when a queued frame starts); the
    channel raises its high-water mark at each commit."""

    __slots__ = ("_channel",)

    def __init__(self, name: str, channel: "Channel") -> None:
        # ``Gauge.__init__`` would assign the level, which is read-only.
        self.name = name
        self.highwater = 0
        self._channel = channel

    @property
    def value(self) -> int:  # type: ignore[override]
        return self._channel.queue_depth


class Channel:
    """One direction of a link: ``source`` port -> ``sink`` port."""

    def __init__(self, sim: "Simulator", name: str, profile: "NetworkProfile",
                 sink: Port, impairments: Optional[Impairments] = None) -> None:
        self.sim = sim
        self.name = name
        self.profile = profile
        self.sink = sink
        #: ``Port.node`` is never reassigned, so deliveries skip the
        #: port dereference.
        self._sink_node = sink.node
        self.impairments = impairments or Impairments()
        self._rng = sim.random.stream(f"channel:{name}")
        #: When the transmitter frees up: the serialize end of the last
        #: committed frame.
        self._busy_until = 0
        #: Start instants of the committed frames that had to wait,
        #: oldest first; those not yet reached are the queue.
        self._starts: Deque[int] = deque()
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
        #: Always 0 (nothing folds a send); the benchmark reads it.
        self.folded_sends = Counter(f"{name}.folded")
        self.queue_depth_highwater = _DepthGauge(f"{name}.queue_depth", self)
        register_with_sim(sim, self)

    # ------------------------------------------------------------------
    def _costs(self, frame: Frame) -> tuple:
        """``(wire_bytes, serialize_ns)`` of ``frame`` on this channel,
        on a miss of the :attr:`_wire_costs` memo."""
        wire_bytes = frame.wire_size(self._overhead)
        costs = (wire_bytes,
                 transmission_delay(wire_bytes, self.profile.bandwidth_bps))
        self._wire_costs[frame.payload_bytes] = costs
        return costs

    def send(self, frame: Frame) -> None:
        """Transmit ``frame`` now (see :meth:`commit`)."""
        self.commit(frame, self.sim.now)

    def commit(self, frame: Frame, at: int) -> None:
        """Hand ``frame`` to the transmitter at instant ``at`` (now or
        later): drop it if the frames waiting at ``at`` fill the queue,
        else start it at ``max(at, busy_until)`` and push its delivery.

        A channel's commit instants never decrease: its one sender
        commits either now or a fixed lead ahead.
        """
        now = self.sim.now
        starts = self._starts
        while starts and starts[0] <= at:
            starts.popleft()
        waiting = len(starts)
        if waiting >= self._capacity:
            self.dropped_full.increment()
            self.dropped_full_bytes.increment(
                frame.wire_size(self._overhead))
            return
        # The depth this frame saw, itself included: 1 into an idle
        # transmitter, which takes it in the instant it is queued.
        gauge = self.queue_depth_highwater
        if waiting >= gauge.highwater:
            gauge.highwater = waiting + 1
        wire_bytes, serialize = (
            self._wire_costs.get(frame.payload_bytes) or self._costs(frame))
        self.bytes_sent.value += wire_bytes
        start = self._busy_until
        if start > at:
            starts.append(start)
        else:
            start = at
        end = self._busy_until = start + serialize
        imp = self.impairments
        if not (imp.loss_probability > 0.0
                or imp.duplicate_probability > 0.0
                or imp.reorder_probability > 0.0):
            self.sim.schedule(end + self._propagation - now,
                              self._deliver, frame)
        else:
            self.sim.schedule(end - now, self._draw_impairments, frame, imp)

    def send_in(self, pre_delay_ns: int, frame: Frame,
                on_revoke: Optional[Callable[[Frame], None]] = None) -> bool:
        """Never reserves the transmitter: returns ``False``, which tells
        the caller to send ``frame`` itself ``pre_delay_ns`` from now.

        Kept for callers outside the package that still offer a
        reservation; nothing in ``repro`` calls it.
        """
        return False

    def _deliver_ext(self, callback, args) -> None:
        """Count a wire delivery and run ``callback(*args)``.  Kept as a
        name only for the benchmark's layer map; nothing in ``repro``
        calls it."""
        self.delivered.value += 1
        callback(*args)

    def _draw_impairments(self, frame: Frame, imp: Impairments) -> None:
        """Serialization of an impaired frame ended: put it on the wire
        under ``imp``, the impairments in force at its commit.

        Draw order per frame: loss(original), duplicate, then per
        surviving copy a reorder draw and — for the duplicate — its own
        loss draw.  Each copy is an independent wire traversal, so each
        gets independent loss and reorder draws (sharing the original's
        draws made duplicate+loss and duplicate+reorder unreachable);
        duplication is decided once per frame, so a duplicate cannot
        spawn further duplicates.  All draws come from the channel's
        dedicated stream, keeping runs seeded.
        """
        rng = self._rng
        lost = rng.random() < imp.loss_probability
        duplicated = rng.random() < imp.duplicate_probability
        self._launch_copy(frame, lost, imp, rng)
        if duplicated:
            self._launch_copy(frame, rng.random() < imp.loss_probability,
                              imp, rng)

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
        """Frames waiting behind the one being serialized, as of now or
        of the latest commit instant, whichever is later."""
        starts = self._starts
        now = self.sim.now
        while starts and starts[0] <= now:
            starts.popleft()
        return len(starts)

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
