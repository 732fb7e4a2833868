"""A plain (non-programmable) store-and-forward switch.

Models the "regular switch (with sub-microsecond latency)" the paper
places between the clients and the FPGA (Sec VI-A1): a fixed forwarding
delay plus whatever queueing the output links impose.

Because the forwarding delay is a constant, frames reach a given output
channel in exactly the order they arrived at the switch — so when the
output transmitter is predictably idle at send time, the whole hop
folds: forwarding delay + serialization + propagation collapse into one
deferred delivery event (see :meth:`Channel.send_in`).  When the
channel cannot take the reservation (busy, queued, or impaired) the
switch falls back to scheduling ``_forward`` exactly as before; if that
unfolded send lands inside a later reservation's pre-delay gap, the
channel revokes the reservation — running ``_unfold_forward`` at the
slot ``_forward`` would have occupied — so arrival order is preserved.

A hop is one call: :meth:`Switch.receive` overrides ``Node.receive``
and does the failed check, the hop count, the span milestone and the
forwarding decision itself (:meth:`Switch.handle_frame` runs the same
code for direct callers, without counting a hop).  The output channel
comes from the forwarding table's bound ``destination -> Channel`` map
(:meth:`ForwardingTable.egress`), filled on first use and cleared by
every route change.

Folding caveats: the routing lookup and the ``forwarded`` increment
happen at *arrival* time on the folded path, not at the end of the
forwarding delay, so mid-run snapshots of ``forwarded`` may lead the
unfolded timeline by up to ``switch_forward_ns`` (end-of-run totals are
identical), and mutating the forwarding table while frames are inside
that window is incompatible with folding.  A switch crash inside the
window is handled: ``Node.fail`` revokes the reservation and
``_unfold_forward`` re-runs the unfolded ``_forward`` — failed check
and all — rolling the fold-time increment back first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.device import ForwardingTable, Node, Port
from repro.net.packet import Frame
from repro.obs import spans
from repro.obs.registry import register_with_sim
from repro.protocol.types import PacketType
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import NetworkProfile
    from repro.sim.kernel import Simulator

#: Which lifecycle milestone a switch arrival marks, by packet type.
#: Requests are the forward direction, ACKs/responses the return one;
#: everything else (recovery traffic, retransmission control) is not a
#: per-request milestone.
_SPAN_STAGES = {
    PacketType.UPDATE_REQ: spans.SWITCH_FORWARD,
    PacketType.BYPASS_REQ: spans.SWITCH_FORWARD,
    PacketType.PMNET_ACK: spans.SWITCH_RETURN,
    PacketType.SERVER_ACK: spans.SWITCH_RETURN,
    PacketType.SERVER_RESP: spans.SWITCH_RETURN,
    PacketType.CACHE_RESP: spans.SWITCH_RETURN,
}


class Switch(Node):
    """Forwards every frame toward its destination after a fixed delay.

    A switch never extends inbound chains (``arrival_extension`` stays
    the base ``None``), and that answer is static — the inherited
    ``arrival_plans_static = True`` lets inbound channels cache the
    "never extends" verdict per frame kind instead of re-asking on
    every delivery.
    """

    def __init__(self, sim: "Simulator", name: str,
                 profile: "NetworkProfile") -> None:
        super().__init__(sim, name)
        self.profile = profile
        self._forward_ns = profile.switch_forward_ns
        self.table = ForwardingTable()
        self.forwarded = Counter(f"{name}.forwarded")
        self._spans = spans.spans_for(sim)
        register_with_sim(sim, self)

    def instruments(self) -> tuple:
        """This switch's typed instruments (explicit registration)."""
        return (self.forwarded,)

    def receive(self, frame: Frame, in_port: Port, hop: int = 1) -> None:
        """One switch hop in one call: ``Node.receive`` and the forwarding
        decision fused (see the module docstring).  ``hop`` is what the
        frame's hop count gains — 0 for a direct :meth:`handle_frame`."""
        if self.failed:
            return  # a dead switch is a black hole
        frame.hops += hop
        if self._spans is not None:
            # Arrival executes at the same instant in the folded and
            # unfolded timelines, so this milestone is fold-neutral.
            packet = frame.payload
            stage = _SPAN_STAGES.get(getattr(packet, "packet_type", None))
            if stage is not None:
                self._spans.record(packet.request_id, stage, self.sim.now)
        table = self.table
        channel = table.bound.get(frame.dst) or table.egress(frame.dst)
        if channel is not None and channel.send_in(
                self._forward_ns, frame, self._unfold_forward):
            # Hot path: bumped in place (an increment of 1 cannot fail).
            self.forwarded.value += 1
            return
        self.sim.schedule(self._forward_ns, self._forward, frame)

    def handle_frame(self, frame: Frame, in_port: Port) -> None:
        """Forward ``frame`` exactly as a channel delivery would, without
        counting a hop; a failed switch drops it."""
        self.receive(frame, in_port, 0)

    def _unfold_forward(self, frame: Frame) -> None:
        """The reservation was revoked: roll back the fold-time
        ``forwarded`` increment and re-run the unfolded ``_forward`` at
        the slot it would have occupied (failed check included)."""
        self.forwarded.rollback(1)
        self._forward(frame)

    def _forward(self, frame: Frame) -> None:
        if self.failed:
            return
        self.forwarded.value += 1
        self.table.transmit(frame.dst, frame)
