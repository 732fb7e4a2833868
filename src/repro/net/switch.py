"""A plain (non-programmable) store-and-forward switch.

Models the "regular switch (with sub-microsecond latency)" the paper
places between the clients and the FPGA (Sec VI-A1): a fixed forwarding
delay plus whatever queueing the output links impose.

:meth:`Switch.receive` overrides ``Node.receive``: it does the failed
check, the hop count and the span milestone itself and schedules
``_forward`` one forwarding delay later (:meth:`Switch.handle_frame`
runs the same code for direct callers, without counting a hop).
``_forward`` re-checks ``failed`` and sends straight into the channel
the forwarding table has bound for the destination
(:attr:`ForwardingTable.bound`, filled on first use by
:meth:`ForwardingTable.egress` and cleared by every route change),
falling back to :meth:`ForwardingTable.transmit` on a miss.
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
    """Forwards every frame toward its destination after a fixed delay."""

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
        """One switch arrival: ``Node.receive`` without the
        ``handle_frame`` indirection (see the module docstring).  ``hop``
        is what the frame's hop count gains — 0 for a direct
        :meth:`handle_frame`."""
        if self.failed:
            return  # a dead switch is a black hole
        frame.hops += hop
        if self._spans is not None:
            packet = frame.payload
            stage = _SPAN_STAGES.get(getattr(packet, "packet_type", None))
            if stage is not None:
                self._spans.record(packet.request_id, stage, self.sim.now)
        self.sim.schedule(self._forward_ns, self._forward, frame)

    def handle_frame(self, frame: Frame, in_port: Port) -> None:
        """Forward ``frame`` exactly as a channel delivery would, without
        counting a hop; a failed switch drops it."""
        self.receive(frame, in_port, 0)

    def _forward(self, frame: Frame) -> None:
        if self.failed:
            return
        # Hot path: bumped in place (an increment of 1 cannot fail).
        self.forwarded.value += 1
        channel = self.table.bound.get(frame.dst)
        if channel is None:
            self.table.transmit(frame.dst, frame)
        else:
            channel.send(frame)
