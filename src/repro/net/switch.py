"""A plain (non-programmable) store-and-forward switch.

Models the "regular switch (with sub-microsecond latency)" the paper
places between the clients and the FPGA (Sec VI-A1): a fixed forwarding
delay plus whatever queueing the output links impose.

:meth:`Switch.receive` overrides ``Node.receive``: it does the failed
check, the hop count and the span milestone itself, resolves the egress
channel the forwarding table has bound for the destination
(:attr:`ForwardingTable.bound`, filled on first use by
:meth:`ForwardingTable.egress` and cleared by every route change), and
commits the frame to it one forwarding delay ahead
(:meth:`~repro.net.link.Channel.commit`).  The frame's next delivery is
pushed in that same call, so a switch hop adds no heap entry of its
own.  :meth:`Switch.handle_frame` runs the same code for direct
callers, without counting a hop.

Liveness is checked on arrival only: a frame a live switch has received
leaves it even if the switch fails inside its forwarding window.
Nothing fails a plain switch today: the failure injector and the chaos
faults fail only devices and servers.
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
        now = self.sim.now
        if self._spans is not None:
            packet = frame.payload
            stage = _SPAN_STAGES.get(getattr(packet, "packet_type", None))
            if stage is not None:
                self._spans.record(packet.request_id, stage, now)
        table = self.table
        channel = table.bound.get(frame.dst) or table.egress(frame.dst)
        if channel is None:
            # The route's port is not connected: the port raises.
            table.lookup(frame.dst).transmit(frame)
        # Hot path: bumped in place (an increment of 1 cannot fail).
        self.forwarded.value += 1
        channel.commit(frame, now + self._forward_ns)

    def handle_frame(self, frame: Frame, in_port: Port) -> None:
        """Forward ``frame`` exactly as a channel delivery would, without
        counting a hop; a failed switch drops it."""
        self.receive(frame, in_port, 0)
