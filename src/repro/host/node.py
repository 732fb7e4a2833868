"""A host machine on the fabric: one NIC port, a stack, one endpoint.

The :class:`HostNode` is the glue between the network substrate and the
application libraries: inbound frames are charged the stack's receive
cost and handed to the bound endpoint; outbound packets are charged the
send cost and transmitted from the single NIC port.  Failing a host
silences it (frames black-hole) until recovery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Protocol

from repro.errors import NetworkError
from repro.net.device import Node, Port
from repro.net.packet import Frame
from repro.obs.registry import register_with_sim
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.stackmodel import HostStack
    from repro.net.link import Channel
    from repro.sim.kernel import Simulator


class Endpoint(Protocol):
    """What a host delivers inbound frames to."""

    def on_frame(self, frame: Frame) -> None:  # pragma: no cover - protocol
        ...


class _ExpressClaim:
    """One pre-drawn receive cost riding an extended arrival chain.

    Created by :meth:`HostNode.arrival_extension`: the host draws the
    receive cost at the frame's serialize end instead of wire-arrival
    time and hands the cost to the channel as an extra chain hop.  The
    pre-draw is only stream-order-safe while no other draw intervenes,
    so every competing draw site on the host
    (:meth:`HostNode.handle_frame`, :meth:`HostNode.send_frame`,
    :meth:`HostNode.dispatch_cost`) revokes a still-deferred claim
    first, handing its draw back to the stack; once the chain has
    re-sequenced past the wire-arrival slot (its ``defer_ns`` slot
    falsy) the draw is committed in correct order and later draws leave
    it alone.  ``chain`` is the kernel's queued chain list, ``[defer_ns,
    callback, args]`` (``Simulator.schedule_deferred``).
    """

    __slots__ = ("host", "frame", "epoch", "draw", "chain", "channel")

    def __init__(self, host: "HostNode", frame: Frame, epoch: int,
                 draw) -> None:
        self.host = host
        self.frame = frame
        self.epoch = epoch
        self.draw = draw
        self.chain = None
        self.channel = None

    def attach(self, chain: list, channel) -> None:
        """Called by the channel once the chain exists."""
        self.chain = chain
        self.channel = channel


class HostNode(Node):
    """One machine: NIC + stack + the application endpoint."""

    #: Host extensions pre-draw stack jitter and hold a claim slot per
    #: frame, so channels must query :meth:`arrival_extension` on every
    #: delivery — never cache the plan (see ``Node.arrival_plans_static``).
    arrival_plans_static = False

    def __init__(self, sim: "Simulator", name: str, stack: "HostStack") -> None:
        super().__init__(sim, name)
        self.stack = stack
        self.endpoint: Optional[Endpoint] = None
        self.frames_received = Counter(f"{name}.rx")
        self.frames_sent = Counter(f"{name}.tx")
        #: Generation counter: bumped on every failure so that callbacks
        #: scheduled before a crash do not leak into the recovered life.
        self.epoch = 0
        #: Opt-in (client endpoints under whole-request folding): allow
        #: inbound wire chains to extend through this host's stack
        #: receive cost via a pre-drawn :class:`_ExpressClaim`.
        self.express_inbound = False
        #: The single outstanding claim (one at a time keeps the
        #: stream-order argument trivial); ``None`` when free.
        self._claim: Optional[_ExpressClaim] = None
        #: The NIC port's outbound channel, bound on the first send (a
        #: port's channel is fixed once its link is built).
        self._egress: Optional["Channel"] = None
        register_with_sim(sim, self)

    def instruments(self) -> tuple:
        """This host's typed instruments (explicit registration)."""
        return (self.frames_received, self.frames_sent)

    # ------------------------------------------------------------------
    def bind(self, endpoint: Endpoint) -> None:
        if self.endpoint is not None:
            raise NetworkError(f"host {self.name} already has an endpoint")
        self.endpoint = endpoint

    @property
    def nic_port(self) -> Port:
        if not self.ports:
            raise NetworkError(f"host {self.name} is not connected")
        return self.ports[0]

    # ------------------------------------------------------------------
    # Inbound: link -> stack -> endpoint
    # ------------------------------------------------------------------
    def handle_frame(self, frame: Frame, in_port: Port) -> None:
        if self._claim is not None:
            self._revoke_claim()
        cost = self.stack.recv_cost(frame.payload_bytes)
        epoch = self.epoch
        self.sim.schedule(cost, self._deliver, frame, epoch)

    def _deliver(self, frame: Frame, epoch: int) -> None:
        if self.failed or epoch != self.epoch:
            return  # the packet died in the stack when the host crashed
        self.frames_received.increment()
        if self.endpoint is not None:
            self.endpoint.on_frame(frame)

    # ------------------------------------------------------------------
    # Whole-request folding: express arrival claims
    # ------------------------------------------------------------------
    def arrival_extension(self, frame: Frame):
        """Extend an inbound chain through the stack receive cost.

        Only for opted-in hosts (client endpoints), one claim at a time,
        and never while failed: the receive jitter is pre-drawn under a
        revocable claim and the chain ends in :meth:`_express_deliver`
        at exactly the instant the unfolded ``_deliver`` would run.
        """
        if (not self.express_inbound or self.failed
                or self._claim is not None or self.endpoint is None):
            return None
        cost, draw = self.stack.claim_recv_cost(frame.payload_bytes)
        claim = _ExpressClaim(self, frame, self.epoch, draw)
        self._claim = claim
        return ((cost,), self._express_deliver, (frame, claim), claim)

    def _express_deliver(self, frame: Frame, claim: _ExpressClaim) -> None:
        """Barrier of an express arrival: the unfolded ``_deliver``
        semantics (liveness check, counters, endpoint dispatch) at the
        same virtual instant and heap slot."""
        # The chain's args hold the claim and the claim holds the
        # chain: break the cycle so both die with this callback
        # instead of waiting for the cyclic collector.
        claim.chain = claim.channel = None
        if self._claim is claim:
            self._claim = None
        if self.failed or claim.epoch != self.epoch:
            return
        frame.hops += 1  # the Node.receive bookkeeping the chain subsumed
        self.frames_received.increment()
        if self.endpoint is not None:
            self.endpoint.on_frame(frame)

    def _revoke_claim(self) -> None:
        """A competing draw (or arrival) needs the jitter stream: hand a
        still-deferred claim's draw back and strip its chain hop.  A
        claim whose chain already re-sequenced past the wire-arrival
        slot committed its draw in correct stream order — it stays."""
        claim = self._claim
        chain = claim.chain
        if chain is not None and chain[0]:
            self._claim = None
            self.stack.revoke_recv_cost(claim.draw)
            claim.channel.strip_extension(chain, claim.frame)

    def dispatch_cost(self) -> int:
        """The stack dispatch cost, claim-safely: endpoint completion
        paths must draw through here so an outstanding express claim is
        revoked before the jitter stream advances."""
        if self._claim is not None:
            self._revoke_claim()
        return self.stack.dispatch_cost()

    # ------------------------------------------------------------------
    # Outbound: endpoint -> stack -> NIC
    # ------------------------------------------------------------------
    def send_frame(self, dst: str, payload: Any, payload_bytes: int,
                   udp_port: int) -> None:
        """Send one application packet; charges the stack send cost."""
        if self.failed:
            return
        if self._claim is not None:
            self._revoke_claim()
        frame = Frame(self.name, dst, payload, payload_bytes, udp_port)
        cost = self.stack.send_cost(payload_bytes)
        self.sim.schedule(cost, self._transmit, frame, self.epoch)

    def _transmit(self, frame: Frame, epoch: int) -> None:
        if self.failed or epoch != self.epoch:
            return
        self.frames_sent.value += 1
        channel = self._egress
        if channel is None:
            channel = self._egress = self.nic_port.channel
            if channel is None:
                # Not connected: the port raises.
                self.nic_port.transmit(frame)
                return
        channel.send(frame)

    # ------------------------------------------------------------------
    def fail(self) -> None:
        super().fail()
        self.epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "FAILED" if self.failed else "up"
        return f"<HostNode {self.name} {state}>"
