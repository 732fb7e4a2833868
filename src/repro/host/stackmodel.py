"""Host network-stack latency model.

Wraps a :class:`~repro.config.StackProfile` with the random machinery
that produces realistic latency *distributions*: mean-preserving
lognormal jitter on every crossing, plus rare long hiccups on the
application dispatch path (scheduler preemption) that create the tail
the paper's Fig 20 CDFs measure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.config import TCP_EXTRA_PER_SIDE_NS, StackProfile
from repro.sim.rand import LatencyJitter

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Transports a host stack can speak.
UDP = "udp"
TCP = "tcp"


class HostStack:
    """Charges stack traversal costs for one host."""

    def __init__(self, sim: "Simulator", name: str, profile: StackProfile,
                 transport: str = UDP) -> None:
        if transport not in (UDP, TCP):
            raise ValueError(f"unknown transport {transport!r}")
        self.sim = sim
        self.name = name
        self.profile = profile
        self.transport = transport
        self._jitter = LatencyJitter(sim.random.stream(f"stack:{name}"),
                                     profile.jitter_sigma)
        self._hiccup_rng = sim.random.stream(f"hiccup:{name}")
        #: payload size -> base send / receive cost.  Each is a pure
        #: function of the frozen profile and the transport, so it is
        #: computed once per size rather than once per packet.
        self._send_bases: Dict[int, int] = {}
        self._recv_bases: Dict[int, int] = {}

    def _tcp_extra(self) -> int:
        return TCP_EXTRA_PER_SIDE_NS if self.transport == TCP else 0

    def _send_base(self, payload_bytes: int) -> int:
        base = self._send_bases.get(payload_bytes)
        if base is None:
            base = self._send_bases[payload_bytes] = (
                self.profile.send_ns
                + round(payload_bytes * self.profile.copy_ns_per_byte)
                + self._tcp_extra())
        return base

    def send_cost(self, payload_bytes: int) -> int:
        """Cost of pushing one packet down the stack onto the NIC."""
        return self._jitter.sample(self._send_base(payload_bytes))

    def _recv_base(self, payload_bytes: int) -> int:
        base = self._recv_bases.get(payload_bytes)
        if base is None:
            base = self._recv_bases[payload_bytes] = (
                self.profile.recv_ns
                + round(payload_bytes * self.profile.copy_ns_per_byte)
                + self._tcp_extra())
        return base

    def recv_cost(self, payload_bytes: int) -> int:
        """Cost of raising one packet from the NIC into the stack."""
        return self._jitter.sample(self._recv_base(payload_bytes))

    # ------------------------------------------------------------------
    # Whole-request folding: a host may pre-draw one receive cost at
    # its frame's serialize end (an express arrival claim).  Revoking
    # the claim hands the draw back to the jitter stream, so the next
    # draw sees the value the unfolded timeline draws there — valid
    # because every competing draw site revokes the claim *before*
    # drawing, so at revocation the claim's draw is still the stream's
    # most recent.
    # ``send_cost``/``recv_cost`` draw only from the jitter stream (the
    # hiccup stream is dispatch-only), so one jitter factor is all a
    # claim consumed.
    # ------------------------------------------------------------------
    def claim_recv_cost(self, payload_bytes: int) -> Tuple[int, object]:
        """:meth:`recv_cost` drawn under a claim: the cost, and the token
        :meth:`revoke_recv_cost` takes to hand the draw back."""
        return self._jitter.sample_revocable(self._recv_base(payload_bytes))

    def revoke_recv_cost(self, token: object) -> None:
        """Undo the most recent :meth:`claim_recv_cost` draw in O(1)."""
        self._jitter.unread(token)

    def dispatch_cost(self) -> int:
        """Cost of waking the application thread for one request.

        This is where the latency tail lives: with probability
        ``hiccup_probability`` the wakeup is delayed by ``hiccup_ns``.
        """
        base = self._jitter.sample(self.profile.dispatch_ns)
        if (self.profile.hiccup_probability > 0.0
                and self._hiccup_rng.random() < self.profile.hiccup_probability):
            base += self.profile.hiccup_ns
        return base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HostStack {self.name} {self.profile.name}/{self.transport}>"
