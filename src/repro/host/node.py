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
from repro.host.stackmodel import HostStack
from repro.net.device import Node, Port
from repro.net.packet import Frame
from repro.obs.registry import register_with_sim
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import NetworkProfile, StackProfile
    from repro.net.link import Channel
    from repro.net.topology import Topology
    from repro.sim.kernel import Simulator


class Endpoint(Protocol):
    """What a host delivers inbound frames to."""

    def on_frame(self, frame: Frame) -> None:  # pragma: no cover - protocol
        ...


class HostNode(Node):
    """One machine: NIC + stack + the application endpoint."""

    def arrival_extension(self, frame: Frame) -> None:
        """Retired with arrival extensions: always ``None``.  Kept as a
        name only for the benchmark's layer map."""
        return None

    def __init__(self, sim: "Simulator", name: str, stack: "HostStack") -> None:
        super().__init__(sim, name)
        self.stack = stack
        self.endpoint: Optional[Endpoint] = None
        self.frames_received = Counter(f"{name}.rx")
        self.frames_sent = Counter(f"{name}.tx")
        #: Generation counter: bumped on every failure so that callbacks
        #: scheduled before a crash do not leak into the recovered life.
        self.epoch = 0
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
        cost = self.stack.recv_cost(frame.payload_bytes)
        epoch = self.epoch
        self.sim.schedule(cost, self._deliver, frame, epoch)

    def _deliver(self, frame: Frame, epoch: int) -> None:
        if self.failed or epoch != self.epoch:
            return  # the packet died in the stack when the host crashed
        self.frames_received.value += 1
        if self.endpoint is not None:
            self.endpoint.on_frame(frame)

    # ------------------------------------------------------------------
    # Outbound: endpoint -> stack -> NIC
    # ------------------------------------------------------------------
    def send_frame(self, dst: str, payload: Any, payload_bytes: int,
                   udp_port: int) -> None:
        """Send one application packet; charges the stack send cost."""
        if self.failed:
            return
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


def add_host(topology: "Topology", name: str, stack: "StackProfile",
             transport: str, peer: Node, inbound: bool = False,
             profile: Optional["NetworkProfile"] = None) -> HostNode:
    """Stand up host ``name`` on ``topology`` and link it to ``peer``.

    The link runs host -> ``peer``, or ``peer`` -> host when ``inbound``;
    a link's direction names its channels, and chaos plans pick channels
    by index into ``topology.links``.  ``profile`` overrides the link's
    network profile.
    """
    sim = topology.sim
    host = HostNode(sim, name, HostStack(sim, name, stack, transport))
    topology.add(host)
    if inbound:
        topology.connect(peer, host, profile=profile)
    else:
        topology.connect(host, peer, profile=profile)
    return host
