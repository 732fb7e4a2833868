"""Server-side logging, the second alternative design (Fig 17b).

A dedicated, busy-polling logging module sits on the server between the
network stack and the application: it persists the incoming update to
the server's PM and acknowledges the client immediately, taking only
the *processing* time (not the server's network stack) off the critical
path.  With replication the module must first ship the record to the
replica servers and collect their ACKs, which roughly doubles the
critical path again (Fig 18's rightmost column).
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.common import ReplicaWait
from repro.host.server import PMNetServer
from repro.net.packet import Frame, RawPayload
from repro.protocol.packet import PMNetPacket
from repro.protocol.types import PacketType
from repro.sim.clock import microseconds

#: The busy-polling logging module's fixed per-request cost (no epoll
#: dispatch: it spins on the socket like the design in [56]).
LOGGING_MODULE_NS = microseconds(0.9)


class ServerLoggingServer(PMNetServer):
    """A PMNetServer with an early-acknowledging persistent write log."""

    def __init__(self, *args, replica_hosts: Optional[List[str]] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Logged update packets awaiting their replica ACKs.
        self.replicas = ReplicaWait(self.host, replica_hosts or [],
                                    self._send_ack)

    # ------------------------------------------------------------------
    def _handle_request(self, packet: PMNetPacket) -> None:
        if packet.packet_type is PacketType.UPDATE_REQ:
            # The logging module intercepts updates before the app
            # dispatch: persist, (replicate,) acknowledge early.
            log_cost = (LOGGING_MODULE_NS
                        + self.config.server_pm.write_latency_ns)
            self.sim.schedule(log_cost, self._logged, packet,
                              self.host.epoch)
        super()._handle_request(packet)

    def _logged(self, packet: PMNetPacket, epoch: int) -> None:
        if self.host.failed or epoch != self.host.epoch:
            return
        self.replicas.ship(packet, packet.payload_bytes)

    def _makeup_ack(self, packet: PMNetPacket) -> None:
        """No make-up ACK: the logging module acknowledges every update,
        retransmissions included, once its replicas hold it."""

    def _handle_raw(self, frame: Frame, payload: RawPayload) -> None:
        if not self.replicas.on_raw(payload.data):
            super()._handle_raw(frame, payload)

    def crash(self) -> None:
        self.replicas.clear()
        super().crash()

    # ------------------------------------------------------------------
    def _respond(self, fragments, outcome) -> None:
        """Suppress the update ACK — the logging module already sent it."""
        first = fragments[0]
        if first.packet_type is PacketType.UPDATE_REQ:
            return
        super()._respond(fragments, outcome)
