"""Server-side replication: the Fig 21 baseline.

The primary server processes each update, then synchronously ships it
to the replica servers and waits for all of their acknowledgements
before acknowledging the client — the scheme PMNet's overlapped
in-network replication is compared against (Sec VI-B5).
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.common import ReplicaWait
from repro.host.server import PMNetServer
from repro.net.packet import Frame, RawPayload
from repro.protocol.packet import PMNetPacket
from repro.protocol.types import PacketType


class ReplicatingServer(PMNetServer):
    """A primary that commits to replicas before acknowledging updates."""

    def __init__(self, *args, replica_hosts: Optional[List[str]] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Committed updates' fragments awaiting their replica ACKs.
        self.replicas = ReplicaWait(self.host, replica_hosts or [],
                                    self._acknowledge)

    def _respond(self, fragments, outcome) -> None:
        first = fragments[0]
        if first.packet_type is not PacketType.UPDATE_REQ:
            super()._respond(fragments, outcome)
            return
        # Committed locally already (in _apply); delay the client ACK
        # until every replica has confirmed (Fig 9a, steps 6-8).
        self.replicas.ship(fragments, first.payload_bytes)

    def _makeup_ack(self, packet: PMNetPacket) -> None:
        # A retransmission is committed but its replicas may not hold it
        # (they may have been down): confirm them again before the ACK.
        self.makeup_acks.increment()
        self.replicas.ship([packet], packet.payload_bytes)

    def _acknowledge(self, fragments) -> None:
        for fragment in fragments:
            self._send_ack(fragment)

    def _handle_raw(self, frame: Frame, payload: RawPayload) -> None:
        if not self.replicas.on_raw(payload.data):
            super()._handle_raw(frame, payload)

    def crash(self) -> None:
        self.replicas.clear()
        super().crash()
