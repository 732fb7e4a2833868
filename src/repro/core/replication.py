"""In-network replication: chains of PMNet devices (Sec IV-C, Fig 9).

Replication needs no new data-plane mechanism: placing N PMNet devices in
series means each one logs the same update-req as it passes through and
each sends its own PMNet-ACK; the client proceeds once it holds ACKs from
all N distinct devices, and the single server-ACK invalidates every log
on its way back.  :class:`ReplicationPolicy` expresses that policy; the
chain itself is a deployment path
(:func:`repro.experiments.deploy.wire_path`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReplicationPolicy:
    """How many distinct in-network persistence points a client requires.

    ``acks_required == 0`` is the baseline (wait for the server);
    ``1`` is plain PMNet; ``N > 1`` is N-way in-network replication.
    """

    acks_required: int = 1

    def __post_init__(self) -> None:
        if self.acks_required < 0:
            raise ValueError("acks_required must be >= 0")

    @property
    def uses_pmnet(self) -> bool:
        return self.acks_required > 0

    def satisfied_by(self, distinct_ack_origins: int) -> bool:
        """Whether a fragment with this many device ACKs is persistent."""
        return distinct_ack_origins >= self.acks_required


#: The baseline Client-Server policy: only the server's word counts.
NO_PMNET = ReplicationPolicy(acks_required=0)
#: Single-log PMNet (the common case).
SINGLE_LOG = ReplicationPolicy(acks_required=1)
