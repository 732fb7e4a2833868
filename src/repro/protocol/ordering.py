"""Server-side in-order delivery: reorder buffer and gap detection.

The PMNet protocol runs over UDP, so the server's PMNet library restores
per-session ordering (Fig 7): packets arriving out of order are buffered
until the gap fills; a persistent gap triggers a retransmission request;
recovery replays with stale SeqNums are dropped as duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.protocol.packet import PMNetPacket


@dataclass
class _SessionState:
    """Reorder state for one session."""

    expected_seq: int = 0
    pending: Dict[int, PMNetPacket] = field(default_factory=dict)


class ReorderBuffer:
    """Per-session reorder buffer with duplicate suppression.

    ``push`` returns the packets that became deliverable *in order*.
    ``missing`` reports the gaps (for Retrans generation).
    """

    def __init__(self) -> None:
        self._sessions: Dict[int, _SessionState] = {}
        self.duplicates_dropped = 0
        self.out_of_order_buffered = 0

    def _state(self, session_id: int) -> _SessionState:
        state = self._sessions.get(session_id)
        if state is None:
            state = _SessionState()
            self._sessions[session_id] = state
        return state

    # ------------------------------------------------------------------
    def push(self, packet: PMNetPacket) -> List[PMNetPacket]:
        """Accept one packet; return the newly deliverable in-order run."""
        state = self._state(packet.session_id)
        seq = packet.seq_num
        if seq < state.expected_seq or seq in state.pending:
            # Already delivered or already buffered: a duplicate from
            # retransmission or recovery replay (Fig 12 case 3).
            self.duplicates_dropped += 1
            return []
        if seq > state.expected_seq:
            state.pending[seq] = packet
            self.out_of_order_buffered += 1
            return []
        deliverable = [packet]
        state.expected_seq += 1
        while state.expected_seq in state.pending:
            deliverable.append(state.pending.pop(state.expected_seq))
            state.expected_seq += 1
        return deliverable

    # ------------------------------------------------------------------
    def missing(self, session_id: int) -> List[int]:
        """SeqNums currently blocking delivery for a session."""
        state = self._sessions.get(session_id)
        if state is None or not state.pending:
            return []
        highest_buffered = max(state.pending)
        return [seq for seq in range(state.expected_seq, highest_buffered)
                if seq not in state.pending]

    def has_gap(self, session_id: int) -> bool:
        return bool(self.missing(session_id))

    def expected_seq(self, session_id: int) -> int:
        """Next in-order SeqNum the server expects for a session.

        During recovery the server advertises this value so PMNet (or the
        recovery driver) can skip already-committed requests (Sec IV-E1).
        """
        return self._state(session_id).expected_seq

    def restore_session(self, session_id: int, expected_seq: int) -> None:
        """Reinstall a session's horizon from the persistent applied
        table after a crash (buffered packets were volatile and are gone)."""
        self._sessions[session_id] = _SessionState(expected_seq=expected_seq)

    def sessions(self) -> List[int]:
        return sorted(self._sessions)

    def snapshot(self) -> Dict[int, Tuple[int, List[int]]]:
        """Per-session (expected_seq, buffered seqs) — for tests/traces."""
        return {sid: (st.expected_seq, sorted(st.pending))
                for sid, st in self._sessions.items()}
