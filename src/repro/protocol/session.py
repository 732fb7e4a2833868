"""Client sessions: SessionID allocation and per-session SeqNum streams.

A session is one client connection's ordered request stream (Sec IV-A1).
``SessionID`` is 16 bits and globally unique across live sessions;
``SeqNum`` is a per-session 32-bit counter that the server uses to
restore ordering and to deduplicate recovery replays.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import SessionError

_MAX_SESSIONS = 0x10000


class Session:
    """One client session: an id plus a monotonically increasing SeqNum."""

    def __init__(self, session_id: int, client: str, server: str) -> None:
        if not 0 <= session_id < _MAX_SESSIONS:
            raise SessionError(f"SessionID out of range: {session_id}")
        self.session_id = session_id
        self.client = client
        self.server = server
        self._next_seq = 0
        self._next_read_seq = 0
        self.closed = False

    def next_seq_num(self) -> int:
        """Allocate the next *update* sequence number.

        Only update requests consume the ordered stream: the server
        replays updates in this order during recovery.  Reads must not
        share it — a read served by the in-network cache never reaches
        the server and would otherwise leave a permanent gap in the
        server's reorder buffer.
        """
        if self.closed:
            raise SessionError(
                f"session {self.session_id} is closed; cannot send")
        seq = self._next_seq
        if seq > 0xFFFF_FFFF:
            raise SessionError(f"session {self.session_id} exhausted SeqNum")
        self._next_seq += 1
        return seq

    def next_read_seq(self) -> int:
        """Allocate a sequence number from the unordered read stream.

        Reads are idempotent and unordered on the server; their SeqNum
        only individualizes the packet (HashVal input, ACK matching).
        """
        if self.closed:
            raise SessionError(
                f"session {self.session_id} is closed; cannot send")
        seq = self._next_read_seq
        self._next_read_seq += 1
        return seq

    def close(self) -> None:
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<Session {self.session_id} {self.client}->{self.server} {state}>"


class SessionAllocator:
    """Hands out unique SessionIDs across all clients of one deployment."""

    def __init__(self) -> None:
        self._next_id = 0
        self._live: Dict[int, Session] = {}

    def open(self, client: str, server: str) -> Session:
        """Open a new session between ``client`` and ``server``."""
        if len(self._live) >= _MAX_SESSIONS:
            raise SessionError("all 65536 SessionIDs are in use")
        while self._next_id in self._live:
            self._next_id = (self._next_id + 1) % _MAX_SESSIONS
        session = Session(self._next_id, client, server)
        self._live[self._next_id] = session
        self._next_id = (self._next_id + 1) % _MAX_SESSIONS
        return session

    def close(self, session: Session) -> None:
        """End a session and recycle its id."""
        session.close()
        self._live.pop(session.session_id, None)

    def get(self, session_id: int) -> Optional[Session]:
        return self._live.get(session_id)

    @property
    def live_count(self) -> int:
        return len(self._live)
