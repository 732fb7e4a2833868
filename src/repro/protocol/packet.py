"""The PMNet packet: header plus payload plus fragment bookkeeping.

A *request* is the application-level unit (one update or read).  On the
wire it becomes one or more :class:`PMNetPacket` fragments, each with its
own ``SeqNum`` and ``HashVal`` (Sec IV-A3).  The packet also records which
client and server it travels between so devices can route derived ACKs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Dict

from repro.protocol.header import HEADER_BYTES, PMNetHeader
from repro.protocol.types import PacketType

_request_ids = itertools.count(1)


def next_request_id() -> int:
    """A process-unique id for a logical request."""
    return next(_request_ids)


def reset_request_ids(start: int = 1) -> None:
    """Restart the request-id sequence (fresh-simulation determinism).

    Request ids only need to be unique within one simulation; the
    counter is process-global purely for convenience.  Harnesses that
    promise bit-identical traces across repeated runs in one process
    (the chaos engine's seed replay) reset it before each deployment
    so ids — which appear in traces and violation reports — depend on
    the seed alone, not on how many runs preceded this one.
    """
    global _request_ids
    _request_ids = itertools.count(start)


@dataclass(slots=True)
class PMNetPacket:
    """One PMNet fragment as it travels through the fabric."""

    header: PMNetHeader
    payload: Any
    payload_bytes: int
    request_id: int
    client: str
    server: str
    frag_index: int = 0
    frag_count: int = 1
    #: Set on packets PMNet resends from its log during recovery, so the
    #: server knows to consult SeqNum for dedup (Sec IV-E1).
    resent: bool = False
    #: Which device generated this packet (PMNet-ACKs and cache responses);
    #: clients count distinct origins to enforce replication strength
    #: (Sec IV-C: wait for PMNet-ACK #1 *and* #2).
    origin_device: str = ""
    #: For CHAIN_UPDATE: the full replication chain, head first, tail
    #: last.  Each member finds its own position by name and forwards to
    #: the successor; SERVER_ACKs echo the chain so invalidation can walk
    #: it tail-to-head.
    chain: tuple = ()
    #: Set when a chain member could not log this fragment (log full /
    #: write queue saturated).  The tail then withholds its PMNET_ACK so
    #: a tail ACK always means *every* member holds a durable copy.
    chain_broken: bool = False
    # Header fields and the wire size, read on every hop: stored once at
    # construction (``header`` and ``payload_bytes`` are never assigned
    # afterwards) and left out of ``__eq__``/``__repr__``, since the
    # header and the payload size already decide them.
    packet_type: PacketType = field(init=False, repr=False, compare=False)
    session_id: int = field(init=False, repr=False, compare=False)
    seq_num: int = field(init=False, repr=False, compare=False)
    hash_val: int = field(init=False, repr=False, compare=False)
    #: Application-layer size: PMNet header plus payload.
    wire_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("payload size must be >= 0")
        if not 0 <= self.frag_index < self.frag_count:
            raise ValueError(
                f"fragment {self.frag_index}/{self.frag_count} out of range")
        header = self.header
        self.packet_type = header.packet_type
        self.session_id = header.session_id
        self.seq_num = header.seq_num
        self.hash_val = header.hash_val
        self.wire_bytes = HEADER_BYTES + self.payload_bytes

    # ------------------------------------------------------------------
    # Derived packets
    # ------------------------------------------------------------------
    def make_ack(self, packet_type: PacketType,
                 origin_device: str = "") -> "PMNetPacket":
        """A PMNet-ACK or server-ACK for this request fragment.

        The ACK keeps SessionID/SeqNum/HashVal so both the client library
        and any PMNet device on the path can identify the original packet.
        """
        if packet_type not in (PacketType.PMNET_ACK, PacketType.SERVER_ACK):
            raise ValueError(f"not an ACK type: {packet_type}")
        # Positional: every request derives two ACKs, and binding eleven
        # keyword arguments costs as much again as the construction.
        return PMNetPacket(self.header.with_type(packet_type), None, 0,
                           self.request_id, self.client, self.server,
                           self.frag_index, self.frag_count, False,
                           origin_device, self.chain)

    def make_response(self, payload: Any, payload_bytes: int,
                      from_cache: bool = False,
                      origin_device: str = "") -> "PMNetPacket":
        """The server's (or cache's) application response to this request."""
        packet_type = (PacketType.CACHE_RESP if from_cache
                       else PacketType.SERVER_RESP)
        # Positional for the same reason as ``make_ack``: one per read.
        return PMNetPacket(self.header.with_type(packet_type), payload,
                           payload_bytes, self.request_id, self.client,
                           self.server, 0, 1, False, origin_device)

    def as_resent(self) -> "PMNetPacket":
        """A copy marked as a recovery retransmission.

        Chain-routed updates are re-labelled as plain UPDATE_REQs: a
        recovery resend goes straight from the holding device to the
        server — re-walking the chain would re-log entries that are
        already replicated.  ``with_type`` keeps the HashVal, which is
        the UPDATE_REQ hash already (see ``make_request_header``).  The
        chain member list is *kept*: the server ACK derived from the
        resent copy must still carry it, so the tail can walk the
        invalidation back to members that are not on the server-to-
        client path (their scrubbers would otherwise redo the entry
        forever).
        """
        if self.packet_type is PacketType.CHAIN_UPDATE:
            return replace(self, resent=True,
                           header=self.header.with_type(PacketType.UPDATE_REQ),
                           chain_broken=False)
        return replace(self, resent=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PMNetPacket {self.packet_type.name} req={self.request_id} "
                f"sess={self.session_id} seq={self.seq_num} "
                f"frag={self.frag_index}/{self.frag_count}>")


@dataclass(slots=True)
class RetransRequest:
    """Payload of a RETRANS packet: which fragments the server is missing."""

    session_id: int
    missing_seq_nums: tuple[int, ...]
    #: HashVals of the missing packets, parallel to ``missing_seq_nums``;
    #: PMNet looks entries up by HashVal (Sec IV-B1).
    missing_hash_vals: tuple[int, ...] = field(default_factory=tuple)


@dataclass(slots=True)
class RecoveryPoll:
    """Payload of a RECOVERY_POLL: the recovering server's resume points.

    Maps SessionID to the next SeqNum the server expects (Sec IV-E1: the
    server polls PMNet "with the sequence number starting from the last
    packet it receives").
    """

    expected_seq: Dict[int, int] = field(default_factory=dict)
