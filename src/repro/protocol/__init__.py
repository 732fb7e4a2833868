"""The PMNet wire protocol: header, packet types, sessions, ordering."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.protocol.crc": ("crc32",),
    "repro.protocol.fragment": ("Reassembler", "fragment_request",
                                "max_fragment_payload"),
    "repro.protocol.header": ("HEADER_BYTES", "PMNetHeader",
                              "make_request_header"),
    "repro.protocol.ordering": ("ReorderBuffer",),
    "repro.protocol.packet": ("PMNetPacket", "RecoveryPoll",
                              "RetransRequest", "next_request_id"),
    "repro.protocol.session": ("Session", "SessionAllocator"),
    "repro.protocol.types": ("CLIENT_TO_SERVER", "TO_CLIENT", "PacketType",
                             "is_request"),
})

__all__ = [
    "crc32",
    "HEADER_BYTES", "PMNetHeader", "make_request_header",
    "PacketType", "is_request", "CLIENT_TO_SERVER", "TO_CLIENT",
    "PMNetPacket", "RetransRequest", "RecoveryPoll", "next_request_id",
    "Session", "SessionAllocator",
    "ReorderBuffer",
    "Reassembler", "fragment_request", "max_fragment_payload",
]
