"""Unit tests for PMNetPacket and its derived packets."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.protocol.header import HEADER_BYTES, make_request_header
from repro.protocol.packet import PMNetPacket, next_request_id
from repro.protocol.types import (
    CLIENT_TO_SERVER,
    TO_CLIENT,
    PacketType,
    is_request,
)


def _packet(**overrides):
    defaults = dict(
        header=make_request_header(PacketType.UPDATE_REQ, 4, 9),
        payload="op", payload_bytes=100, request_id=next_request_id(),
        client="client3", server="server")
    defaults.update(overrides)
    return PMNetPacket(**defaults)


class TestPacketBasics:
    def test_wire_bytes_includes_header(self):
        assert _packet().wire_bytes == 100 + HEADER_BYTES

    def test_property_accessors(self):
        packet = _packet()
        assert packet.packet_type is PacketType.UPDATE_REQ
        assert packet.session_id == 4
        assert packet.seq_num == 9
        assert packet.hash_val == packet.header.hash_val

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            _packet(payload_bytes=-1)

    def test_fragment_index_bounds(self):
        with pytest.raises(ValueError):
            _packet(frag_index=2, frag_count=2)

    def test_request_ids_unique(self):
        assert next_request_id() != next_request_id()


class TestDerivedPackets:
    def test_ack_keeps_identity_and_origin(self):
        packet = _packet()
        ack = packet.make_ack(PacketType.PMNET_ACK, origin_device="pmnet1")
        assert ack.hash_val == packet.hash_val
        assert ack.session_id == packet.session_id
        assert ack.seq_num == packet.seq_num
        assert ack.origin_device == "pmnet1"
        assert ack.payload_bytes == 0
        assert ack.client == packet.client

    def test_ack_type_restricted(self):
        with pytest.raises(ValueError):
            _packet().make_ack(PacketType.RETRANS)

    def test_response_carries_payload(self):
        packet = _packet(header=make_request_header(
            PacketType.BYPASS_REQ, 1, 1))
        response = packet.make_response("value!", 64)
        assert response.packet_type is PacketType.SERVER_RESP
        assert response.payload == "value!"
        assert response.payload_bytes == 64

    def test_cache_response_type(self):
        response = _packet().make_response("v", 16, from_cache=True,
                                           origin_device="pmnet1")
        assert response.packet_type is PacketType.CACHE_RESP
        assert response.origin_device == "pmnet1"

    def test_ack_equals_keyword_construction(self):
        """The positional derivation fills every field as named."""
        packet = _packet(frag_index=1, frag_count=3, chain=("a", "b"),
                         resent=True, chain_broken=True)
        ack = packet.make_ack(PacketType.SERVER_ACK, origin_device="srv")
        assert ack == PMNetPacket(
            header=packet.header.with_type(PacketType.SERVER_ACK),
            payload=None, payload_bytes=0, request_id=packet.request_id,
            client=packet.client, server=packet.server, frag_index=1,
            frag_count=3, origin_device="srv", chain=("a", "b"))

    def test_response_equals_keyword_construction(self):
        packet = _packet(frag_index=1, frag_count=2, chain=("a",),
                         resent=True)
        response = packet.make_response("v", 16, origin_device="d")
        assert response == PMNetPacket(
            header=packet.header.with_type(PacketType.SERVER_RESP),
            payload="v", payload_bytes=16, request_id=packet.request_id,
            client=packet.client, server=packet.server, origin_device="d")

    def test_derived_response_size_validated(self):
        with pytest.raises(ValueError):
            _packet().make_response("v", -1)

    def test_as_resent_marks_copy(self):
        packet = _packet()
        resent = packet.as_resent()
        assert resent.resent and not packet.resent
        assert resent.header == packet.header


#: The packet fields stored from the header and payload size.
_STORED = ("packet_type", "session_id", "seq_num", "hash_val", "wire_bytes")


def _assert_stored_fields_match(packet):
    header = packet.header
    assert packet.packet_type is header.packet_type
    assert packet.session_id == header.session_id
    assert packet.seq_num == header.seq_num
    assert packet.hash_val == header.hash_val
    assert packet.wire_bytes == HEADER_BYTES + packet.payload_bytes


class TestStoredHeaderFields:
    """Header fields are stored once, at construction, on every path
    that builds a packet."""

    def test_construction(self):
        _assert_stored_fields_match(_packet())
        _assert_stored_fields_match(_packet(payload_bytes=0))

    @pytest.mark.parametrize("ack_type", [PacketType.PMNET_ACK,
                                          PacketType.SERVER_ACK])
    def test_make_ack(self, ack_type):
        _assert_stored_fields_match(_packet().make_ack(ack_type, "d"))

    @pytest.mark.parametrize("from_cache", [False, True])
    def test_make_response(self, from_cache):
        _assert_stored_fields_match(
            _packet().make_response("v", 64, from_cache=from_cache))

    @pytest.mark.parametrize("ptype", [PacketType.UPDATE_REQ,
                                       PacketType.CHAIN_UPDATE])
    def test_as_resent(self, ptype):
        packet = _packet(header=make_request_header(ptype, 2, 3),
                         chain=("a", "b"), chain_broken=True)
        resent = packet.as_resent()
        assert resent.packet_type is PacketType.UPDATE_REQ
        _assert_stored_fields_match(resent)

    def test_replace_chain_broken(self):
        packet = _packet(header=make_request_header(
            PacketType.CHAIN_UPDATE, 2, 3), chain=("a", "b"))
        broken = dataclasses.replace(packet, chain_broken=True)
        assert broken.chain_broken
        _assert_stored_fields_match(broken)

    def test_stored_fields_cannot_be_replaced(self):
        with pytest.raises(ValueError):
            dataclasses.replace(_packet(), seq_num=1)

    def test_equality_and_repr_ignore_stored_fields(self):
        by_name = {f.name: f for f in dataclasses.fields(PMNetPacket)}
        for name in _STORED:
            assert not by_name[name].compare and not by_name[name].repr
        packet = _packet()
        twin = dataclasses.replace(packet)
        assert twin == packet and repr(twin) == repr(packet)
        assert repr(packet) == (f"<PMNetPacket UPDATE_REQ "
                                f"req={packet.request_id} sess=4 seq=9 "
                                f"frag=0/1>")

    def test_nothing_assigns_header_after_construction(self):
        """The stored fields are only right while ``header`` and
        ``payload_bytes`` keep their constructed values: no source line
        may assign either, or a stored field, on an existing object."""
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        watched = {"header", "payload_bytes", *_STORED}

        def assigned(target):
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    yield from assigned(element)
            elif isinstance(target, ast.Starred):
                yield from assigned(target.value)
            else:
                yield target

        offenders = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "setattr" and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)
                      and node.args[1].value in watched):
                    offenders.append(f"{path}:{node.lineno}")
                    continue
                else:
                    continue
                for target in targets:
                    for leaf in assigned(target):
                        if (isinstance(leaf, ast.Attribute)
                                and leaf.attr in watched
                                and not (isinstance(leaf.value, ast.Name)
                                         and leaf.value.id == "self")):
                            offenders.append(f"{path}:{node.lineno}")
        assert offenders == []


class TestTypeSets:
    def test_request_predicate(self):
        assert is_request(PacketType.UPDATE_REQ)
        assert is_request(PacketType.BYPASS_REQ)
        assert not is_request(PacketType.SERVER_ACK)

    def test_direction_sets_disjoint(self):
        assert not (CLIENT_TO_SERVER & TO_CLIENT)
