"""MQTT 3.1.1 subset: packet types, bit-exact codec, topic matching.

Supported packets: CONNECT, CONNACK, PUBLISH (QoS 0 only), SUBSCRIBE
(single filter), SUBACK, PINGREQ, PINGRESP, DISCONNECT. No retained
messages, wills, auth or QoS above 0; clean sessions only.

Wire layout per packet: fixed header (type in the high nibble, flags in
the low nibble), remaining length as a 1-4 byte 7-bit little-endian
varint, then the variable header and payload. Strings are big-endian
uint16 length-prefixed UTF-8.

A PUBLISH is framed once per hop: each distinct topic is validated and
its wire prefix encoded once (a bounded cache shared by construction,
encoding and decoding), and a decoded PUBLISH keeps its frame when that
frame is canonical, so a broker can forward it byte for byte.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field

MAX_PAYLOAD = 256 * 1024  # artifact cap, bytes
MAX_REMAINING_LENGTH = 268_435_455
# largest frame we are willing to buffer: payload cap + topic + headers
_MAX_FRAME = MAX_PAYLOAD + 65_535 + 16

_TYPE_CONNECT = 1
_TYPE_PUBLISH = 3
_TYPE_SUBSCRIBE = 8
_TYPE_SUBACK = 9

# Distinct topics whose validated wire prefix (uint16 length + UTF-8) is
# cached; a peer that publishes to more topics than this only empties it.
# Lookups take no lock: every entry is a correct pair on its own.
TOPIC_CACHE_TOPICS = 256
_TOPIC_PREFIX: dict[str, bytes] = {}
_PREFIX_TOPIC: dict[bytes, str] = {}  # the same entries, keyed by prefix
_TOPIC_CACHE_LOCK = threading.Lock()
_PUBLISH_HEADER = bytes([_TYPE_PUBLISH << 4])


class PacketError(ValueError):
    """A packet violates its construction/encoding invariants."""


class ProtocolError(Exception):
    """Malformed wire data; the offending connection must be dropped."""


def _check_string(value, name: str) -> None:
    """The rule for every string a packet carries (a topic name, a filter or
    a client id): a non-empty str, no U+0000 [MQTT-1.5.3-2], and at most
    65,535 UTF-8 bytes; else PacketError naming it."""
    if not isinstance(value, str) or not value:
        raise PacketError(f"{name}: must be a non-empty string")
    if "\x00" in value:
        raise PacketError(f"{name}: NUL not allowed")
    if len(value.encode("utf-8")) > 65_535:
        raise PacketError(f"{name}: longer than 65535 bytes")


def validate_topic(topic: str) -> None:
    _check_string(topic, "topic")
    if "+" in topic or "#" in topic:
        raise PacketError(f"topic: wildcards not allowed in topic name {topic!r}")


def _topic_prefix(topic: str) -> bytes:
    """The wire prefix of a valid topic; PacketError if it is not valid."""
    prefix = _TOPIC_PREFIX.get(topic) if type(topic) is str else None
    if prefix is None:
        validate_topic(topic)
        prefix = _encode_string(topic)
        with _TOPIC_CACHE_LOCK:
            if len(_TOPIC_PREFIX) >= TOPIC_CACHE_TOPICS:
                _TOPIC_PREFIX.clear()
                _PREFIX_TOPIC.clear()
            _TOPIC_PREFIX[topic] = prefix
            _PREFIX_TOPIC[prefix] = topic
    return prefix


def validate_filter(filter_: str) -> None:
    _check_string(filter_, "filter")
    levels = filter_.split("/")
    for i, level in enumerate(levels):
        if "#" in level:
            if level != "#" or i != len(levels) - 1:
                raise PacketError(f"filter: '#' must be the whole final level in {filter_!r}")
        if "+" in level and level != "+":
            raise PacketError(f"filter: '+' must occupy a whole level in {filter_!r}")


@dataclass(frozen=True)
class Connect:
    client_id: str

    def __post_init__(self) -> None:
        _check_string(self.client_id, "client_id")


@dataclass(frozen=True)
class ConnAck:
    pass


@dataclass(frozen=True, init=False)
class Publish:
    topic: str
    payload: bytes = b""
    # the canonical frame this packet was decoded from; not part of its value
    frame: bytes | None = field(default=None, init=False, compare=False, repr=False)

    def __init__(self, topic: str, payload: bytes = b"") -> None:
        _topic_prefix(topic)  # validates a topic once and caches its prefix
        if type(payload) is not bytes:
            if not isinstance(payload, (bytes, bytearray)):
                raise PacketError("payload: must be bytes")
            payload = bytes(payload)
        if len(payload) > MAX_PAYLOAD:
            raise PacketError(f"payload: {len(payload)} bytes exceeds cap {MAX_PAYLOAD}")
        object.__setattr__(self, "topic", topic)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "frame", None)


@dataclass(frozen=True)
class Subscribe:
    packet_id: int
    filter: str

    def __post_init__(self) -> None:
        if not isinstance(self.packet_id, int) or not 1 <= self.packet_id <= 0xFFFF:
            raise PacketError(f"packet_id: {self.packet_id!r} not in 1..65535")
        validate_filter(self.filter)


@dataclass(frozen=True)
class SubAck:
    packet_id: int

    def __post_init__(self) -> None:
        if not isinstance(self.packet_id, int) or not 1 <= self.packet_id <= 0xFFFF:
            raise PacketError(f"packet_id: {self.packet_id!r} not in 1..65535")


@dataclass(frozen=True)
class PingReq:
    pass


@dataclass(frozen=True)
class PingResp:
    pass


@dataclass(frozen=True)
class Disconnect:
    pass


Packet = Connect | ConnAck | Publish | Subscribe | SubAck | PingReq | PingResp | Disconnect

# The one valid frame of each packet that has no fields. CONNACK answers a
# clean-session CONNECT: Session Present 0, reserved bits 0, return code 0.
# The decoder checks the first byte and the body, frame[2:], so any
# remaining-length form of these frames decodes.
_FIXED_FRAMES: dict[type, bytes] = {
    ConnAck: b"\x20\x02\x00\x00",
    PingReq: b"\xc0\x00",
    PingResp: b"\xd0\x00",
    Disconnect: b"\xe0\x00",
}


def encode_remaining_length(n: int) -> bytes:
    """7-bit little-endian varint used for the MQTT remaining length."""
    if not isinstance(n, int) or not 0 <= n <= MAX_REMAINING_LENGTH:
        raise PacketError(f"remaining length {n!r} out of range 0..{MAX_REMAINING_LENGTH}")
    out = bytearray()
    while True:
        byte = n % 128
        n //= 128
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_remaining_length(buf: bytes, offset: int) -> tuple[int, int] | None:
    """Decode the varint at ``offset``; None if more bytes are needed."""
    value = 0
    shift = 0
    for i in range(4):
        if offset + i >= len(buf):
            return None
        byte = buf[offset + i]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, i + 1
        shift += 7
    raise ProtocolError("remaining length longer than 4 bytes")


def _encode_string(s: str) -> bytes:
    data = s.encode("utf-8")
    return struct.pack(">H", len(data)) + data


def _read_string(body: bytes, offset: int, what: str) -> tuple[str, int]:
    if offset + 2 > len(body):
        raise ProtocolError(f"{what}: truncated length prefix")
    (length,) = struct.unpack_from(">H", body, offset)
    end = offset + 2 + length
    if end > len(body):
        raise ProtocolError(f"{what}: truncated string")
    try:
        return body[offset + 2 : end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"{what}: invalid UTF-8") from exc


def encode_packet(packet: Packet) -> bytes:
    """Serialize a packet; inverse of :func:`decode_packet`."""
    if isinstance(packet, Publish):  # QoS 0, no DUP, no RETAIN
        prefix = _topic_prefix(packet.topic)
        size = encode_remaining_length(len(prefix) + len(packet.payload))
        return _PUBLISH_HEADER + size + prefix + packet.payload
    frame = _FIXED_FRAMES.get(type(packet))
    if frame is not None:
        return frame
    if isinstance(packet, Connect):
        # protocol name, level 4, connect flags (clean session), keepalive 0
        var = _encode_string("MQTT") + bytes([0x04, 0x02, 0x00, 0x00])
        body = var + _encode_string(packet.client_id)
        head = bytes([_TYPE_CONNECT << 4])
    elif isinstance(packet, Subscribe):
        body = struct.pack(">H", packet.packet_id) + _encode_string(packet.filter) + b"\x00"
        head = bytes([(_TYPE_SUBSCRIBE << 4) | 0x02])
    elif isinstance(packet, SubAck):
        body = struct.pack(">H", packet.packet_id) + b"\x00"  # granted QoS 0
        head = bytes([_TYPE_SUBACK << 4])
    else:
        raise PacketError(f"unknown packet {packet!r}")
    return head + encode_remaining_length(len(body)) + body


def _decode_connect(flags: int, body: bytes) -> Connect:
    if flags != 0:
        raise ProtocolError("CONNECT: reserved flags set")
    name, offset = _read_string(body, 0, "CONNECT protocol name")
    if name != "MQTT":
        raise ProtocolError(f"CONNECT: unexpected protocol name {name!r}")
    if offset + 4 > len(body):
        raise ProtocolError("CONNECT: truncated variable header")
    level, connect_flags = body[offset], body[offset + 1]
    if level != 0x04:
        raise ProtocolError(f"CONNECT: unsupported protocol level {level}")
    if connect_flags != 0x02:
        raise ProtocolError("CONNECT: only clean sessions without will/auth are supported")
    client_id, offset = _read_string(body, offset + 4, "CONNECT client id")
    if offset != len(body):
        raise ProtocolError("CONNECT: trailing bytes")
    return Connect(client_id)


def _decode_publish(flags: int, frame: bytes, body_at: int) -> Publish:
    """The PUBLISH in ``frame``, whose body starts at ``body_at``.

    A cached topic is looked up by its wire prefix, so it is neither
    decoded nor validated again. The packet keeps ``frame`` when its
    remaining length is in the shortest form, the only one encode_packet
    writes.
    """
    if flags & 0x06:
        raise ProtocolError("PUBLISH: QoS above 0 is not supported")
    if flags != 0:
        raise ProtocolError("PUBLISH: DUP/RETAIN are not supported")
    topic_end = body_at + 2
    if topic_end > len(frame):
        raise ProtocolError("PUBLISH topic: truncated length prefix")
    topic_end += (frame[body_at] << 8) | frame[body_at + 1]
    topic = _PREFIX_TOPIC.get(frame[body_at:topic_end])
    if topic is None:
        topic, topic_end = _read_string(frame, body_at, "PUBLISH topic")
    packet = Publish(topic, frame[topic_end:])
    if body_at == 2 or frame[body_at - 1]:  # no zero high byte: the varint is minimal
        object.__setattr__(packet, "frame", frame)
    return packet


def _decode_subscribe(flags: int, body: bytes) -> Subscribe:
    if flags != 0x02:
        raise ProtocolError("SUBSCRIBE: flags must be 0010")
    if len(body) < 2:
        raise ProtocolError("SUBSCRIBE: truncated packet id")
    (packet_id,) = struct.unpack_from(">H", body, 0)
    filter_, offset = _read_string(body, 2, "SUBSCRIBE filter")
    if offset + 1 != len(body):
        raise ProtocolError("SUBSCRIBE: exactly one filter per packet is supported")
    if body[offset] != 0x00:
        raise ProtocolError("SUBSCRIBE: requested QoS must be 0")
    return Subscribe(packet_id, filter_)


def _decode_suback(flags: int, body: bytes) -> SubAck:
    if flags != 0:
        raise ProtocolError("SUBACK: reserved flags set")
    if len(body) != 3:
        raise ProtocolError("SUBACK: bad length")
    (packet_id,) = struct.unpack_from(">H", body, 0)
    if body[2] != 0x00:
        raise ProtocolError("SUBACK: unexpected return code")
    return SubAck(packet_id)


def decode_packet(buf: bytes) -> tuple[Packet, int] | None:
    """Decode one packet from the head of ``buf``.

    Returns (packet, consumed) leaving trailing bytes alone, or None when
    the buffer does not yet hold a complete packet. Raises ProtocolError
    on malformed data.
    """
    return _decode_at(buf, 0)


def _decode_at(buf: bytes | bytearray, start: int) -> tuple[Packet, int] | None:
    """Decode the packet at ``buf[start:]``: (packet, offset just past it) or None."""
    if start >= len(buf):
        return None
    ptype = buf[start] >> 4
    flags = buf[start] & 0x0F
    if ptype in (0, 15):
        raise ProtocolError(f"reserved packet type {ptype}")
    decoded = decode_remaining_length(buf, start + 1)
    if decoded is None:
        return None
    remaining, rl_len = decoded
    if remaining > _MAX_FRAME:
        raise ProtocolError(f"frame of {remaining} bytes exceeds cap")
    end = start + 1 + rl_len + remaining
    if len(buf) < end:
        return None
    try:  # a decoded field that breaks a packet invariant is bad wire data
        if ptype == _TYPE_PUBLISH:
            return _decode_publish(flags, bytes(buf[start:end]), 1 + rl_len), end
        body = bytes(buf[start + 1 + rl_len : end])
        if ptype == _TYPE_CONNECT:
            return _decode_connect(flags, body), end
        if ptype == _TYPE_SUBSCRIBE:
            return _decode_subscribe(flags, body), end
        if ptype == _TYPE_SUBACK:
            return _decode_suback(flags, body), end
        for cls, frame in _FIXED_FRAMES.items():  # the rest, each with one valid frame
            if frame[0] >> 4 == ptype:
                if buf[start] != frame[0] or body != frame[2:]:
                    raise ProtocolError(f"{cls.__name__}: bad flags or body")
                return cls(), end
    except PacketError as exc:
        raise ProtocolError(str(exc)) from exc
    raise ProtocolError(f"unsupported packet type {ptype}")


@dataclass
class PacketDecoder:
    """Incremental stream decoder; tolerant of arbitrary byte splits.

    Packets are decoded in place from the bytes passed in, or from the
    pending buffer when an earlier chunk left a partial packet; the
    consumed prefix is dropped once per call.
    """

    _buffer: bytearray = field(default_factory=bytearray)

    def feed(self, data: bytes) -> list[Packet]:
        buf = data
        if self._buffer:
            self._buffer.extend(data)
            buf = self._buffer
        packets: list[Packet] = []
        offset = 0
        try:
            while offset < len(buf) and (result := _decode_at(buf, offset)) is not None:
                packet, offset = result
                packets.append(packet)
        finally:  # after a ProtocolError too: the malformed packet's bytes stay pending
            if buf is self._buffer:
                del buf[:offset]
            elif offset < len(buf):
                self._buffer.extend(memoryview(buf)[offset:])
        return packets


def topic_matches(filter_: str, topic: str) -> bool:
    """Level-wise topic filter match.

    '+' matches exactly one level; a trailing '#' matches zero or more
    remaining levels. Inputs are assumed valid per the packet invariants.
    """
    flevels = filter_.split("/")
    tlevels = topic.split("/")
    for i, flevel in enumerate(flevels):
        if flevel == "#":
            return True
        if i >= len(tlevels):
            return False
        if flevel != "+" and flevel != tlevels[i]:
            return False
    return len(flevels) == len(tlevels)
