import dataclasses
import random
import struct
import sys
import threading

import pytest

from conftest import construction, random_packet
from wingman.transport import (
    ConnAck,
    Connect,
    Disconnect,
    PacketDecoder,
    PacketError,
    PingReq,
    PingResp,
    ProtocolError,
    Publish,
    SubAck,
    Subscribe,
    decode_packet,
    encode_packet,
    encode_remaining_length,
    topic_matches,
)
from wingman.transport import packets
from wingman.transport.packets import (
    _MAX_FRAME,
    MAX_PAYLOAD,
    decode_remaining_length,
    validate_filter,
    validate_topic,
)


def test_remaining_length_examples():
    assert encode_remaining_length(0) == bytes([0x00])
    assert encode_remaining_length(127) == bytes([0x7F])
    # 321 = 65 + 2*128 under the 7-bit little-endian continuation scheme
    assert encode_remaining_length(321) == bytes([0xC1, 0x02])
    assert encode_remaining_length(268_435_455) == bytes([0xFF, 0xFF, 0xFF, 0x7F])


def test_remaining_length_round_trip():
    rng = random.Random(1)
    values = [0, 1, 127, 128, 16383, 16384, 2_097_151, 2_097_152, 268_435_455]
    values += [rng.randrange(268_435_456) for _ in range(500)]
    for n in values:
        encoded = encode_remaining_length(n)
        assert 1 <= len(encoded) <= 4
        assert decode_remaining_length(encoded, 0) == (n, len(encoded))


def test_remaining_length_bounds():
    with pytest.raises(PacketError):
        encode_remaining_length(-1)
    with pytest.raises(PacketError):
        encode_remaining_length(268_435_456)
    with pytest.raises(ProtocolError):
        decode_remaining_length(bytes([0x80, 0x80, 0x80, 0x80, 0x01]), 0)
    assert decode_remaining_length(bytes([0x80]), 0) is None


def test_fixed_header_examples():
    assert encode_packet(PingReq()) == bytes([0xC0, 0x00])
    assert encode_packet(Disconnect()) == bytes([0xE0, 0x00])
    assert encode_packet(Publish("a", b"")) == bytes([0x30, 0x03, 0x00, 0x01, 0x61])
    assert encode_packet(PingResp()) == bytes([0xD0, 0x00])
    assert encode_packet(ConnAck()) == bytes([0x20, 0x02, 0x00, 0x00])


@pytest.mark.parametrize(
    "packet",
    [
        Connect("client-1"),
        ConnAck(),
        Publish("tagteam/pose", b'{"k":1}'),
        Publish("a/b/c", b""),
        Subscribe(1, "tagteam/#"),
        Subscribe(0xFFFF, "+/pose"),
        SubAck(42),
        PingReq(),
        PingResp(),
        Disconnect(),
    ],
)
def test_round_trip_each_variant(packet):
    data = encode_packet(packet)
    decoded, consumed = decode_packet(data)
    assert decoded == packet
    assert consumed == len(data)
    # trailing bytes stay untouched
    decoded2, consumed2 = decode_packet(data + b"\xc0\x00")
    assert decoded2 == packet
    assert consumed2 == len(data)


def test_round_trip_random_packets():
    rng = random.Random(2024)
    for _ in range(1000):
        packet = random_packet(rng)
        data = encode_packet(packet)
        decoded, consumed = decode_packet(data)
        assert decoded == packet
        assert consumed == len(data)


def test_truncated_input_needs_more_bytes():
    assert decode_packet(b"") is None
    assert decode_packet(bytes([0xC0])) is None
    publish = encode_packet(Publish("tagteam/pose", b"x" * 50))
    for cut in (1, 2, 5, len(publish) - 1):
        assert decode_packet(publish[:cut]) is None


def test_reserved_types_are_protocol_errors():
    with pytest.raises(ProtocolError):
        decode_packet(bytes([0xF0, 0x00]))
    with pytest.raises(ProtocolError):
        decode_packet(bytes([0x00, 0x00]))


def test_bad_flags_are_protocol_errors():
    publish = bytearray(encode_packet(Publish("a", b"x")))
    publish[0] = 0x32  # QoS 1
    with pytest.raises(ProtocolError):
        decode_packet(bytes(publish))
    publish[0] = 0x31  # RETAIN
    with pytest.raises(ProtocolError):
        decode_packet(bytes(publish))
    subscribe = bytearray(encode_packet(Subscribe(1, "a")))
    subscribe[0] = 0x80  # missing the mandated 0010 flags
    with pytest.raises(ProtocolError):
        decode_packet(bytes(subscribe))
    ping = bytearray(encode_packet(PingReq()))
    ping[0] = 0xC1
    with pytest.raises(ProtocolError):
        decode_packet(bytes(ping))


@pytest.mark.parametrize(
    "packet, long_form, bad_frames",
    [
        (ConnAck(), "20 82 00 00 00", ["21 02 00 00", "20 02 01 00", "20 02 fe 00", "20 02 00 01", "20 01 00", "20 00"]),
        (PingReq(), "c0 80 00", ["c1 00", "c8 00", "c0 01 00"]),
        (PingResp(), "d0 80 80 80 00", ["d2 00", "d0 01 ff"]),
        (Disconnect(), "e0 80 80 00", ["e4 00", "e0 02 00 00"]),
    ],
    ids=["CONNACK", "PINGREQ", "PINGRESP", "DISCONNECT"],
)
def test_fieldless_packets_have_one_frame_in_any_length_form(packet, long_form, bad_frames):
    long = bytes.fromhex(long_form)  # a remaining length longer than it needs to be
    assert decode_packet(long) == (packet, len(long))
    for bad in bad_frames:  # other flags, or another body
        with pytest.raises(ProtocolError):
            decode_packet(bytes.fromhex(bad))


def test_invalid_utf8_topic_is_protocol_error():
    raw = bytes([0x30, 0x05, 0x00, 0x03, 0xFF, 0xFE, 0x61])
    with pytest.raises(ProtocolError):
        decode_packet(raw)


def test_wildcard_topic_on_wire_is_protocol_error():
    raw = bytes([0x30, 0x03, 0x00, 0x01]) + b"#"
    with pytest.raises(ProtocolError):
        decode_packet(raw)


def test_payload_cap():
    with pytest.raises(PacketError):
        Publish("a", b"x" * (MAX_PAYLOAD + 1))
    assert Publish("a", b"x" * 100).payload == b"x" * 100


@dataclasses.dataclass(frozen=True)
class DataclassPublish:
    """Publish with the dataclass constructor and a ``__post_init__`` check:
    the reference for its plain constructor."""

    topic: str
    payload: bytes = b""
    frame: bytes | None = dataclasses.field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        packets._topic_prefix(self.topic)
        if not isinstance(self.payload, (bytes, bytearray)):
            raise PacketError("payload: must be bytes")
        if len(self.payload) > MAX_PAYLOAD:
            raise PacketError(f"payload: {len(self.payload)} bytes exceeds cap {MAX_PAYLOAD}")
        if type(self.payload) is not bytes:
            object.__setattr__(self, "payload", bytes(self.payload))


class Blob(bytes):
    pass


PUBLISH_ARGS = [
    ("t",),
    ("t", b""),
    ("tagteam/pose", b'{"k":1}'),
    ("a/b", bytearray(b"xy")),
    ("a/b", Blob(b"xy")),
    ("\u00e9/\u4e2d", b"x"),
    ("t", b"x" * MAX_PAYLOAD),
    ("t", bytearray(MAX_PAYLOAD)),
    ("t", b"x" * (MAX_PAYLOAD + 1)),
    ("t", bytearray(MAX_PAYLOAD + 1)),
    *(("t", payload) for payload in ("text", 5, None, memoryview(b"x"), [1])),
    *((topic, b"x") for topic in ("", "a/+", "a/#", "#", "a\x00b", 5, None, "x" * 65_536, "\u00e9" * 32_768)),
    ("", 5),
]


@pytest.mark.parametrize("args", PUBLISH_ARGS)
def test_publish_constructor_matches_the_dataclass_one(args):
    made = construction(DataclassPublish, *args)
    assert construction(Publish, *args) == made
    assert construction(Publish, **dict(zip(("topic", "payload"), args))) == made
    if isinstance(made[0], type):
        return
    packet, reference = Publish(*args), DataclassPublish(*args)
    assert type(packet.payload) is bytes and packet.frame is None
    assert packet == Publish(*args) and hash(packet) == hash(Publish(*args)) and packet != reference
    for changes in ({"payload": bytearray(b"y")}, {"topic": "u"}, {"topic": "a/+"}, {"frame": b"f"}):
        assert construction(dataclasses.replace, packet, **changes) == construction(
            dataclasses.replace, reference, **changes
        )
    with pytest.raises(dataclasses.FrozenInstanceError):
        packet.payload = b""
    # a decoded packet keeps its frame, which is no part of its value
    decoded, _ = decode_packet(encode_packet(packet))
    assert decoded.frame == encode_packet(packet)
    assert decoded == packet and hash(decoded) == hash(packet) and repr(decoded) == repr(packet)
    assert dataclasses.replace(decoded, topic="u").frame is None


def test_topic_validation():
    validate_topic("tagteam/pose")
    for bad in ["", "a/+", "#", "a#b", "a\x00b"]:
        with pytest.raises(PacketError):
            validate_topic(bad)


def test_filter_validation():
    for good in ["tagteam/pose", "tagteam/#", "#", "+", "+/+", "a/+/c"]:
        validate_filter(good)
    for bad in ["", "a/#/b", "#/a", "a+/b", "a/b#", "a\x00b"]:
        with pytest.raises(PacketError):
            validate_filter(bad)


@pytest.mark.parametrize("client_id, text", [
    ("a\x00b", "client_id: NUL not allowed"),
    ("", "client_id: must be a non-empty string"),
    (5, "client_id: must be a non-empty string"),
    ("x" * 65_536, "client_id: longer than 65535 bytes"),
    ("\u00e9" * 32_768, "client_id: longer than 65535 bytes"),
])
def test_client_id_validation(client_id, text):
    with pytest.raises(PacketError) as caught:
        Connect(client_id)
    assert str(caught.value) == text


def test_connect_with_a_nul_in_its_client_id_is_protocol_error():
    # [MQTT-1.5.3-2]: a receiver closes the connection on a string holding U+0000
    frame = encode_packet(Connect("abc"))
    assert frame.endswith(b"\x00\x03abc") and PacketDecoder().feed(frame) == [Connect("abc")]
    with pytest.raises(ProtocolError, match="^client_id: NUL not allowed$"):
        PacketDecoder().feed(frame[:-3] + b"a\x00c")


def test_topic_matches_examples():
    assert topic_matches("tagteam/pose", "tagteam/pose")
    assert topic_matches("tagteam/#", "tagteam/cues/left")
    assert not topic_matches("tagteam/+", "tagteam/a/b")
    assert topic_matches("tagteam/+", "tagteam/pose")
    assert topic_matches("tagteam/#", "tagteam")  # '#' covers the parent level
    assert not topic_matches("+", "a/b")
    assert not topic_matches("tagteam/pose", "tagteam/cues")


def test_multilevel_wildcard_matches_every_topic():
    rng = random.Random(3)
    from conftest import random_topic

    for _ in range(500):
        assert topic_matches("#", random_topic(rng))


def test_chunked_stream_reframing_equivalence():
    rng = random.Random(99)
    packets = [random_packet(rng) for _ in range(200)]
    stream = b"".join(encode_packet(p) for p in packets)

    whole = PacketDecoder().feed(stream)
    assert whole == packets

    for trial in range(20):
        decoder = PacketDecoder()
        out = []
        i = 0
        while i < len(stream):
            step = rng.randint(1, 37)
            out.extend(decoder.feed(stream[i : i + step]))
            i += step
        assert out == packets
        assert len(decoder._buffer) == 0


def test_malformed_packet_after_valid_ones_is_protocol_error():
    valid = b"".join(encode_packet(Publish("t", bytes([i]))) for i in range(3))
    malformed = bytes([0x32, 0x00])  # PUBLISH at QoS 1
    with pytest.raises(ProtocolError):
        PacketDecoder().feed(valid + malformed)

    decoder = PacketDecoder()
    assert decoder.feed(valid + malformed[:1]) == [Publish("t", bytes([i])) for i in range(3)]
    assert len(decoder._buffer) == 1
    with pytest.raises(ProtocolError):
        decoder.feed(malformed[1:])
    assert len(decoder._buffer) == len(malformed)  # the bad packet stays, so it fails again
    with pytest.raises(ProtocolError):
        decoder.feed(b"")


def test_one_large_chunk_decodes_every_packet():
    rng = random.Random(7)
    packets = [Publish(f"t/{i % 4}", rng.randbytes(rng.randint(0, 40))) for i in range(10_000)]
    stream = b"".join(encode_packet(p) for p in packets)
    decoder = PacketDecoder()
    assert decoder.feed(stream) == packets
    assert len(decoder._buffer) == 0

    # a partial tail stays pending until the rest arrives
    assert decoder.feed(stream[:-3]) == packets[:-1]
    assert len(decoder._buffer) == len(encode_packet(packets[-1])) - 3
    assert decoder.feed(stream[-3:]) == packets[-1:]
    assert len(decoder._buffer) == 0


def reference_decode_publish(buf: bytes) -> tuple[Publish, int] | None:
    """PUBLISH decoding without the topic cache: every topic decoded and validated in full."""
    if not buf:
        return None
    assert buf[0] >> 4 == 3
    flags = buf[0] & 0x0F
    decoded = decode_remaining_length(buf, 1)
    if decoded is None:
        return None
    remaining, rl_len = decoded
    if remaining > _MAX_FRAME:
        raise ProtocolError("frame exceeds cap")
    end = 1 + rl_len + remaining
    if len(buf) < end:
        return None
    body = bytes(buf[1 + rl_len : end])
    if flags != 0:
        raise ProtocolError("PUBLISH: flags set")
    if len(body) < 2:
        raise ProtocolError("PUBLISH topic: truncated length prefix")
    (length,) = struct.unpack_from(">H", body, 0)
    if 2 + length > len(body):
        raise ProtocolError("PUBLISH topic: truncated string")
    try:
        topic = body[2 : 2 + length].decode("utf-8")
        validate_topic(topic)
        return Publish(topic, body[2 + length :]), end
    except (UnicodeDecodeError, PacketError) as exc:
        raise ProtocolError(str(exc)) from exc


def raw_publish(
    topic: bytes, payload: bytes, flags: int = 0, pad: int = 0, topic_length: int | None = None
) -> bytes:
    """A PUBLISH frame from raw parts; ``pad`` zero bytes make its remaining length non-minimal."""
    length = len(topic) if topic_length is None else topic_length
    body = struct.pack(">H", length) + topic + payload
    varint = bytearray(encode_remaining_length(len(body)))
    for _ in range(pad):
        varint[-1] |= 0x80
        varint.append(0x00)
    return bytes([0x30 | flags]) + bytes(varint) + body


def decode_outcome(decode, data: bytes):
    try:
        return decode(data)
    except ProtocolError:
        return "ProtocolError"


def with_byte(topic: bytes, rng: random.Random, byte: bytes) -> bytes:
    i = rng.randrange(len(topic))
    return topic[:i] + byte + topic[i + 1 :]


_MUTATIONS = {
    "dup": lambda t, p, rng: raw_publish(t, p, flags=0x08),
    "qos": lambda t, p, rng: raw_publish(t, p, flags=rng.choice([0x02, 0x04, 0x06])),
    "retain": lambda t, p, rng: raw_publish(t, p, flags=0x01),
    "wildcard": lambda t, p, rng: raw_publish(with_byte(t, rng, rng.choice([b"+", b"#"])), p),
    "nul": lambda t, p, rng: raw_publish(with_byte(t, rng, b"\x00"), p),
    "empty topic": lambda t, p, rng: raw_publish(b"", p),
    "invalid utf-8": lambda t, p, rng: raw_publish(with_byte(t, rng, bytes([rng.choice([0x80, 0xC3, 0xFF])])), p),
    "truncated topic length": lambda t, p, rng: bytes([0x30, 0x01, rng.randrange(256)]),
    "topic length past the frame": lambda t, p, rng: raw_publish(
        t, p, topic_length=len(t) + len(p) + rng.randint(1, 3)
    ),
    "non-minimal remaining length": lambda t, p, rng: raw_publish(
        t, p, pad=rng.randint(1, 4 - len(encode_remaining_length(2 + len(t) + len(p))))
    ),
}


def random_publish_parts(rng: random.Random) -> tuple[bytes, bytes]:
    if rng.random() < 0.5:  # a few topics that recur, so most of their decodes hit the topic cache
        topic = rng.choice(["tagteam/pose", "tagteam/detections", "a", "é/中"])
    else:
        from conftest import random_topic

        topic = random_topic(rng) + rng.choice(["", "/é", "/中"])
    size = rng.choice([0, 1, 100, 150, 300, 17_000])
    return topic.encode("utf-8"), rng.randbytes(rng.randint(0, size))


def assert_decodes_as_reference(data: bytes) -> None:
    got = decode_outcome(decode_packet, data)
    assert got == decode_outcome(reference_decode_publish, data), data[:40]
    if isinstance(got, tuple):
        packet, end = got
        varint_end = 1 + decode_remaining_length(data, 1)[1]
        canonical = varint_end == 2 or data[varint_end - 1] != 0
        assert packet.frame == (data[:end] if canonical else None)


def test_publish_decode_matches_reference_on_valid_frames():
    rng = random.Random(404)
    for _ in range(2000):
        data = raw_publish(*random_publish_parts(rng))
        assert_decodes_as_reference(data)
        assert_decodes_as_reference(data + encode_packet(PingReq()))  # trailing bytes stay
        assert_decodes_as_reference(data[: rng.randrange(len(data))])  # a cut frame needs more bytes


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_publish_decode_matches_reference_on_single_faults(mutation):
    rng = random.Random(mutation)
    for _ in range(300):
        topic, payload = random_publish_parts(rng)
        assert_decodes_as_reference(raw_publish(topic, payload))  # the topic may now be cached
        assert_decodes_as_reference(_MUTATIONS[mutation](topic, payload, rng))


def test_publish_decode_matches_reference_over_the_payload_cap():
    for topic in (b"tagteam/pose", b"cap/uncached"):
        for payload_size in (MAX_PAYLOAD, MAX_PAYLOAD + 1):
            data = raw_publish(topic, bytes(payload_size))
            assert_decodes_as_reference(data)
        assert decode_outcome(decode_packet, data) == "ProtocolError"
    # a remaining length above the frame cap is refused before the frame arrives
    head = bytes([0x30]) + encode_remaining_length(_MAX_FRAME + 1)
    assert decode_outcome(decode_packet, head) == decode_outcome(reference_decode_publish, head)
    assert decode_outcome(decode_packet, head) == "ProtocolError"


def test_topic_cache_stays_paired_and_capped_under_threads(monkeypatch):
    monkeypatch.setattr(packets, "TOPIC_CACHE_TOPICS", 4)  # a clear every few inserts
    sizes = []

    def construct(worker: int) -> None:
        for i in range(3000):
            Publish(f"w{worker}/{i % 700}", b"")
            sizes.append(max(len(packets._TOPIC_PREFIX), len(packets._PREFIX_TOPIC)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=construct, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert max(sizes) <= 4
    assert {prefix: topic for topic, prefix in packets._TOPIC_PREFIX.items()} == packets._PREFIX_TOPIC
