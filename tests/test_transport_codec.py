import random

import pytest

from conftest import random_packet
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
from wingman.transport.packets import MAX_PAYLOAD, decode_remaining_length, validate_filter, validate_topic


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
        assert decoder.pending_bytes() == 0


def test_malformed_packet_after_valid_ones_is_protocol_error():
    valid = b"".join(encode_packet(Publish("t", bytes([i]))) for i in range(3))
    malformed = bytes([0x32, 0x00])  # PUBLISH at QoS 1
    with pytest.raises(ProtocolError):
        PacketDecoder().feed(valid + malformed)

    decoder = PacketDecoder()
    assert decoder.feed(valid + malformed[:1]) == [Publish("t", bytes([i])) for i in range(3)]
    assert decoder.pending_bytes() == 1
    with pytest.raises(ProtocolError):
        decoder.feed(malformed[1:])
    assert decoder.pending_bytes() == len(malformed)  # the bad packet stays, so it fails again
    with pytest.raises(ProtocolError):
        decoder.feed(b"")


def test_one_large_chunk_decodes_every_packet():
    rng = random.Random(7)
    packets = [Publish(f"t/{i % 4}", rng.randbytes(rng.randint(0, 40))) for i in range(10_000)]
    stream = b"".join(encode_packet(p) for p in packets)
    decoder = PacketDecoder()
    assert decoder.feed(stream) == packets
    assert decoder.pending_bytes() == 0

    # a partial tail stays pending until the rest arrives
    assert decoder.feed(stream[:-3]) == packets[:-1]
    assert decoder.pending_bytes() == len(encode_packet(packets[-1])) - 3
    assert decoder.feed(stream[-3:]) == packets[-1:]
    assert decoder.pending_bytes() == 0
