import dataclasses
import json
import math
import random
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import parse, random_wire_vec3
from wingman import protocol
from wingman.agents import DroneAgent
from wingman.cueing import AttentionModel, CueEngine
from wingman.follower import FollowerConfig, FollowerLoop
from wingman.geometry import FrameId, Pose, Vec3
from wingman.protocol import (
    TOPIC_CMD,
    TOPIC_CUES,
    TOPIC_DETECTIONS,
    TOPIC_POSE,
    CommandMsg,
    CueMsg,
    DetachMsg,
    DetectionMsg,
    PoseMsg,
    RoutingError,
    ValidationError,
    canonical_json,
    decode_message,
    encode_message,
    format_float,
    wire_float,
)


def wire(rng, scale=10.0):
    return wire_float(rng.uniform(-scale, scale))


def make_pose_msg(rng: random.Random) -> PoseMsg:
    pose = Pose(
        random_wire_vec3(rng),
        wire_float(rng.uniform(-3.0, 3.0)),
        FrameId.WEARABLE,
        wire_float(rng.uniform(0, 1000)),
    )
    return PoseMsg(f"src-{rng.randrange(5)}", pose, rng.randrange(2**32))


def make_command_msg(rng: random.Random) -> CommandMsg:
    return CommandMsg(
        random_wire_vec3(rng),
        wire_float(rng.uniform(-3.0, 3.0)),
        wire_float(rng.uniform(0.01, 5.0)),
        rng.randrange(2**32),
    )


def make_detach_msg(rng: random.Random) -> DetachMsg:
    waypoints = tuple(random_wire_vec3(rng) for _ in range(rng.randint(1, 5)))
    return DetachMsg(waypoints, rng.randrange(2**32))


def make_detection_msg(rng: random.Random) -> DetectionMsg:
    return DetectionMsg(
        f"obj-{rng.randrange(9)}",
        rng.choice(["chair", "person", ""]),
        random_wire_vec3(rng),
        wire_float(rng.uniform(0, 1)),
        wire_float(rng.uniform(0, 500)),
    )


def make_cue_msg(rng: random.Random) -> CueMsg:
    return CueMsg(
        f"obj-{rng.randrange(9)}",
        "chair",
        wire_float(rng.uniform(0, 10)),
        wire_float(rng.uniform(-3.1, 3.1)),
        rng.random() < 0.5,
        wire_float(rng.uniform(0, 500)),
    )


@pytest.mark.parametrize(
    "topic,factory",
    [
        (TOPIC_POSE, make_pose_msg),
        (TOPIC_CMD, make_command_msg),
        (TOPIC_CMD, make_detach_msg),
        (TOPIC_DETECTIONS, make_detection_msg),
        (TOPIC_CUES, make_cue_msg),
    ],
)
def test_round_trip_identity_on_wire_precision_messages(topic, factory):
    # round-trip identity holds on the canonical (wire-precision) domain
    rng = random.Random(11)
    for _ in range(300):
        msg = factory(rng)
        assert parse(topic, encode_message(msg)) == msg


def test_encode_is_deterministic_and_injective_on_samples():
    rng = random.Random(12)
    messages = [make_pose_msg(rng) for _ in range(200)]
    encodings = [encode_message(m) for m in messages]
    assert encodings == [encode_message(m) for m in messages]
    for a, enc_a in zip(messages, encodings):
        for b, enc_b in zip(messages, encodings):
            if enc_a == enc_b:
                assert a == b  # byte equality implies message equality


def test_canonical_bytes_golden_sample():
    msg = PoseMsg("w", Pose(Vec3(1.5, 0.0, -2.25), 0.5, FrameId.WEARABLE, 1.5), 7)
    expected = (
        b'{"v":1,"source_id":"w","sequence":7,"pose":'
        b'{"frame":"wearable","x":1.5,"y":0,"z":-2.25,"yaw":0.5,"timestamp":1.5}}'
    )
    assert encode_message(msg) == expected


def written(msg, key):
    """The text that ``encode_message(msg)`` writes for the field ``key``."""
    return re.search(f'"{key}":([^,}}]*)', encode_message(msg).decode()).group(1)


def test_float_fields_render_as_the_generic_dumper_does():
    class Half(float):
        def __format__(self, spec):
            return "half"

    values = [0.0, -0.0, 1 / 3, 1e-300, 1.5e300, 12345678901.5, 7, 10**12, Half(0.5), np.float64(2 / 3)]
    for value in values:
        assert written(CueMsg("a", "box", value, 0.0, True, 1.5), "distance") == canonical_json(value), value
    for value in (True, False):
        assert written(CueMsg("a", "box", 1.0, 0.0, value, 1.5), "blind_spot") == canonical_json(value), value
    assert canonical_json(Half(0.5)) == "0.5"


def test_float_formatting_is_nine_significant_digits():
    assert format_float(1.0 / 3.0) == "0.333333333"
    assert format_float(2.0) == "2"
    assert format_float(0.1) == "0.1"
    assert wire_float(1.0 / 3.0) == 0.333333333
    assert wire_float(wire_float(123.456789123)) == wire_float(123.456789123)


def test_unknown_topic_is_routing_error():
    with pytest.raises(RoutingError):
        decode_message("tagteam/unknown", b"{}")


def test_missing_field_names_the_field():
    msg = make_pose_msg(random.Random(1))
    doc = json.loads(encode_message(msg))
    del doc["sequence"]
    with pytest.raises(ValidationError, match="sequence"):
        decode_message(TOPIC_POSE, json.dumps(doc).encode())


def test_extra_field_names_the_field():
    msg = make_pose_msg(random.Random(2))
    doc = json.loads(encode_message(msg))
    doc["bonus"] = 1
    with pytest.raises(ValidationError, match="bonus"):
        decode_message(TOPIC_POSE, json.dumps(doc).encode())


def test_ill_typed_field_names_the_field():
    msg = make_pose_msg(random.Random(3))
    doc = json.loads(encode_message(msg))
    doc["sequence"] = "seven"
    with pytest.raises(ValidationError, match="sequence"):
        decode_message(TOPIC_POSE, json.dumps(doc).encode())
    doc = json.loads(encode_message(msg))
    doc["pose"]["x"] = True
    with pytest.raises(ValidationError, match="x"):
        decode_message(TOPIC_POSE, json.dumps(doc).encode())


def test_version_field_is_required_and_checked():
    msg = make_pose_msg(random.Random(4))
    doc = json.loads(encode_message(msg))
    del doc["v"]
    with pytest.raises(ValidationError, match="v"):
        decode_message(TOPIC_POSE, json.dumps(doc).encode())
    doc["v"] = 2
    with pytest.raises(ValidationError, match="v"):
        decode_message(TOPIC_POSE, json.dumps(doc).encode())


def test_unknown_command_kind_is_validation_error():
    with pytest.raises(ValidationError, match="kind"):
        decode_message(TOPIC_CMD, b'{"v":1,"kind":"hover","sequence":0}')


def test_pose_frame_must_be_wearable():
    msg = make_pose_msg(random.Random(5))
    doc = json.loads(encode_message(msg))
    doc["pose"]["frame"] = "drone"
    with pytest.raises(ValidationError, match="frame"):
        decode_message(TOPIC_POSE, json.dumps(doc).encode())
    with pytest.raises(ValidationError):
        PoseMsg("w", Pose(Vec3(), 0.0, FrameId.DRONE, 0.0), 0)


def test_value_range_validation():
    with pytest.raises(ValidationError, match="speed"):
        CommandMsg(Vec3(), 0.0, 0.0, 0)
    with pytest.raises(ValidationError, match="speed"):
        CommandMsg(Vec3(), 0.0, -1.0, 0)
    with pytest.raises(ValidationError, match="speed"):
        CommandMsg(Vec3(), 0.0, float("nan"), 0)
    with pytest.raises(ValidationError, match="confidence"):
        DetectionMsg("o", "l", Vec3(), 1.5, 0.0)
    with pytest.raises(ValidationError, match="distance"):
        CueMsg("o", "l", -0.1, 0.0, False, 0.0)
    with pytest.raises(ValidationError, match="waypoints"):
        DetachMsg((), 0)
    with pytest.raises(ValidationError, match="sequence"):
        CommandMsg(Vec3(), 0.0, 1.0, -1)
    with pytest.raises(ValidationError, match="sequence"):
        CommandMsg(Vec3(), 0.0, 1.0, 2**64)
    assert CommandMsg(Vec3(), 0.0, 1.0, 2**64 - 1).sequence == 2**64 - 1


def test_decoded_range_violations_error():
    with pytest.raises(ValidationError, match="confidence"):
        decode_message(
            TOPIC_DETECTIONS,
            b'{"v":1,"object_id":"o","label":"l","x":0,"y":0,"z":0,"confidence":2,"timestamp":0}',
        )
    with pytest.raises(ValidationError, match="speed"):
        decode_message(TOPIC_CMD, b'{"v":1,"kind":"move","sequence":0,"x":0,"y":0,"z":0,"yaw":0,"speed":0}')


def test_cue_azimuth_normalized_on_construction():
    cue = CueMsg("o", "l", 1.0, 7.0, False, 0.0)
    assert -math.pi < cue.azimuth <= math.pi
    assert cue.azimuth == pytest.approx(7.0 - 2 * math.pi, abs=1e-12)


def test_invalid_json_is_validation_error():
    with pytest.raises(ValidationError):
        decode_message(TOPIC_POSE, b"not json")
    with pytest.raises(ValidationError):
        decode_message(TOPIC_POSE, b"[1,2,3]")


def test_docs_examples_round_trip_and_int_values_pin_bytes():
    docs = (Path(__file__).resolve().parents[1] / "docs" / "protocol.md").read_text(encoding="utf-8")
    examples = re.findall(r"^### \w+ — `(tagteam/\w+)`.*?```json\n(.*?)```", docs, re.S | re.M)
    assert [topic for topic, _ in examples] == [TOPIC_POSE, TOPIC_CMD, TOPIC_CMD, TOPIC_DETECTIONS, TOPIC_CUES]
    for topic, example in examples:
        payload = "".join(example.split()).encode()
        assert encode_message(decode_message(topic, payload)) == payload
    assert encode_message(CommandMsg(Vec3(1, 0, -2), 3, 2, 5)) == (
        b'{"v":1,"kind":"move","sequence":5,"x":1,"y":0,"z":-2,"yaw":3,"speed":2}'
    )
    assert encode_message(DetectionMsg("a", "b", Vec3(1, 2, 3), 1, 4)) == (
        b'{"v":1,"object_id":"a","label":"b","x":1,"y":2,"z":3,"confidence":1,"timestamp":4}'
    )


def test_nested_rejects_name_the_field():
    doc = json.loads(encode_message(make_pose_msg(random.Random(6))))
    doc["pose"]["bonus"] = 1
    with pytest.raises(ValidationError, match="^bonus: unexpected field"):
        decode_message(TOPIC_POSE, json.dumps(doc).encode())
    detach = DetachMsg((Vec3(1.0, 0.0, 2.0), Vec3(3.0, 0.0, 4.0)), 0)
    doc = json.loads(encode_message(detach))
    doc["waypoints"][1] = [3, 0, 4]
    with pytest.raises(ValidationError, match=re.escape("waypoints[1]: expected an object")):
        decode_message(TOPIC_CMD, json.dumps(doc).encode())
    doc = json.loads(encode_message(detach))
    del doc["waypoints"][0]["z"]
    with pytest.raises(ValidationError, match="^z: missing"):
        decode_message(TOPIC_CMD, json.dumps(doc).encode())
    doc = json.loads(encode_message(detach))
    del doc["kind"]
    with pytest.raises(ValidationError, match="^kind: missing"):
        decode_message(TOPIC_CMD, json.dumps(doc).encode())


@pytest.mark.parametrize(
    "payload",
    [
        b'{"v":1,"object_id":"o","label":"l","x":1' + b"0" * 400 + b',"y":0,"z":0,"confidence":1,"timestamp":0}',
        b'{"v":1,"object_id":"o","label":"l","x":' + b"1" * 5000 + b',"y":0,"z":0,"confidence":1,"timestamp":0}',
        b'{"v":1,"object_id":"o","label":' + b"[" * 50000 + b"]" * 50000 + b"}",
    ],
    ids=["int-beyond-float-range", "int-beyond-digit-limit", "nesting-beyond-recursion-limit"],
)
def test_oversized_numbers_and_nesting_are_validation_errors(payload):
    # float(), Python's int digit limit and the JSON parser's recursion limit raise
    # OverflowError, ValueError and RecursionError on these; a component must not see them
    with pytest.raises(ValidationError):
        decode_message(TOPIC_DETECTIONS, payload)


def test_components_count_payloads_they_reject():
    drone = DroneAgent(Vec3())
    cues = CueEngine(AttentionModel())
    follower = FollowerLoop(FollowerConfig())
    for component, topic in ((drone, TOPIC_CMD), (cues, TOPIC_DETECTIONS), (follower, TOPIC_POSE)):
        component.on_message(topic, b'{"v":1,"kind":')
        assert component.protocol_error_count == 1


@pytest.mark.parametrize(
    "text",
    ['say "hi"', "back\\slash", "ctl\x00\x01\x1f\t\n\r\x7f", "line\u2028sep\u2029", "héllo 中文 🚁", ""],
)
def test_canonical_json_strings_match_json_dumps(text):
    assert canonical_json(text) == json.dumps(text, ensure_ascii=False)
    assert canonical_json({text: text}) == (
        "{" + json.dumps(text) + ":" + json.dumps(text, ensure_ascii=False) + "}"
    )
    assert canonical_json([text, {"k": [text]}]) == json.dumps(
        [text, {"k": [text]}], ensure_ascii=False, separators=(",", ":")
    )


def test_canonical_json_non_str_keys_are_type_errors():
    for key in (1, 2.5, None, False):
        with pytest.raises(TypeError):
            canonical_json({"a": 0, key: "a"})


class Count(int):
    """An int subclass; the encoder writes it as the int it is."""


def pose_holding(x=0.5, y=0.0, z=-0.25, yaw=0.0, timestamp=1.5):
    """A wearable Pose holding exactly these values, including ones its own
    constructor would refuse or normalize; the message check must judge them."""
    pose = Pose(Vec3(), 0.0, FrameId.WEARABLE, 0.0)
    object.__setattr__(pose, "position", Vec3(x, y, z))
    object.__setattr__(pose, "yaw", yaw)
    object.__setattr__(pose, "timestamp", timestamp)
    return pose


def xyz_fields(prefix, topic, make):
    """One entry per coordinate of the Vec3 that ``make(vec)`` puts in a message."""
    return [
        (f"{prefix}{axis}", topic, lambda v, k=k: make(Vec3(*(v if i == k else 0.25 for i in range(3)))))
        for k, axis in enumerate("xyz")
    ]


# every float field of every message type, named as the check names it
FLOAT_FIELDS = [
    *xyz_fields("pose.", TOPIC_POSE, lambda p: PoseMsg("w", pose_holding(*p.as_tuple()), 7)),
    ("pose.yaw", TOPIC_POSE, lambda v: PoseMsg("w", pose_holding(yaw=v), 7)),
    ("pose.timestamp", TOPIC_POSE, lambda v: PoseMsg("w", pose_holding(timestamp=v), 7)),
    *xyz_fields("", TOPIC_CMD, lambda p: CommandMsg(p, 0.5, 1.0, 7)),
    ("yaw", TOPIC_CMD, lambda v: CommandMsg(Vec3(), v, 1.0, 7)),
    ("speed", TOPIC_CMD, lambda v: CommandMsg(Vec3(), 0.5, v, 7)),
    *xyz_fields("waypoints[1].", TOPIC_CMD, lambda p: DetachMsg([Vec3(), p], 7)),
    *xyz_fields("", TOPIC_DETECTIONS, lambda p: DetectionMsg("a", "box", p, 0.5, 1.5)),
    ("confidence", TOPIC_DETECTIONS, lambda v: DetectionMsg("a", "box", Vec3(), v, 1.5)),
    ("timestamp", TOPIC_DETECTIONS, lambda v: DetectionMsg("a", "box", Vec3(), 0.5, v)),
    ("distance", TOPIC_CUES, lambda v: CueMsg("a", "box", v, 0.0, True, 1.5)),
    ("azimuth", TOPIC_CUES, lambda v: CueMsg("a", "box", 1.0, v, True, 1.5)),
    ("timestamp", TOPIC_CUES, lambda v: CueMsg("a", "box", 1.0, 0.0, True, v)),
]
SEQUENCE_FIELDS = [
    (TOPIC_POSE, lambda s: PoseMsg("w", pose_holding(), s)),
    (TOPIC_CMD, lambda s: CommandMsg(Vec3(), 0.5, 1.0, s)),
    (TOPIC_CMD, lambda s: DetachMsg([Vec3()], s)),
]


def assert_constructs_and_round_trips(topic, make, value):
    msg = make(value)
    assert parse(topic, encode_message(msg)) == msg


@pytest.mark.parametrize("field,topic,make", FLOAT_FIELDS, ids=[f"{t}:{f}" for f, t, _ in FLOAT_FIELDS])
def test_every_float_field_takes_only_values_the_encoder_writes(field, topic, make):
    # a float or a non-bool int (subclasses included) constructs, encodes and
    # decodes back to an equal message
    for value in (np.float64(0.5), Count(1), 0.5, 1):
        assert_constructs_and_round_trips(topic, make, value)
    # anything else fails construction naming the field, never with
    # TypeError or OverflowError, in the constructor or in encode_message
    for value, reason in ((True, "expected a number, got bool"), (False, "expected a number, got bool"),
                          (np.float32(0.5), "expected a number, got float32"), (10**400, "must be ")):
        with pytest.raises(ValidationError, match=f"^{re.escape(field)}: {reason}"):
            make(value)


def test_int_values_are_judged_as_floats_under_their_field_name():
    for make, reason in ((lambda: PoseMsg("w", pose_holding(timestamp=-1), 7), "pose.timestamp: must be finite and >= 0"),
                         (lambda: DetachMsg([Vec3(), Vec3(0, 10**400, 0)], 7), "waypoints[1].y: must be finite"),
                         (lambda: DetectionMsg("a", "box", Vec3(), Count(2), 1.5), "confidence: must be in [0, 1]"),
                         (lambda: CommandMsg(Vec3(), 0.5, 0, 7), "speed: must be finite and > 0")):
        with pytest.raises(ValidationError, match=f"^{re.escape(reason)}$"):
            make()


@pytest.mark.parametrize("topic,make", SEQUENCE_FIELDS, ids=["pose", "move", "detach"])
def test_sequence_takes_only_uint64_ints(topic, make):
    for value in (0, Count(5), 2**64 - 1):
        assert_constructs_and_round_trips(topic, make, value)
    for value in (-1, 2**64, True, 5.0, np.int64(5)):
        with pytest.raises(ValidationError, match="^sequence: "):
            make(value)


def test_decoded_pose_fields_are_named_by_the_check():
    doc = json.loads(encode_message(PoseMsg("w", pose_holding(), 7)))
    for key, value, reason in (("x", "a", "expected a number, got str"), ("yaw", None, "expected a number, got NoneType"),
                               ("timestamp", -1, "must be finite and >= 0"), ("frame", "sky", 'must be "wearable"'),
                               ("frame", "drone", 'must be "wearable"'), ("yaw", True, "expected a number, got bool"),
                               ("x", False, "expected a number, got bool"), ("frame", [], "expected a string, got list")):
        bad = json.loads(json.dumps(doc))
        bad["pose"][key] = value
        with pytest.raises(ValidationError, match=f"^pose.{key}: {re.escape(reason)}"):
            decode_message(TOPIC_POSE, json.dumps(bad).encode())


def test_a_decoded_pose_is_checked_once(monkeypatch):
    payload = encode_message(PoseMsg("w", pose_holding(), 7))
    pose_checks = []
    check = protocol._Object.check

    def counting_check(self, values, path=""):
        if self is protocol._POSE:
            pose_checks.append(path)
        return check(self, values, path)

    monkeypatch.setattr(protocol._Object, "check", counting_check)
    msg = parse(TOPIC_POSE, payload)
    assert pose_checks == ["pose."]
    monkeypatch.undo()
    assert msg == PoseMsg("w", pose_holding(), 7)
    assert encode_message(msg) == payload


def test_a_wrong_container_type_is_a_validation_error_naming_the_field():
    xyz = (1.0, 2.0, 3.0)
    for make, reason in ((lambda: DetachMsg(5, 0), "waypoints: expected a list, got int"),
                         (lambda: DetectionMsg("a", "b", xyz, 0.5, 1.0), "position: expected a Vec3, got tuple"),
                         (lambda: PoseMsg("w", "pose", 1), "pose: expected a Pose, got str"),
                         (lambda: PoseMsg("w", Pose(Vec3(), 0.0, "wearable", 0.0), 0),
                          "pose.frame: expected a FrameId, got str"),
                         (lambda: CommandMsg(xyz, 0.0, 1.0, 0), "target: expected a Vec3, got tuple"),
                         (lambda: DetachMsg([xyz], 0), "waypoints[0]: expected a Vec3, got tuple")):
        with pytest.raises(ValidationError, match=f"^{re.escape(reason)}$"):
            make()


# edges of the float fields: signed zeros, ints, the angle wraps, 9-digit
# rounding (0.9999999995 writes as 1), subnormals and the largest floats
EDGE_FLOATS = [
    0.0, -0.0, 0, 1, -7, 10**12 + 1, Count(3), np.float64(0.1), np.float64(2 / 3),
    math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
    3.1415926535, -3.1415926535, 0.9999999995, 0.99999999951, 1.0000000005, 123456789.5,
    5e-324, -5e-324, 2.5e-320, sys.float_info.min, 1.79e308, -1.79e308, sys.float_info.max, -sys.float_info.max,
]


def draw_float(rng: random.Random):
    roll = rng.random()
    if roll < 0.4:
        return rng.choice(EDGE_FLOATS)
    if roll < 0.6:
        return math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1074, 1024))
    if roll < 0.7:
        return rng.randint(-(10**6), 10**6)
    return rng.uniform(-10.0, 10.0)


def draw_vec3(rng: random.Random) -> Vec3:
    return Vec3(draw_float(rng), draw_float(rng), draw_float(rng))


HANDED = [
    (TOPIC_POSE, lambda rng: PoseMsg(
        rng.choice(["w", "wearable", "é中"]),
        Pose(draw_vec3(rng), draw_float(rng), FrameId.WEARABLE, draw_float(rng)),
        rng.choice([0, Count(5), 2**64 - 1, rng.randrange(2**32)]),
    )),
    (TOPIC_CMD, lambda rng: CommandMsg(draw_vec3(rng), draw_float(rng), draw_float(rng), rng.randrange(2**64))),
    (TOPIC_CMD, lambda rng: DetachMsg([draw_vec3(rng) for _ in range(rng.randint(1, 3))], rng.randrange(9))),
    (TOPIC_DETECTIONS, lambda rng: DetectionMsg(
        f"obj-{rng.randrange(9)}", rng.choice(["", "chair", "caf\u00e9 \"q\""]),
        draw_vec3(rng), draw_float(rng), draw_float(rng),
    )),
    (TOPIC_CUES, lambda rng: CueMsg(
        rng.choice(["o", "\u00e9\u4e2d"]), rng.choice(["box", "caf\u00e9 \U0001f600", "\u2028"]),
        draw_float(rng), draw_float(rng), rng.random() < 0.5, draw_float(rng),
    )),
]


def leaves(value, path="msg"):
    """(path, type, exact text) of every value a message holds, nested ones
    included; repr tells -0.0 from 0.0 and gives a float's exact value."""
    if dataclasses.is_dataclass(value):
        yield path, type(value), ""
        for f in dataclasses.fields(value):
            yield from leaves(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, (list, tuple)):
        yield path, type(value), len(value)
        for i, entry in enumerate(value):
            yield from leaves(entry, f"{path}[{i}]")
    else:
        yield path, type(value), repr(value)


def wire_dict(msg):
    """The JSON object that ``msg`` goes on the wire as, built from its
    fields with the keys in the order docs/protocol.md gives."""
    def xyz(v):
        return {"x": v.x, "y": v.y, "z": v.z}

    if isinstance(msg, PoseMsg):
        pose = msg.pose
        return {"v": 1, "source_id": msg.source_id, "sequence": msg.sequence, "pose": {
            "frame": pose.frame.value, **xyz(pose.position), "yaw": pose.yaw, "timestamp": pose.timestamp}}
    if isinstance(msg, CommandMsg):
        return {"v": 1, "kind": "move", "sequence": msg.sequence, **xyz(msg.target), "yaw": msg.yaw, "speed": msg.speed}
    if isinstance(msg, DetachMsg):
        return {"v": 1, "kind": "detach", "sequence": msg.sequence, "waypoints": [xyz(w) for w in msg.waypoints]}
    if isinstance(msg, DetectionMsg):
        return {"v": 1, "object_id": msg.object_id, "label": msg.label, **xyz(msg.position),
                "confidence": msg.confidence, "timestamp": msg.timestamp}
    return {"v": 1, "object_id": msg.object_id, "label": msg.label, "distance": msg.distance,
            "azimuth": msg.azimuth, "blind_spot": msg.blind_spot, "timestamp": msg.timestamp}


@pytest.mark.parametrize("topic,draw", HANDED, ids=["pose", "move", "detach", "detection", "cue"])
def test_an_encoded_payload_is_remembered_as_its_decoding(topic, draw):
    # decode_message returns the message encode_message built for its topic's
    # last payload instead of parsing it: the payload must be the canonical
    # JSON of the message's fields, byte for byte, and the message what a
    # parse gives, field by field, type by type, sign by sign
    rng = random.Random(21)
    built = 0
    while built < 400:
        try:
            msg = draw(rng)
        except (ValidationError, ValueError):  # a draw a rule (or Pose) refuses
            continue
        built += 1
        payload = encode_message(msg)
        assert payload == canonical_json(wire_dict(msg)).encode("utf-8"), msg
        remembered = decode_message(topic, payload)
        assert protocol._LAST[topic] == (payload, remembered)
        decoded = parse(topic, payload)
        assert list(leaves(remembered)) == list(leaves(decoded)), msg
        assert remembered == decoded


def test_a_rejected_payload_is_never_remembered(parsed):
    payload = encode_message(DetectionMsg("a", "box", Vec3(), 0.5, 1.5))
    bad = payload.replace(b'"confidence":0.5', b'"confidence":2')
    cues = CueEngine(AttentionModel())
    cues.on_message(TOPIC_DETECTIONS, bad)
    cues.on_message(TOPIC_DETECTIONS, bad)
    assert cues.protocol_error_count == 2 and parsed == [bad, bad]
    # the topic's last payload is still the one encoded, and is not parsed
    assert protocol._LAST[TOPIC_DETECTIONS][0] == payload
    assert decode_message(TOPIC_DETECTIONS, payload) == DetectionMsg("a", "box", Vec3(), 0.5, 1.5)
    assert parsed == [bad, bad]


def test_a_payload_that_may_change_is_not_remembered(parsed):
    first, second = (encode_message(PoseMsg("w", pose_holding(), sequence)) for sequence in (7, 8))
    protocol._LAST.clear()
    buffer = bytearray(first)
    assert decode_message(TOPIC_POSE, buffer).sequence == 7
    assert TOPIC_POSE not in protocol._LAST
    buffer[:] = second  # kept, the buffer would now stand for the first pose
    assert decode_message(TOPIC_POSE, second).sequence == 8
    assert parsed == [first, second]


def test_threads_racing_on_a_topic_each_get_their_own_payloads_message():
    # more threads than cores, switching often, encode and decode different
    # payloads on one topic: a lost or torn slot would hand a thread another
    # payload's message
    messages = [DetectionMsg(f"o{k}", "box", Vec3(k, 0.0, 0.0), 0.5, float(k)) for k in range(16)]
    payloads = [encode_message(msg) for msg in messages]
    wrong = []

    def work(first):
        for i in range(400):
            k = (first + i) % len(messages)
            if i % 3 == 0:
                encode_message(messages[k])
            if decode_message(TOPIC_DETECTIONS, payloads[k]) != messages[k]:
                wrong.append(k)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(first,)) for first in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_number_subclasses_are_written_by_their_plain_value():
    class Seven(int):
        def __str__(self):
            return "seven"

        __repr__ = __str__

    class Half(float):
        def __format__(self, spec):
            return "half"

        def __str__(self):
            return "half"

        __repr__ = __str__

    half, seven = Half(0.5), Seven(7)
    for topic, msg in (
        (TOPIC_CMD, CommandMsg(Vec3(), 0.0, 1.0, seven)),
        (TOPIC_DETECTIONS, DetectionMsg("a", "box", Vec3(half, seven, 0.0), half, 1.5)),
        (TOPIC_POSE, PoseMsg("w", pose_holding(x=half, y=seven, timestamp=half), seven)),
        (TOPIC_CMD, CommandMsg(Vec3(half, 0.0, 0.0), half, seven, 0)),
        (TOPIC_CMD, DetachMsg([Vec3(half, seven, 0.0)], seven)),
        (TOPIC_CUES, CueMsg("a", "box", half, half, True, seven)),
    ):
        payload = encode_message(msg)
        json.loads(payload)  # JSON, with no "seven" or "half" in it
        remembered = decode_message(topic, payload)
        decoded = parse(topic, payload)
        assert decoded == msg
        assert list(leaves(remembered)) == list(leaves(decoded)), msg
    assert encode_message(CommandMsg(Vec3(), 0.0, 1.0, seven)) == (
        b'{"v":1,"kind":"move","sequence":7,"x":0,"y":0,"z":0,"yaw":0,"speed":1}'
    )
    assert written(DetectionMsg("a", "box", Vec3(), half, 1.5), "confidence") == "0.5"


def test_encode_message_refuses_an_object_of_no_message_type():
    with pytest.raises(ValidationError, match="^unknown message type Vec3$"):
        encode_message(Vec3())


def test_wire_float_is_what_a_float_field_decodes_to():
    for value in EDGE_FLOATS:
        if value != value + 0 or abs(value) > sys.float_info.max:
            continue
        msg = DetectionMsg("a", "b", Vec3(value, 0.0, 0.0), 0.5, 1.5)
        assert written(msg, "x") == canonical_json(value), value
        decoded = parse(TOPIC_DETECTIONS, encode_message(msg)).position.x
        assert repr(wire_float(value)) == repr(decoded), value
    assert math.copysign(1.0, wire_float(-0.0)) == 1.0
    assert wire_float(0.99999999951) == 1.0
    assert wire_float(10**12 + 1) == 1000000000001.0  # an int is written in full
    assert 0.0 < wire_float(5e-324) and wire_float(sys.float_info.max) < math.inf
