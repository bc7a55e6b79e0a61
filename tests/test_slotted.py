"""The slotted value and message classes a run builds on every tick: no
instance dict, frozen, and the dataclass equality, hash, repr and replace
of before."""

from __future__ import annotations

import ast
import dataclasses
import math
from pathlib import Path

import pytest

import wingman
from conftest import parse
from wingman.agents import DroneState
from wingman.follower import IssueCommand, MissionState, Mode, PoseUpdate, RunAssess
from wingman.geometry import FrameId, Pose, Vec3, wrap_angle
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
    decode_message,
    encode_message,
)
from wingman.scenario import TraceRow

POSE = Pose(Vec3(1.0, 2.0, 3.0), 0.5, FrameId.WORLD, 2.0)
OTHER = Pose(Vec3(-1.0, 0.0, 0.25), -3.0, FrameId.WEARABLE, 0.0)
COMMAND = CommandMsg(Vec3(1.0, 0.5, -2.0), 0.25, 0.75, 4)
WORN = Pose(Vec3(0.5, 0.0, -1.25), 0.25, FrameId.WEARABLE, 2.0)

# (class, arguments it stores as given, a replace that changes the object)
SLOTTED = [
    (Vec3, (1.0, -2.0, 3.5), {"y": 4.0}),
    (Pose, (Vec3(1.0, 2.0, 3.0), -math.pi, FrameId.WEARABLE, 1e300), {"timestamp": 0.0}),
    (DroneState, (POSE, COMMAND, 2.0, 1.0), {"command": None}),
    (TraceRow, (0.1, POSE, OTHER, "FOLLOW"), {"mode": "DETACH"}),
    (MissionState, (Mode.DETACH, (Vec3(1.0, 0.0, 0.0), Vec3()), 1, OTHER), {"index": 0}),
    (PoseUpdate, (POSE,), {"pose": OTHER}),
    (RunAssess, (POSE,), {"pose": OTHER}),
    (IssueCommand, (Vec3(1.0, 0.0, 2.0), 0.5, 1.0), {"speed": 2.0}),
    (PoseMsg, ("wearable", WORN, 3), {"sequence": 4}),
    (CommandMsg, (Vec3(1.0, 0.5, -2.0), 0.25, 0.75, 4), {"speed": 1.5}),
    (DetachMsg, ((Vec3(1.0, 0.0, 2.0), Vec3()), 5), {"waypoints": (Vec3(),)}),
    (DetectionMsg, ("cone-1", "cone", Vec3(2.0, 0.0, -0.5), 0.75, 1.5), {"confidence": 0.5}),
    (CueMsg, ("cone-1", "cone", 2.5, -1.0, True, 1.5), {"blind_spot": False}),
]


@pytest.mark.parametrize("cls, args, changes", SLOTTED, ids=[cls.__name__ for cls, _, _ in SLOTTED])
def test_slotted_value_class(cls, args, changes):
    names = [f.name for f in dataclasses.fields(cls)]
    obj = cls(*args)
    assert cls.__slots__ == tuple(names)
    assert not hasattr(obj, "__dict__")
    assert [getattr(obj, name) for name in names] == list(args)
    assert repr(obj) == f"{cls.__name__}(" + ", ".join(f"{n}={a!r}" for n, a in zip(names, args)) + ")"
    twin = cls(**dict(zip(names, args)))
    assert twin is not obj and twin == obj and hash(twin) == hash(obj)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    changed = dataclasses.replace(obj, **changes)
    assert type(changed) is cls and not hasattr(changed, "__dict__") and changed != obj
    assert [getattr(changed, name) for name in names] == [changes.get(n, a) for n, a in zip(names, args)]
    assert dataclasses.replace(changed, **{n: getattr(obj, n) for n in changes}) == obj


def test_every_slotted_class_is_checked_here():
    # a class that gets its constructor from ``slotted`` must meet the checks above
    src = Path(wingman.__file__).parent
    decorated = {node.name for path in src.rglob("*.py") for node in ast.walk(ast.parse(path.read_text("utf-8")))
                 if isinstance(node, ast.ClassDef) and any(
                     isinstance(d, ast.Name) and d.id == "slotted" for d in node.decorator_list)}
    assert {"Vec3", "CueMsg"} <= decorated <= {cls.__name__ for cls, _, _ in SLOTTED}


def test_slotted_defaults():
    assert Vec3() == Vec3(0.0, 0.0, 0.0)
    assert MissionState() == MissionState(Mode.FOLLOW, (), 0, None)
    assert DroneState(POSE) == DroneState(POSE, None, 1.0, math.pi)


def test_pose_replace_wraps_its_yaw_again():
    pose = dataclasses.replace(POSE, yaw=4.0)
    assert pose.yaw == wrap_angle(4.0) != 4.0
    assert dataclasses.replace(POSE, timestamp=9.0).yaw == POSE.yaw
    with pytest.raises(ValueError, match="Pose: bad timestamp -2.0"):
        dataclasses.replace(POSE, timestamp=-2.0)


@pytest.mark.parametrize("args, text", [
    ((Vec3(math.inf, 0.0, 0.0), 0.0, FrameId.WORLD, 0.0), "Pose: non-finite vector (inf, 0.0, 0.0)"),
    ((Vec3(0.0, math.nan, 0.0), math.nan, FrameId.WORLD, -1.0), "Pose: non-finite vector (0.0, nan, 0.0)"),
    ((Vec3(), math.inf, FrameId.WORLD, -1.0), "Pose: non-finite yaw"),
    ((Vec3(), 0.0, FrameId.WORLD, -5e-324), "Pose: bad timestamp -5e-324"),
    ((Vec3(), 0.0, FrameId.WORLD, math.nan), "Pose: bad timestamp nan"),
])
def test_pose_refuses_bad_input(args, text):
    with pytest.raises(ValueError) as caught:
        Pose(*args)
    assert str(caught.value) == text


@pytest.mark.parametrize("kwargs, text", [
    ({"max_speed": 0.0}, "max_speed must be > 0, got 0.0"),
    ({"max_speed": -1.0, "yaw_rate": 0.0}, "max_speed must be > 0, got -1.0"),
    ({"yaw_rate": -0.5}, "yaw_rate must be > 0, got -0.5"),
])
def test_drone_state_refuses_bad_input(kwargs, text):
    with pytest.raises(ValueError) as caught:
        DroneState(POSE, **kwargs)
    assert str(caught.value) == text


def _dictless(obj) -> bool:
    return not hasattr(obj, "__dict__")


def test_decoded_poses_and_vectors_are_slotted():
    payload = (b'{"v":1,"source_id":"w","sequence":3,'
               b'"pose":{"frame":"wearable","x":0.5,"y":0,"z":-1.25,"yaw":4,"timestamp":2}}')
    parsed = parse(TOPIC_POSE, payload).pose
    assert parsed == Pose(Vec3(0.5, 0.0, -1.25), 4.0, FrameId.WEARABLE, 2.0) and parsed.yaw == wrap_angle(4.0)
    # the pose that encoding builds, kept as the topic's last payload
    kept = decode_message(TOPIC_POSE, encode_message(PoseMsg("w", Pose(Vec3(), 0.5, FrameId.WEARABLE, 1.0), 4))).pose
    assert kept == Pose(Vec3(), 0.5, FrameId.WEARABLE, 1.0)
    for pose in (parsed, kept):
        assert type(pose) is Pose and _dictless(pose)
        assert type(pose.position) is Vec3 and _dictless(pose.position)
        assert [type(value) for value in (*pose.position.as_tuple(), pose.yaw, pose.timestamp)] == [float] * 5

    payload = encode_message(COMMAND)
    for msg in (parse(TOPIC_CMD, payload), decode_message(TOPIC_CMD, payload)):
        assert msg == COMMAND and type(msg.target) is Vec3 and _dictless(msg.target)

    detection = DetectionMsg("cone-1", "cone", Vec3(2.0, 0.0, -0.5), 0.75, 1.5)
    payload = encode_message(detection)
    for msg in (parse(TOPIC_DETECTIONS, payload), decode_message(TOPIC_DETECTIONS, payload)):
        assert msg == detection and type(msg.position) is Vec3 and _dictless(msg.position)


# one message of each type, on its topic
MESSAGES = [
    (TOPIC_POSE, PoseMsg("wearable", WORN, 3)),
    (TOPIC_CMD, COMMAND),
    (TOPIC_CMD, DetachMsg([Vec3(1.0, 0.0, 2.0), Vec3()], 5)),
    (TOPIC_DETECTIONS, DetectionMsg("cone-1", "cone", Vec3(2.0, 0.0, -0.5), 0.75, 1.5)),
    (TOPIC_CUES, CueMsg("cone-1", "cone", 2.5, 4.0, False, 1.5)),
]


@pytest.mark.parametrize("topic, msg", MESSAGES, ids=[type(msg).__name__ for _, msg in MESSAGES])
def test_constructed_parsed_and_kept_messages_are_slotted(topic, msg):
    payload = encode_message(msg)
    kept = decode_message(topic, payload)  # the message encoding built, kept as the topic's last
    parsed = parse(topic, payload)
    assert kept is not parsed and kept == parsed and encode_message(parsed) == payload
    for obj in (msg, kept, parsed):
        assert type(obj) is type(msg) and _dictless(obj)
        assert [type(getattr(obj, name)) for name in type(obj).__slots__] == [
            type(getattr(msg, name)) for name in type(msg).__slots__]
