"""Application message schemas and their canonical JSON serialization.

Topic -> schema binding is closed: ``tagteam/pose`` carries PoseMsg,
``tagteam/cmd`` carries CommandMsg or DetachMsg (discriminated by the
``kind`` field), ``tagteam/detections`` carries DetectionMsg and
``tagteam/cues`` carries CueMsg. See docs/protocol.md for field tables.

Encoding is canonical: fixed key order, floats rendered with 9
significant digits, no whitespace. Float fields therefore live on the
wire-precision grid; :func:`wire_float` maps an arbitrary float onto it.
For any message whose floats are wire-precision values (everything that
came out of :func:`decode_message` qualifies), decode(encode(m)) == m and
byte equality implies message equality.

Decoding is strict: unknown topics raise RoutingError, and a missing,
extra or ill-typed field raises ValidationError naming the field.
Decoding never fabricates defaults. Angle fields are re-normalized on
construction; range constraints (confidence, speed, distance) are errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from wingman.geometry import FrameId, Pose, Vec3, wrap_azimuth

TOPIC_POSE = "tagteam/pose"
TOPIC_CMD = "tagteam/cmd"
TOPIC_DETECTIONS = "tagteam/detections"
TOPIC_CUES = "tagteam/cues"

MESSAGE_VERSION = 1

_MAX_SEQUENCE = 2**64 - 1


class RoutingError(Exception):
    """Payload arrived on a topic outside the closed topic set."""


class ValidationError(Exception):
    """A message field is missing, extra, ill-typed or out of range."""


def format_float(x: float) -> str:
    """Canonical wire rendering of a float: 9 significant digits."""
    return format(x, ".9g")


def wire_float(x: float) -> float:
    """Project a float onto the wire-precision grid (9 significant digits)."""
    return float(format(x, ".9g"))


def canonical_json(value) -> str:
    """Deterministic JSON text: insertion key order, 9-digit floats."""
    return _dumps(value)


def _dumps(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_dumps(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_dumps(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


@dataclass(frozen=True)
class PoseMsg:
    """Wearable pose sample; sequence is strictly increasing per source."""

    source_id: str
    pose: Pose
    sequence: int

    def __post_init__(self) -> None:
        if not isinstance(self.source_id, str) or not self.source_id:
            raise ValidationError("source_id: must be a non-empty string")
        _check_sequence(self.sequence)
        if self.pose.frame is not FrameId.WEARABLE:
            raise ValidationError(f"pose.frame: expected wearable, got {self.pose.frame.value}")


@dataclass(frozen=True)
class CommandMsg:
    """Absolute drone-frame position target plus commanded speed and yaw."""

    target: Vec3
    yaw: float
    speed: float
    sequence: int

    def __post_init__(self) -> None:
        if not self.target.is_finite():
            raise ValidationError("target: must be finite")
        if not isinstance(self.speed, (int, float)) or not math.isfinite(self.speed) or self.speed <= 0:
            raise ValidationError(f"speed: {self.speed!r} must be finite and > 0")
        if not math.isfinite(self.yaw):
            raise ValidationError("yaw: must be finite")
        _check_sequence(self.sequence)


@dataclass(frozen=True)
class DetachMsg:
    """Order to leave the human, visit waypoints and boomerang back.

    Carried on the command topic with the reserved kind ``detach``.
    Waypoints are absolute drone-frame positions; at least one required.
    """

    waypoints: tuple[Vec3, ...]
    sequence: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        if not self.waypoints:
            raise ValidationError("waypoints: at least one waypoint required")
        for i, w in enumerate(self.waypoints):
            if not w.is_finite():
                raise ValidationError(f"waypoints[{i}]: must be finite")
        _check_sequence(self.sequence)


@dataclass(frozen=True)
class DetectionMsg:
    """World-frame object sighting reported by the drone's detector."""

    object_id: str
    label: str
    position: Vec3
    confidence: float
    timestamp: float

    def __post_init__(self) -> None:
        if not isinstance(self.object_id, str) or not self.object_id:
            raise ValidationError("object_id: must be a non-empty string")
        if not isinstance(self.label, str):
            raise ValidationError("label: must be a string")
        if not self.position.is_finite():
            raise ValidationError("position: must be finite")
        if not isinstance(self.confidence, (int, float)) or not 0.0 <= self.confidence <= 1.0:
            raise ValidationError(f"confidence: {self.confidence!r} not in [0, 1]")
        if not isinstance(self.timestamp, (int, float)) or not math.isfinite(self.timestamp) or self.timestamp < 0:
            raise ValidationError(f"timestamp: {self.timestamp!r} must be finite and >= 0")


@dataclass(frozen=True)
class CueMsg:
    """Human-relative polar rendering of a detection, with blind-spot flag."""

    object_id: str
    label: str
    distance: float
    azimuth: float
    blind_spot: bool
    timestamp: float

    def __post_init__(self) -> None:
        if not isinstance(self.object_id, str) or not self.object_id:
            raise ValidationError("object_id: must be a non-empty string")
        if not isinstance(self.label, str):
            raise ValidationError("label: must be a string")
        if not isinstance(self.distance, (int, float)) or not math.isfinite(self.distance) or self.distance < 0:
            raise ValidationError(f"distance: {self.distance!r} must be finite and >= 0")
        if not isinstance(self.azimuth, (int, float)) or not math.isfinite(self.azimuth):
            raise ValidationError("azimuth: must be finite")
        object.__setattr__(self, "azimuth", wrap_azimuth(self.azimuth))
        if not isinstance(self.blind_spot, bool):
            raise ValidationError("blind_spot: must be a boolean")
        if not isinstance(self.timestamp, (int, float)) or not math.isfinite(self.timestamp) or self.timestamp < 0:
            raise ValidationError(f"timestamp: {self.timestamp!r} must be finite and >= 0")


Message = PoseMsg | CommandMsg | DetachMsg | DetectionMsg | CueMsg


def _check_sequence(seq) -> None:
    if not isinstance(seq, int) or isinstance(seq, bool) or not 0 <= seq <= _MAX_SEQUENCE:
        raise ValidationError(f"sequence: {seq!r} not a uint64")


def encode_message(msg: Message) -> bytes:
    """Canonical JSON bytes for one message."""
    if isinstance(msg, PoseMsg):
        doc = {
            "v": MESSAGE_VERSION,
            "source_id": msg.source_id,
            "sequence": msg.sequence,
            "pose": {
                "frame": msg.pose.frame.value,
                "x": msg.pose.position.x,
                "y": msg.pose.position.y,
                "z": msg.pose.position.z,
                "yaw": msg.pose.yaw,
                "timestamp": msg.pose.timestamp,
            },
        }
    elif isinstance(msg, CommandMsg):
        doc = {
            "v": MESSAGE_VERSION,
            "kind": "move",
            "sequence": msg.sequence,
            "x": msg.target.x,
            "y": msg.target.y,
            "z": msg.target.z,
            "yaw": msg.yaw,
            "speed": msg.speed,
        }
    elif isinstance(msg, DetachMsg):
        doc = {
            "v": MESSAGE_VERSION,
            "kind": "detach",
            "sequence": msg.sequence,
            "waypoints": [{"x": w.x, "y": w.y, "z": w.z} for w in msg.waypoints],
        }
    elif isinstance(msg, DetectionMsg):
        doc = {
            "v": MESSAGE_VERSION,
            "object_id": msg.object_id,
            "label": msg.label,
            "x": msg.position.x,
            "y": msg.position.y,
            "z": msg.position.z,
            "confidence": msg.confidence,
            "timestamp": msg.timestamp,
        }
    elif isinstance(msg, CueMsg):
        doc = {
            "v": MESSAGE_VERSION,
            "object_id": msg.object_id,
            "label": msg.label,
            "distance": msg.distance,
            "azimuth": msg.azimuth,
            "blind_spot": msg.blind_spot,
            "timestamp": msg.timestamp,
        }
    else:
        raise ValidationError(f"unknown message type {type(msg).__name__}")
    return _dumps(doc).encode("utf-8")


def decode_message(topic: str, payload: bytes) -> Message:
    """Parse and validate the payload for one of the four defined topics."""
    if topic == TOPIC_POSE:
        return _decode_pose(_load(payload))
    if topic == TOPIC_CMD:
        doc = _load(payload)
        kind = _take(doc, "kind", str)
        if kind == "move":
            return _decode_move(doc)
        if kind == "detach":
            return _decode_detach(doc)
        raise ValidationError(f"kind: unknown command kind {kind!r}")
    if topic == TOPIC_DETECTIONS:
        return _decode_detection(_load(payload))
    if topic == TOPIC_CUES:
        return _decode_cue(_load(payload))
    raise RoutingError(f"no schema bound to topic {topic!r}")


def _load(payload: bytes) -> dict:
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"payload is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("payload: JSON object expected")
    version = doc.pop("v", None)
    if version != MESSAGE_VERSION:
        raise ValidationError(f"v: expected {MESSAGE_VERSION}, got {version!r}")
    return doc


def _take(doc: dict, field: str, kind) -> object:
    if field not in doc:
        raise ValidationError(f"{field}: missing")
    value = doc.pop(field)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{field}: expected a number, got {type(value).__name__}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{field}: expected an integer, got {type(value).__name__}")
        return value
    if not isinstance(value, kind):
        raise ValidationError(f"{field}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _done(doc: dict) -> None:
    if doc:
        raise ValidationError(f"{sorted(doc)[0]}: unexpected field")


def _wrap(field: str, build):
    try:
        return build()
    except ValidationError:
        raise
    except ValueError as exc:
        raise ValidationError(f"{field}: {exc}") from exc


def _decode_pose(doc: dict) -> PoseMsg:
    source_id = _take(doc, "source_id", str)
    sequence = _take(doc, "sequence", int)
    pose_doc = _take(doc, "pose", dict)
    _done(doc)
    frame = _take(pose_doc, "frame", str)
    if frame != FrameId.WEARABLE.value:
        raise ValidationError(f"pose.frame: expected wearable, got {frame!r}")
    position = Vec3(_take(pose_doc, "x", float), _take(pose_doc, "y", float), _take(pose_doc, "z", float))
    yaw = _take(pose_doc, "yaw", float)
    timestamp = _take(pose_doc, "timestamp", float)
    _done(pose_doc)
    pose = _wrap("pose", lambda: Pose(position, yaw, FrameId.WEARABLE, timestamp))
    return PoseMsg(source_id, pose, sequence)


def _decode_move(doc: dict) -> CommandMsg:
    sequence = _take(doc, "sequence", int)
    target = Vec3(_take(doc, "x", float), _take(doc, "y", float), _take(doc, "z", float))
    yaw = _take(doc, "yaw", float)
    speed = _take(doc, "speed", float)
    _done(doc)
    return CommandMsg(target, yaw, speed, sequence)


def _decode_detach(doc: dict) -> DetachMsg:
    sequence = _take(doc, "sequence", int)
    raw = _take(doc, "waypoints", list)
    _done(doc)
    waypoints = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValidationError(f"waypoints[{i}]: expected an object")
        entry = dict(entry)
        waypoints.append(
            Vec3(_take(entry, "x", float), _take(entry, "y", float), _take(entry, "z", float))
        )
        _done(entry)
    return DetachMsg(tuple(waypoints), sequence)


def _decode_detection(doc: dict) -> DetectionMsg:
    object_id = _take(doc, "object_id", str)
    label = _take(doc, "label", str)
    position = Vec3(_take(doc, "x", float), _take(doc, "y", float), _take(doc, "z", float))
    confidence = _take(doc, "confidence", float)
    timestamp = _take(doc, "timestamp", float)
    _done(doc)
    return DetectionMsg(object_id, label, position, confidence, timestamp)


def _decode_cue(doc: dict) -> CueMsg:
    object_id = _take(doc, "object_id", str)
    label = _take(doc, "label", str)
    distance = _take(doc, "distance", float)
    azimuth = _take(doc, "azimuth", float)
    blind_spot = _take(doc, "blind_spot", bool)
    timestamp = _take(doc, "timestamp", float)
    _done(doc)
    return CueMsg(object_id, label, distance, azimuth, blind_spot, timestamp)
