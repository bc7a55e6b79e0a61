"""Application message schemas and their canonical JSON serialization.

Topic -> schema binding is closed: ``tagteam/pose`` carries PoseMsg,
``tagteam/cmd`` carries CommandMsg or DetachMsg (discriminated by the
``kind`` field), ``tagteam/detections`` carries DetectionMsg and
``tagteam/cues`` carries CueMsg. The table ``_WIRE`` below is the one
source of each message's wire keys, their order and their wire types;
one encoder and one decoder read it. docs/protocol.md describes what the
fields mean and their constraints.

Encoding is canonical: fixed key order, floats rendered with 9
significant digits, no whitespace. Float fields therefore live on the
wire-precision grid; :func:`wire_float` maps an arbitrary float onto it.
For any message whose floats are wire-precision values (everything that
came out of :func:`decode_message` qualifies), decode(encode(m)) == m and
byte equality implies message equality.

Decoding is strict: unknown topics raise RoutingError, and a missing,
extra or ill-typed field raises ValidationError naming the field, as
does a payload that is not JSON or whose numbers or nesting are too
large to represent. Decoding never fabricates defaults. Angle fields are
re-normalized on construction; range constraints (confidence, speed,
distance) are errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring, encode_basestring_ascii

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
        return encode_basestring(value)  # as json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        return "{" + ",".join(f"{_dumps_key(k)}:{_dumps(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_dumps(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _dumps_key(key) -> str:
    """An object key as json.dumps(key) writes it: str keys ASCII-escaped."""
    return encode_basestring_ascii(key) if isinstance(key, str) else json.dumps(key)


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


def _wearable_pose(frame: str, x: float, y: float, z: float, yaw: float, timestamp: float) -> Pose:
    if frame != FrameId.WEARABLE.value:
        raise ValidationError(f"pose.frame: expected wearable, got {frame!r}")
    try:
        return Pose(Vec3(x, y, z), yaw, FrameId.WEARABLE, timestamp)
    except ValueError as exc:
        raise ValidationError(f"pose: {exc}") from exc


class _Object:
    """One JSON object on the wire: its keys in order, each with a wire type.

    A wire type is ``str``, ``int``, ``float``, ``bool``, a nested
    ``_Object``, or ``[_Object]`` for a list of them. ``values`` maps a
    Python object to its values in key order; ``build`` makes the object
    from them.
    """

    head = "{"

    def __init__(self, fields: tuple[tuple[str, object], ...], values, build) -> None:
        self.fields, self.values, self.build = fields, values, build
        self.keys = {key for key, _ in fields}
        self._renders = tuple((json.dumps(key) + ":", _renderer(kind)) for key, kind in fields)

    def encode(self, obj) -> str:
        parts = [key + render(value) for (key, render), value in zip(self._renders, self.values(obj))]
        return self.head + ",".join(parts) + "}"

    def decode(self, doc: dict):
        """The object ``doc`` holds; ValidationError names the first bad key."""
        if doc.keys() != self.keys:  # raise at the first missing or ill-typed key, else the first extra
            for key, kind in self.fields:
                _take(doc, key, kind)
            _done(doc)
        values = []
        for key, kind in self.fields:
            value = doc[key]
            values.append(value if type(value) is kind else _convert(key, kind, value))
        return self.build(*values)


class _Message(_Object):
    """The top-level object of one message type, published on ``topic``.

    It opens with the version and, on ``tagteam/cmd`` only, with the
    ``kind`` discriminator.
    """

    def __init__(self, topic: str, kind: str | None, fields, values, build) -> None:
        super().__init__(fields, values, build)
        self.topic, self.kind = topic, kind
        self.head = f'{{"v":{MESSAGE_VERSION},' + (f'"kind":{json.dumps(kind)},' if kind else "")


def render_float(value) -> str:
    """``_dumps(value)`` for a float field, without its type walk for a plain float."""
    return format(value, ".9g") if type(value) is float else _dumps(value)


def _renderer(kind):
    if isinstance(kind, _Object):
        return kind.encode
    if isinstance(kind, list):
        return lambda entries: "[" + ",".join(map(kind[0].encode, entries)) + "]"
    if kind is float:
        return render_float
    # encode_basestring writes a str exactly as json.dumps(s, ensure_ascii=False) does
    return encode_basestring if kind is str else _dumps


def _convert(key: str, kind, value):
    """``value`` as wire type ``kind`` when its JSON type is not ``kind`` itself."""
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"{key}: number out of range") from None
    if isinstance(kind, _Object) and type(value) is dict:
        return kind.decode(value)
    if isinstance(kind, list) and type(value) is list:
        for i, entry in enumerate(value):
            if type(entry) is not dict:
                raise ValidationError(f"{key}[{i}]: expected an object")
        return [kind[0].decode(entry) for entry in value]
    expected = "dict" if isinstance(kind, _Object) else "list" if isinstance(kind, list) else kind.__name__
    expected = {"float": "a number", "int": "an integer"}.get(expected, expected)
    raise ValidationError(f"{key}: expected {expected}, got {type(value).__name__}")


_XYZ = (("x", float), ("y", float), ("z", float))
_POSE = _Object(
    (("frame", str), *_XYZ, ("yaw", float), ("timestamp", float)),
    lambda pose: (pose.frame.value, *pose.position.as_tuple(), pose.yaw, pose.timestamp),
    _wearable_pose,
)

# The one statement of each message's wire keys, their order and their wire types.
_WIRE: dict[type, _Message] = {
    PoseMsg: _Message(
        TOPIC_POSE, None, (("source_id", str), ("sequence", int), ("pose", _POSE)),
        lambda m: (m.source_id, m.sequence, m.pose),
        lambda source_id, sequence, pose: PoseMsg(source_id, pose, sequence),
    ),
    CommandMsg: _Message(
        TOPIC_CMD, "move", (("sequence", int), *_XYZ, ("yaw", float), ("speed", float)),
        lambda m: (m.sequence, *m.target.as_tuple(), m.yaw, m.speed),
        lambda sequence, x, y, z, yaw, speed: CommandMsg(Vec3(x, y, z), yaw, speed, sequence),
    ),
    DetachMsg: _Message(
        TOPIC_CMD, "detach", (("sequence", int), ("waypoints", [_Object(_XYZ, Vec3.as_tuple, Vec3)])),
        lambda m: (m.sequence, m.waypoints),
        lambda sequence, waypoints: DetachMsg(waypoints, sequence),
    ),
    DetectionMsg: _Message(
        TOPIC_DETECTIONS, None,
        (("object_id", str), ("label", str), *_XYZ, ("confidence", float), ("timestamp", float)),
        lambda m: (m.object_id, m.label, *m.position.as_tuple(), m.confidence, m.timestamp),
        lambda object_id, label, x, y, z, confidence, timestamp: DetectionMsg(
            object_id, label, Vec3(x, y, z), confidence, timestamp
        ),
    ),
    CueMsg: _Message(
        TOPIC_CUES, None,
        (("object_id", str), ("label", str), ("distance", float), ("azimuth", float),
         ("blind_spot", bool), ("timestamp", float)),
        lambda m: (m.object_id, m.label, m.distance, m.azimuth, m.blind_spot, m.timestamp),
        CueMsg,
    ),
}
_BY_TOPIC = {wire.topic: wire for wire in _WIRE.values() if wire.kind is None}
_BY_KIND = {wire.kind: wire for wire in _WIRE.values() if wire.kind is not None}


def encode_message(msg: Message) -> bytes:
    """Canonical JSON bytes for one message."""
    wire = _WIRE.get(type(msg))
    if wire is None:
        raise ValidationError(f"unknown message type {type(msg).__name__}")
    return wire.encode(msg).encode("utf-8")


def decode_message(topic: str, payload: bytes) -> Message:
    """Parse and validate the payload for one of the four defined topics."""
    wire = _BY_TOPIC.get(topic)
    if wire is None and topic != TOPIC_CMD:
        raise RoutingError(f"no schema bound to topic {topic!r}")
    doc = _load(payload)
    if wire is None:
        kind = _take(doc, "kind", str)
        wire = _BY_KIND.get(kind)
        if wire is None:
            raise ValidationError(f"kind: unknown command kind {kind!r}")
    return wire.decode(doc)


def _load(payload: bytes) -> dict:
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too many digits, too deep
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
    return value if type(value) is kind else _convert(field, kind, value)


def _done(doc: dict) -> None:
    if doc:
        raise ValidationError(f"{sorted(doc)[0]}: unexpected field")
