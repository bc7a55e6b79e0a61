"""Application message schemas and their canonical JSON serialization.

Topic -> schema binding is closed: ``tagteam/pose`` carries PoseMsg,
``tagteam/cmd`` carries CommandMsg or DetachMsg (discriminated by the
``kind`` field), ``tagteam/detections`` carries DetectionMsg and
``tagteam/cues`` carries CueMsg. The table ``_WIRE`` below is the one
source of each message's wire keys, their order, their wire types and
each field's constraint. The decoder and the check walk it; on first use
it is compiled into each object's encoder, builder and test. Messages,
like the ``Vec3`` and ``Pose`` they hold, are slotted, each constructor
made by ``geometry.slotted``. docs/protocol.md describes what the fields
mean.

Encoding is canonical: fixed key order, floats rendered with 9
significant digits, no whitespace, and an int or float subclass written
by its plain value. Float fields therefore live on the wire-precision
grid; :func:`wire_float` maps an arbitrary float onto it. For any message
whose floats are wire-precision values (everything that came out of
:func:`decode_message` qualifies), decode(encode(m)) == m and byte
equality implies message equality.

Every constructor runs the check, so every message can be encoded: a
field takes only values of a type the encoder writes (for a float, a
non-bool int or a float) that its constraint admits, and a field that
holds an object only that object's class; else ValidationError names the
field. Angle fields are re-normalized on construction. The compiled test
passes only what the check passes; on any other values the check decides
and words the error.

Decoding is strict: unknown topics raise RoutingError, and a missing or
extra field raises ValidationError naming the field, as does a payload
that is not JSON or whose numbers or nesting are too large to represent.
The decoder restores only nesting and ints in float fields, and leaves
types and ranges to the same check, run on each object's values before
they are built into it (so a pose is checked before ``Pose`` normalizes
its yaw, and only then). It never fabricates defaults.

:func:`encode_message` runs its type's compiled encoder, which gives in
one pass a message's payload and the message that decoding it gives (see
:func:`wire_float`), and keeps the pair as its topic's last payload, as
:func:`decode_message` keeps each payload it parses. :func:`decode_message`
returns the kept message for an equal payload without parsing it;
docs/protocol.md says why that is exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from collections import namedtuple
from functools import cached_property
from json.encoder import encode_basestring, encode_basestring_ascii

from wingman.geometry import FrameId, Pose, Vec3, compile_function, slot_stores, slotted, wrap_angle, wrap_azimuth

TOPIC_POSE = "tagteam/pose"
TOPIC_CMD = "tagteam/cmd"
TOPIC_DETECTIONS = "tagteam/detections"
TOPIC_CUES = "tagteam/cues"

MESSAGE_VERSION = 1


class RoutingError(Exception):
    """Payload arrived on a topic outside the closed topic set."""


class ValidationError(Exception):
    """A message field is missing, extra, ill-typed or out of range."""


# the wire's float spec: 9 significant digits, the one source of every
# float the wire and the artifacts write ("%" + FLOAT_SPEC renders alike)
FLOAT_SPEC = ".9g"


def format_float(x: float) -> str:
    """Canonical wire rendering of a float: 9 significant digits."""
    return format(x, FLOAT_SPEC)


def wire_float(x: float) -> float:
    """The float that a number field holding ``x`` decodes to:
    ``float(canonical_json(x)) + 0.0``, the text the encoder writes for
    ``x`` read back as the decoder reads it.

    For a float that text is ``x`` rounded to 9 significant digits, and
    reading it rounds to the nearest float. The ``+ 0.0`` is the decoder's
    sign of zero: it reads ``-0`` as the integer 0, so as ``0.0``. An int
    is written in full, so it reads back as ``float(x)``.

    On a value that a field's rule admits, the result is admitted too, so
    the message :func:`encode_message` builds needs no check. Both
    roundings are monotone and fix 0 and 1, so ``>= 0`` and ``[0, 1]``
    hold; ``x <= max`` gives ``1.79769313e308 < max``, so finite stays
    finite; and ``x > 0`` means ``x >= 5e-324``, which writes as
    ``4.94065646e-324``, more than half the least positive float, so it
    reads back positive. An int is read as the check reads it,
    ``float(x)``, which is what the rule judged.
    """
    return float(canonical_json(x)) + 0.0


def canonical_json(value) -> str:
    """Deterministic JSON text: insertion key order, 9-digit floats, and an
    int or float subclass written by its plain value, not by its own str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, float):
        return format(float(value), FLOAT_SPEC)
    if isinstance(value, str):
        return encode_basestring(value)  # as json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        # keys ASCII-escaped, as json.dumps writes them; a non-str key is a TypeError
        return "{" + ",".join(f"{encode_basestring_ascii(k)}:{canonical_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _check(msg) -> None:
    """The constructor check of every message: ``_WIRE``'s compiled test,
    and where it fails, its walk, which decides and words the error."""
    wire = _WIRE[type(msg)]
    values = wire.values(msg)
    if not wire.admits(*values):
        wire.check(values, nested=True)


@slotted
@dataclasses.dataclass(frozen=True, slots=True)
class PoseMsg:
    """Wearable pose sample; sequence is strictly increasing per source."""

    source_id: str
    pose: Pose
    sequence: int

    __post_init__ = _check


@slotted
@dataclasses.dataclass(frozen=True, slots=True)
class CommandMsg:
    """Absolute drone-frame position target plus commanded speed and yaw."""

    target: Vec3
    yaw: float
    speed: float
    sequence: int

    __post_init__ = _check


@slotted
@dataclasses.dataclass(frozen=True, slots=True)
class DetachMsg:
    """Order to leave the human, visit waypoints and boomerang back.

    Carried on the command topic with the reserved kind ``detach``.
    Waypoints are absolute drone-frame positions; at least one required.
    """

    waypoints: tuple[Vec3, ...]
    sequence: int

    def __post_init__(self) -> None:
        _check(self)
        object.__setattr__(self, "waypoints", tuple(self.waypoints))


@slotted
@dataclasses.dataclass(frozen=True, slots=True)
class DetectionMsg:
    """World-frame object sighting reported by the drone's detector."""

    object_id: str
    label: str
    position: Vec3
    confidence: float
    timestamp: float

    __post_init__ = _check


@slotted
@dataclasses.dataclass(frozen=True, slots=True)
class CueMsg:
    """Human-relative polar rendering of a detection, with blind-spot flag."""

    object_id: str
    label: str
    distance: float
    azimuth: float
    blind_spot: bool
    timestamp: float

    def __post_init__(self) -> None:
        _check(self)
        object.__setattr__(self, "azimuth", wrap_azimuth(self.azimuth))


Message = PoseMsg | CommandMsg | DetachMsg | DetectionMsg | CueMsg


# A field's constraint: its text, and a test of a value of the field's wire type.
_Rule = namedtuple("_Rule", "text admits")


_MAX_FLOAT = sys.float_info.max
_ANY = _Rule("anything", lambda value: True)
_NON_EMPTY = _Rule("non-empty", len)
_FINITE = _Rule("finite", math.isfinite)
_NON_NEGATIVE = _Rule("finite and >= 0", lambda value: 0.0 <= value <= _MAX_FLOAT)
_UNIT = _Rule("in [0, 1]", lambda value: 0.0 <= value <= 1.0)
_POSITIVE = _Rule("finite and > 0", lambda value: 0.0 < value <= _MAX_FLOAT)
_UINT64 = _Rule("a uint64", lambda value: 0 <= value <= 2**64 - 1)
_WEARABLE = _Rule('"wearable"', FrameId.WEARABLE.value.__eq__)

# Each scalar wire type's name, and a test of the values the encoder writes for it.
_WRITES = {
    str: ("a string", lambda value: isinstance(value, str)),
    int: ("an integer", lambda value: isinstance(value, int) and type(value) is not bool),
    float: ("a number", lambda value: isinstance(value, (int, float)) and type(value) is not bool),
    bool: ("a boolean", lambda value: type(value) is bool),
}


class _Object:
    """One JSON object on the wire, holding a ``cls``: its keys in order,
    each with a wire type and a constraint.

    A wire type is ``str``, ``int``, ``float``, ``bool``, a nested
    ``_Object``, or ``[_Object]`` for a list of them. ``values`` maps a
    ``cls`` object to its values in key order; ``build(make, *values)``
    makes one from them as the decoder reads them, and normalizes what the
    constructor normalizes, but runs no check: ``decode`` checks the values
    before, and ``render`` builds from values that keep the check's
    verdict. Each build is one call to ``make``; a ``Vec3`` whose x, y and
    z a message writes among its own keys is a plain constructor call.
    ``check`` and ``decode`` walk the table; ``render``, ``admits`` and
    ``make`` are compiled from it on first use.
    """

    head = "{"

    def __init__(self, cls: type, fields: tuple[tuple[str, object, _Rule], ...], values, build) -> None:
        self.cls, self.fields, self.values, self.build = cls, fields, values, build
        self.keys = {key for key, _, _ in fields}

    def check(self, values, path: str = "", nested: bool = False) -> None:
        """Raise ValidationError naming the first value the encoder cannot
        write or its rule refuses; ``path`` prefixes a nested object's keys.
        The values of a nested object are checked only with ``nested``, as
        a constructor needs: ``decode`` checked them as it read them."""
        for (key, kind, rule), value in zip(self.fields, values):
            if type(value) is not kind:  # nested, a list, or another type the encoder may write
                if isinstance(kind, _Object):
                    if nested:
                        kind.check_object(value, f"{path}{key}")
                    continue
                if isinstance(kind, list):
                    if not isinstance(value, (list, tuple)):
                        raise ValidationError(f"{path}{key}: expected a list, got {type(value).__name__}")
                    for i, entry in enumerate(value if nested else ()):
                        kind[0].check_object(entry, f"{path}{key}[{i}]")
                else:
                    noun, writes = _WRITES[kind]
                    if not writes(value):
                        raise ValidationError(f"{path}{key}: expected {noun}, got {type(value).__name__}")
                    try:  # the rule judges the value as the decoder reads it back
                        value = float(value) if kind is float else value
                    except OverflowError:  # an int too large for a float
                        raise ValidationError(f"{path}{key}: must be {rule.text}") from None
            if not rule.admits(value):
                raise ValidationError(f"{path}{key}: must be {rule.text}")

    def check_object(self, obj, name: str) -> None:
        """The constructor's ``check`` for the object that the field ``name`` holds."""
        if not isinstance(obj, self.cls):
            raise ValidationError(f"{name}: expected a {self.cls.__name__}, got {type(obj).__name__}")
        self.check(self.values(obj), f"{name}.", nested=True)

    def decode(self, doc: dict, path: str = ""):
        """The object ``doc`` holds, its values checked before ``build``
        normalizes them (a ``true`` yaw is refused, not read as 1.0);
        ValidationError names a missing or extra key."""
        if doc.keys() != self.keys:
            missing = [key for key, _, _ in self.fields if key not in doc]
            raise ValidationError(f"{missing[0]}: missing" if missing
                                  else f"{min(doc.keys() - self.keys)}: unexpected field")
        values = [value if type(value := doc[key]) is kind else _convert(f"{path}{key}", kind, value)
                  for key, kind, _ in self.fields]
        self.check(values, path)
        return self.build(self.make, *values)

    @cached_property
    def render(self):
        """``render(obj)``: the JSON text of ``obj``, which passed the check,
        and the object that decoding that text gives, ``build`` fed from
        one rendering of each value: a plain float's text is read back as
        the decoder reads it (see :func:`wire_float` for why the check need
        not run again); a value of another type goes through :func:`_passer`."""
        names = ", ".join(f"v{i}" for i in range(len(self.fields)))
        body, template = [f"{names}, = values(obj)"], self.head.translate(_BRACED)
        scope = {"values": self.values, "build": self.build, "make": self.make, "encode_basestring": encode_basestring}
        for i, (key, kind, _) in enumerate(self.fields):
            v, t = f"v{i}", f"t{i}"
            scope[f"p{i}"] = _passer(kind)
            # the check lets a plain float only into a float field and a plain
            # str only into a string field: the values a run sends, inlined
            if kind is float:
                body += [f"if type({v}) is float:", f"    {t} = format({v}, {FLOAT_SPEC!r})", f"    {v} = float({t}) + 0.0"]
            elif kind is str:
                body += [f"if type({v}) is str:", f"    {t} = encode_basestring({v})"]
            body += ["else:", f"    {t}, {v} = p{i}({v})"] if kind is float or kind is str else [f"{t}, {v} = p{i}({v})"]
            template += ("," if i else "") + json.dumps(key).translate(_BRACED) + ":{" + t + "}"
        body.append(f"return f{template + '}}'!r}, build(make, {names})")
        return compile_function(self.cls, "render", "obj", body, scope)

    @cached_property
    def admits(self):
        """``admits(*values)``: whether each value has exactly its field's
        wire type (a nested object its class, its own values admitted too)
        and its rule admits it. True means the check passes; False leaves
        the check to decide, and to word the error."""
        tests, scope = [], {}
        for i, (_, kind, rule) in enumerate(self.fields):
            v = f"v{i}"
            if isinstance(kind, list):
                scope.update({f"c{i}": kind[0].cls, f"a{i}": kind[0].admits, f"n{i}": kind[0].values})
                tests.append(f"type({v}) in (list, tuple) and all([type(e) is c{i} and a{i}(*n{i}(e)) for e in {v}])")
            elif isinstance(kind, _Object):
                scope.update({f"c{i}": kind.cls, f"a{i}": kind.admits, f"n{i}": kind.values})
                tests.append(f"type({v}) is c{i} and a{i}(*n{i}({v}))")
            else:
                scope[f"c{i}"] = kind
                tests.append(f"type({v}) is c{i}")
            if rule is not _ANY:
                scope[f"r{i}"] = rule.admits
                tests[-1] += f" and r{i}({v})"
        names = ", ".join(f"v{i}" for i in range(len(self.fields)))
        return compile_function(self.cls, "admits", names, ["return (" + "\n        and ".join(tests) + ")"], scope)

    @cached_property
    def make(self):
        """``make(*fields)``: a new ``cls`` object, its constructor skipped,
        each field, in dataclass field order, stored through its slot's setter."""
        scope = {"new": object.__new__, "cls": self.cls}
        names = [f"v{i}" for i in range(len(dataclasses.fields(self.cls)))]
        body = ["obj = new(cls)", *slot_stores(self.cls, "obj", names, scope), "return obj"]
        return compile_function(self.cls, "make", ", ".join(names), body, scope)


class _Message(_Object):
    """The top-level object of one message type, published on ``topic``.

    It opens with the version and, on ``tagteam/cmd`` only, with the
    ``kind`` discriminator.
    """

    def __init__(self, cls: type, topic: str, kind: str | None, fields, values, build) -> None:
        super().__init__(cls, fields, values, build)
        self.topic, self.kind = topic, kind
        self.head = f'{{"v":{MESSAGE_VERSION},' + (f'"kind":{json.dumps(kind)},' if kind else "")


# Maps text to the literal text of an f-string: braces doubled.
_BRACED = str.maketrans({"{": "{{", "}": "}}"})


def _passer(kind):
    """The map from a checked value of wire type ``kind`` to its text and
    the value the decoder reads back from that text: a number's through
    :func:`wire_float`, and of a str, int or bool subclass its plain value."""
    if isinstance(kind, _Object):
        return kind.render
    if isinstance(kind, list):
        render_entry = _passer(kind[0])
        def render_list(entries):
            rendered = [render_entry(entry) for entry in entries]
            return "[" + ",".join([text for text, _ in rendered]) + "]", [obj for _, obj in rendered]
        return render_list
    read = {float: wire_float, int: int, str: str.__str__, bool: bool}[kind]
    return lambda value: (canonical_json(value), read(value))


def _convert(name: str, kind, value):
    """``value`` of the field ``name`` as wire type ``kind`` when its JSON type
    is not ``kind``: only nesting and an int in a float field; the check judges the rest."""
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"{name}: number out of range") from None
    if isinstance(kind, _Object):
        if type(value) is not dict:
            raise ValidationError(f"{name}: expected an object, got {type(value).__name__}")
        return kind.decode(value, f"{name}.")
    if isinstance(kind, list):
        if type(value) is not list:
            raise ValidationError(f"{name}: expected a list, got {type(value).__name__}")
        return [_convert(f"{name}[{i}]", kind[0], entry) for i, entry in enumerate(value)]
    return value


def _xyz(holder, name: str) -> tuple:
    """The x, y and z a message writes among its own keys for the Vec3 in
    its field ``name``; ValidationError if that field holds no Vec3."""
    if not isinstance(holder, Vec3):
        raise ValidationError(f"{name}: expected a Vec3, got {type(holder).__name__}")
    return holder.x, holder.y, holder.z


def _frame_name(frame) -> str:
    """The wire name of a pose's frame; ValidationError if it is no FrameId."""
    if not isinstance(frame, FrameId):
        raise ValidationError(f"pose.frame: expected a FrameId, got {type(frame).__name__}")
    return frame.value


_XYZ = (("x", float, _FINITE), ("y", float, _FINITE), ("z", float, _FINITE))
_VEC3 = _Object(Vec3, _XYZ, Vec3.as_tuple, lambda make, x, y, z: make(x, y, z))
_POSE = _Object(
    Pose,
    (("frame", str, _WEARABLE), *_XYZ, ("yaw", float, _FINITE), ("timestamp", float, _NON_NEGATIVE)),
    lambda pose: (_frame_name(pose.frame), *pose.position.as_tuple(), pose.yaw, pose.timestamp),
    # a decoded pose's frame is the wearable one, the only frame its rule admits
    lambda make, frame, x, y, z, yaw, timestamp: make(Vec3(x, y, z), wrap_angle(yaw), FrameId.WEARABLE, timestamp),
)

# The one statement of each message's wire keys, order, wire types and constraints.
_WIRE: dict[type, _Message] = {wire.cls: wire for wire in (
    _Message(
        PoseMsg, TOPIC_POSE, None,
        (("source_id", str, _NON_EMPTY), ("sequence", int, _UINT64), ("pose", _POSE, _ANY)),
        lambda m: (m.source_id, m.sequence, m.pose),
        lambda make, source_id, sequence, pose: make(source_id, pose, sequence),
    ),
    _Message(
        CommandMsg, TOPIC_CMD, "move",
        (("sequence", int, _UINT64), *_XYZ, ("yaw", float, _FINITE), ("speed", float, _POSITIVE)),
        lambda m: (m.sequence, *_xyz(m.target, "target"), m.yaw, m.speed),
        lambda make, sequence, x, y, z, yaw, speed: make(Vec3(x, y, z), yaw, speed, sequence),
    ),
    _Message(
        DetachMsg, TOPIC_CMD, "detach",
        (("sequence", int, _UINT64), ("waypoints", [_VEC3], _NON_EMPTY)),
        lambda m: (m.sequence, m.waypoints),
        lambda make, sequence, waypoints: make(tuple(waypoints), sequence),
    ),
    _Message(
        DetectionMsg, TOPIC_DETECTIONS, None,
        (("object_id", str, _NON_EMPTY), ("label", str, _ANY), *_XYZ,
         ("confidence", float, _UNIT), ("timestamp", float, _NON_NEGATIVE)),
        lambda m: (m.object_id, m.label, *_xyz(m.position, "position"), m.confidence, m.timestamp),
        lambda make, object_id, label, x, y, z, confidence, timestamp: make(
            object_id, label, Vec3(x, y, z), confidence, timestamp),
    ),
    _Message(
        CueMsg, TOPIC_CUES, None,
        (("object_id", str, _NON_EMPTY), ("label", str, _ANY), ("distance", float, _NON_NEGATIVE),
         ("azimuth", float, _FINITE), ("blind_spot", bool, _ANY), ("timestamp", float, _NON_NEGATIVE)),
        lambda m: (m.object_id, m.label, m.distance, m.azimuth, m.blind_spot, m.timestamp),
        lambda make, object_id, label, distance, azimuth, blind_spot, timestamp: make(
            object_id, label, distance, wrap_azimuth(azimuth), blind_spot, timestamp),
    ),
)}
_BY_TOPIC = {wire.topic: wire for wire in _WIRE.values() if wire.kind is None}
_BY_KIND = {wire.kind: wire for wire in _WIRE.values() if wire.kind is not None}


# Each topic's last payload, encoded or decoded in this process, and the
# message it decodes to. One dict store of an immutable pair per write, so
# threads racing on a topic cost at most an extra parse.
_LAST: dict[str, tuple[bytes, Message]] = {}


def encode_message(msg: Message) -> bytes:
    """Canonical JSON bytes for one message. The walk that writes them
    builds the message that decoding them gives, equal in every field,
    type and sign of zero, and keeps both as its topic's last payload."""
    wire = _WIRE.get(type(msg))
    if wire is None:
        raise ValidationError(f"unknown message type {type(msg).__name__}")
    text, built = wire.render(msg)
    payload = text.encode("utf-8")
    _LAST[wire.topic] = (payload, built)
    return payload


def decode_message(topic: str, payload: bytes) -> Message:
    """Parse and validate the payload for one of the four defined topics;
    a payload equal to its topic's last is not parsed again. A payload
    that is not ``bytes`` may change, so is not kept."""
    last = _LAST.get(topic)
    if last is not None and last[0] == payload:
        return last[1]
    wire = _BY_TOPIC.get(topic)
    if wire is None and topic != TOPIC_CMD:
        raise RoutingError(f"no schema bound to topic {topic!r}")
    doc = _load(payload)
    if wire is None:
        if "kind" not in doc:
            raise ValidationError("kind: missing")
        kind = doc.pop("kind")
        wire = _BY_KIND.get(kind) if type(kind) is str else None
        if wire is None:
            raise ValidationError(f"kind: unknown command kind {kind!r}")
    msg = wire.decode(doc)
    if type(payload) is bytes:
        _LAST[topic] = (payload, msg)
    return msg


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
