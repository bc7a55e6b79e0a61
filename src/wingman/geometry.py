"""Coordinate frames, pose algebra and planar polar geometry.

Conventions, fixed for the whole project:

* frames are right-handed with +y up; all motion of interest is in the
  horizontal (x, z) plane
* yaw is the rotation about +y; yaw = 0 faces +x and positive yaw turns
  the facing direction toward +z
* the azimuth of a target relative to a pose is the signed angle in
  (-pi, pi] from the facing direction to the target direction, measured
  in the horizontal plane
* yaw values are kept normalized to [-pi, pi), azimuths to (-pi, pi]

Heading (yaw) values share one angular convention across frames; the
wearable/drone axis mapping below applies to displacement vectors only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import MISSING, dataclass, fields

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return (angle + math.pi) % TWO_PI - math.pi


def wrap_azimuth(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = (angle + math.pi) % TWO_PI - math.pi
    return math.pi if wrapped == -math.pi else wrapped


class FrameId(enum.Enum):
    """Coordinate frame tag carried by poses."""

    WEARABLE = "wearable"
    DRONE = "drone"
    WORLD = "world"


def compile_function(cls: type, name: str, params: str, body: list[str], scope: dict):
    """The function ``name(params)`` of the source lines ``body``, made for
    ``cls``; every value they use but keys and indices comes in through ``scope``."""
    source = f"def {name}({params}):\n" + "\n".join("    " + line for line in body)
    exec(compile(source, f"<{name} of {cls.__name__}>", "exec"), scope)
    return scope[name]


def slot_stores(cls: type, obj: str, names: list[str], scope: dict) -> list[str]:
    """Lines storing ``names`` into ``obj``, one per dataclass field of the
    slotted ``cls`` in field order, through its slot's setter, put in ``scope``."""
    for i, field in enumerate(fields(cls)):
        scope[f"s{i}"] = getattr(cls, field.name).__set__
    return [f"s{i}({obj}, {name})" for i, name in enumerate(names)]


def slotted(cls: type) -> type:
    """Give the frozen, slotted dataclass ``cls`` a compiled constructor
    with the dataclass's own signature, as ``dataclasses`` compiles its
    methods: it stores each field, in field order, through its slot's own
    setter (``Vec3.x.__set__``), which a frozen class's ``__setattr__``
    does not reach, then calls ``__post_init__`` if ``cls`` has one."""
    scope, params = {}, ["self"]
    for i, field in enumerate(fields(cls)):
        scope[f"d{i}"] = field.default
        params.append(field.name if field.default is MISSING else f"{field.name}=d{i}")
    body = slot_stores(cls, "self", [field.name for field in fields(cls)], scope)
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    cls.__init__ = compile_function(cls, "__init__", ", ".join(params), body, scope)
    return cls


@slotted
@dataclass(frozen=True, slots=True)
class Vec3:
    """Cartesian point or displacement, meters.

    The value classes a run builds on every tick are slotted: each holds
    its fields in slots, not in an instance dict, and its constructor,
    made by :func:`slotted`, stores each field through the slot's setter.
    """

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, k: float) -> "Vec3":
        return Vec3(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def horizontal_norm(self) -> float:
        return math.hypot(self.x, self.z)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def _require_finite(v: Vec3, op: str) -> None:
    if not v.is_finite():
        raise ValueError(f"{op}: non-finite vector ({v.x}, {v.y}, {v.z})")


@dataclass(frozen=True, slots=True, init=False)
class Pose:
    """Position plus heading in a tagged frame at a timestamp.

    Yaw is normalized to [-pi, pi) on construction. Timestamps are
    simulation-clock seconds and must be finite and non-negative. The
    constructor, written out rather than made by :func:`slotted` so that it
    checks and wraps before it stores, stores each field once through its
    slot's setter, the yaw through :func:`wrap_angle`.
    """

    position: Vec3
    yaw: float
    frame: FrameId
    timestamp: float

    def __init__(self, position: Vec3, yaw: float, frame: FrameId, timestamp: float) -> None:
        _require_finite(position, "Pose")
        if not math.isfinite(yaw):
            raise ValueError("Pose: non-finite yaw")
        if not math.isfinite(timestamp) or timestamp < 0.0:
            raise ValueError(f"Pose: bad timestamp {timestamp}")
        _set_position(self, position)
        _set_yaw(self, wrap_angle(yaw))
        _set_frame(self, frame)
        _set_timestamp(self, timestamp)


_set_position, _set_yaw, _set_frame, _set_timestamp = (
    Pose.position.__set__, Pose.yaw.__set__, Pose.frame.__set__, Pose.timestamp.__set__
)


def wearable_delta_to_drone_delta(delta: Vec3) -> Vec3:
    """Map a wearable-frame displacement into drone-frame coordinates.

    The horizontal axes map as x_w -> z_d and z_w -> -x_d; the vertical
    component is dropped (the drone holds its own hover altitude).
    """
    _require_finite(delta, "wearable_delta_to_drone_delta")
    return Vec3(-delta.z, 0.0, delta.x)


def relative_polar(observer: Pose, target: Vec3) -> tuple[float, float]:
    """Horizontal (distance, azimuth) of ``target`` as seen from ``observer``.

    Both must be expressed in the same frame. A horizontally coincident
    target is the documented degenerate case and reports (0.0, 0.0).
    """
    _require_finite(target, "relative_polar")
    dx = target.x - observer.position.x
    dz = target.z - observer.position.z
    if dx == 0.0 and dz == 0.0:
        return 0.0, 0.0
    distance = math.hypot(dx, dz)
    azimuth = wrap_azimuth(math.atan2(dz, dx) - observer.yaw)
    return distance, azimuth
