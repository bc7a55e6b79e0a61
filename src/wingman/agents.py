"""Simulated wearable, drone kinematics and a mock world-object detector.

The wearable walks a parametric trajectory that starts at the frame
origin and publishes pose samples at a fixed rate; the drone is a
speed-capped point-kinematics integrator executing absolute position
commands in its own frame; the detector stands in for an onboard camera
pipeline by filtering ground-truth world objects through a field-of-view
and range gate.

Frame bookkeeping: the drone frame origin sits at the drone's world
start (already hovering at its working altitude) and its horizontal axes
are rotated relative to the world per the wearable->drone axis mapping.
Yaw values use the shared heading convention (see wingman.geometry).
"""

from __future__ import annotations

import csv
import io
import math
import random
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from wingman.geometry import FrameId, Pose, Vec3, slotted, wrap_angle, wrap_azimuth
from wingman.protocol import (
    TOPIC_CMD,
    CommandMsg,
    DetectionMsg,
    PoseMsg,
    ValidationError,
    decode_message,
)

# one revolution per 20 s, the desk-scale walking pace
_WALK_ANGULAR_SPEED = 2 * math.pi / 20.0


@dataclass(frozen=True)
class Circle:
    """Circle walked from the origin; its center sits at (-radius, 0, 0)."""

    radius: float = 0.5
    angular_speed: float = _WALK_ANGULAR_SPEED

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")

    def position(self, t: float) -> Vec3:
        r, w = self.radius, self.angular_speed
        return Vec3(r * math.cos(w * t) - r, 0.0, r * math.sin(w * t))

    def heading(self, t: float) -> float:
        w = self.angular_speed
        return wrap_angle(math.atan2(w * math.cos(w * t), -w * math.sin(w * t)))


@dataclass(frozen=True)
class Ellipse:
    """Ellipse walked from the origin; its center sits at (-a, 0, 0)."""

    semi_axis_a: float = 0.75
    semi_axis_b: float = 0.5
    angular_speed: float = _WALK_ANGULAR_SPEED

    def __post_init__(self) -> None:
        if self.semi_axis_a <= 0:
            raise ValueError(f"semi_axis_a must be > 0, got {self.semi_axis_a}")
        if self.semi_axis_b <= 0:
            raise ValueError(f"semi_axis_b must be > 0, got {self.semi_axis_b}")

    def position(self, t: float) -> Vec3:
        a, b, w = self.semi_axis_a, self.semi_axis_b, self.angular_speed
        return Vec3(a * math.cos(w * t) - a, 0.0, b * math.sin(w * t))

    def heading(self, t: float) -> float:
        w = self.angular_speed
        vx = -self.semi_axis_a * w * math.sin(w * t)
        vz = self.semi_axis_b * w * math.cos(w * t)
        if vx == 0.0 and vz == 0.0:
            return 0.0
        return wrap_angle(math.atan2(vz, vx))


@dataclass(frozen=True)
class Waypoints:
    """Piecewise-linear path through (t, point) knots; clamped at the ends."""

    points: tuple[tuple[float, Vec3], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("waypoint list must not be empty")
        times = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("waypoint times must be strictly increasing")

    def position(self, t: float) -> Vec3:
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        for (t0, p0), (t1, p1) in zip(pts, pts[1:]):
            if t0 <= t < t1:
                u = (t - t0) / (t1 - t0)
                return p0 + (p1 - p0) * u
        return pts[-1][1]

    def heading(self, t: float) -> float:
        pts = self.points
        if len(pts) == 1:
            return 0.0
        index = len(pts) - 2
        for i, (t1, _) in enumerate(pts[1:]):
            if t < t1:
                index = i
                break
        # walk back over zero-length segments so the heading holds steady
        for i in range(index, -1, -1):
            d = pts[i + 1][1] - pts[i][1]
            if d.x != 0.0 or d.z != 0.0:
                return wrap_angle(math.atan2(d.z, d.x))
        return 0.0


TrajectoryKind = Circle | Ellipse | Waypoints


@dataclass(frozen=True)
class TrajectorySpec:
    """A trajectory plus the sampling behavior of the wearable."""

    kind: TrajectoryKind
    noise_sigma: float = 0.0
    rate: float = 10.0

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")


class WearableSim:
    """Pose source walking a trajectory; exactly reproducible per seed.

    Pose noise (sigma in meters, applied to the horizontal components)
    models tracking error; the reported yaw follows the noiseless path
    tangent. ``next_pose`` returns (ground-truth pose, published message).
    """

    source_id = "wearable"

    def __init__(self, spec: TrajectorySpec, seed: int) -> None:
        self.spec = spec
        self._rng = random.Random(f"{seed}:wearable")
        self._k = 0

    def next_pose(self) -> tuple[Pose, PoseMsg]:
        t = self._k / self.spec.rate
        position = self.spec.kind.position(t)
        yaw = self.spec.kind.heading(t)
        truth = Pose(position, yaw, FrameId.WEARABLE, t)
        if self.spec.noise_sigma > 0.0:
            position = Vec3(
                position.x + self._rng.gauss(0.0, self.spec.noise_sigma),
                position.y,
                position.z + self._rng.gauss(0.0, self.spec.noise_sigma),
            )
        msg = PoseMsg(self.source_id, Pose(position, yaw, FrameId.WEARABLE, t), self._k)
        self._k += 1
        return truth, msg


@slotted
@dataclass(frozen=True, slots=True)
class DroneState:
    """Drone-frame kinematic state plus the command being executed."""

    pose: Pose
    command: CommandMsg | None = None
    max_speed: float = 1.0
    yaw_rate: float = math.pi

    def __post_init__(self) -> None:
        if self.max_speed <= 0:
            raise ValueError(f"max_speed must be > 0, got {self.max_speed}")
        if self.yaw_rate <= 0:
            raise ValueError(f"yaw_rate must be > 0, got {self.yaw_rate}")


def drone_step(state: DroneState, dt: float) -> DroneState:
    """Advance the drone by dt seconds toward its command target.

    Straight-line motion at min(commanded, max) speed with an exact
    arrival clamp (no overshoot); yaw slews the short way at yaw_rate.
    Without a command the drone holds position.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    pose = state.pose
    t_next = pose.timestamp + dt
    cmd = state.command
    if cmd is None:
        return DroneState(Pose(pose.position, pose.yaw, pose.frame, t_next), None, state.max_speed, state.yaw_rate)
    to_target = cmd.target - pose.position
    distance = to_target.norm()
    step = min(cmd.speed, state.max_speed) * dt
    if distance <= step:
        new_position = cmd.target
    else:
        new_position = pose.position + to_target * (step / distance)
    yaw_err = wrap_angle(cmd.yaw - pose.yaw)
    max_turn = state.yaw_rate * dt
    if abs(yaw_err) <= max_turn:
        new_yaw = cmd.yaw
    else:
        new_yaw = pose.yaw + math.copysign(max_turn, yaw_err)
    return DroneState(Pose(new_position, new_yaw, pose.frame, t_next), cmd, state.max_speed, state.yaw_rate)


def drone_frame_to_world(p: Vec3, origin: Vec3) -> Vec3:
    """Drone-frame position -> world: undo the axis mapping, keep y."""
    return Vec3(origin.x + p.z, origin.y + p.y, origin.z - p.x)


class DroneAgent:
    """Drone simulator fed by move commands from the command topic."""

    def __init__(
        self,
        world_start: Vec3,
        max_speed: float = 1.0,
        start_yaw: float = 0.0,
    ) -> None:
        self.world_origin = world_start
        self.state = DroneState(
            pose=Pose(Vec3(), start_yaw, FrameId.DRONE, 0.0),
            command=None,
            max_speed=max_speed,
        )
        self.protocol_error_count = 0
        self._lock = threading.Lock()

    def on_message(self, topic: str, payload: bytes) -> None:
        if topic != TOPIC_CMD:
            return
        try:
            msg = decode_message(topic, payload)
        except ValidationError:
            self.protocol_error_count += 1
            return
        if isinstance(msg, CommandMsg):
            with self._lock:
                self.state = DroneState(self.state.pose, msg, self.state.max_speed, self.state.yaw_rate)

    def step(self, dt: float) -> None:
        with self._lock:
            self.state = drone_step(self.state, dt)

    def world_pose(self, timestamp: float) -> Pose:
        with self._lock:
            pose = self.state.pose
        return Pose(drone_frame_to_world(pose.position, self.world_origin), pose.yaw, FrameId.WORLD, timestamp)


@dataclass(frozen=True)
class WorldObject:
    """Ground-truth object the mock detector can report."""

    object_id: str
    label: str
    position: Vec3

    def __post_init__(self) -> None:
        if not isinstance(self.object_id, str) or not self.object_id:
            raise ValueError(f"id must be a non-empty string, got {self.object_id!r}")
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        if not self.position.is_finite():
            raise ValueError(f"object {self.object_id!r}: non-finite position")


# Pre-gate of detect_objects. It skips an object only when plain
# arithmetic proves the exact gate would drop it: its squared distance
# exceeds range**2 by a relative margin, or its direction lies outside the
# field of view widened by _CONE_MARGIN radians, which moves the cosine
# bound by at least _CONE_MARGIN**2 / 2, far above the 1e-15 rounding of
# either test. A squared distance outside (_TINY_D2, _HUGE_D2) may have
# under- or overflowed, so such an object skips no cone test, and the range
# bound adds _TINY_D2 for a range whose square underflows.
_RANGE_MARGIN = 1e-9
_CONE_MARGIN = 1e-6
_TINY_D2 = 1e-200
_HUGE_D2 = 1e300


@dataclass(frozen=True)
class DetectorParams:
    """Field of view, range and noise model of the mock detector."""

    fov: float = math.pi / 2
    range_m: float = 4.0
    p_detect: float = 1.0
    pos_noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.fov <= 2 * math.pi:
            raise ValueError(f"fov must be in (0, 2*pi], got {self.fov}")
        if self.range_m <= 0:
            raise ValueError(f"range must be > 0, got {self.range_m}")
        if not 0.0 <= self.p_detect <= 1.0:
            raise ValueError(f"p_detect must be in [0, 1], got {self.p_detect}")
        if self.pos_noise_sigma < 0:
            raise ValueError(f"pos_noise_sigma must be >= 0, got {self.pos_noise_sigma}")


def detect_objects(
    drone_world: Pose,
    world: Sequence[WorldObject],
    params: DetectorParams,
    rng: random.Random,
) -> list[DetectionMsg]:
    """Mock detector: angular/range gate over ground-truth objects.

    An object is reported iff its horizontal distance is within range,
    its azimuth from the drone's facing is within half the field of view,
    and a uniform draw passes p_detect. Reported positions carry optional
    isotropic Gaussian noise; the confidence value is synthetic (the
    passing draw mapped onto [0.5, 1.0]), not a physical detector score.

    One pass scans the objects: the pre-gate's offsets feed the exact
    gate, which does the float operations of :func:`relative_polar` on
    them, so a horizontally coincident object lies at azimuth 0.0. The
    positions need no finite check: ``WorldObject`` made it.
    """
    # The pre-gate keeps every object the exact gate keeps, in world order,
    # so the rng draws are exactly those of the exact gate alone.
    half_fov, range_m, p_detect, sigma = params.fov / 2, params.range_m, params.p_detect, params.pos_noise_sigma
    if p_detect <= 0.0:
        return []  # no object passes the draw, and none is drawn for
    max_d2 = range_m * range_m * (1.0 + _RANGE_MARGIN) + _TINY_D2
    if half_fov + _CONE_MARGIN < math.pi:
        min_cos = math.cos(half_fov + _CONE_MARGIN)
    else:
        min_cos = -math.inf  # the cone holds every direction: the test below never skips
    ox, oz, yaw, timestamp = drone_world.position.x, drone_world.position.z, drone_world.yaw, drone_world.timestamp
    fx, fz = math.cos(yaw), math.sin(yaw)
    hypot, atan2, sqrt, uniform, gauss = math.hypot, math.atan2, math.sqrt, rng.random, rng.gauss
    detections: list[DetectionMsg] = []
    for obj in world:
        position = obj.position
        dx = position.x - ox
        dz = position.z - oz
        d2 = dx * dx + dz * dz
        if d2 > max_d2:
            continue
        if _TINY_D2 < d2 < _HUGE_D2 and dx * fx + dz * fz < min_cos * sqrt(d2):
            continue
        if hypot(dx, dz) > range_m:
            continue
        if (dx != 0.0 or dz != 0.0) and abs(wrap_azimuth(atan2(dz, dx) - yaw)) > half_fov:
            continue
        draw = uniform()
        if draw >= p_detect:
            continue
        if sigma > 0.0:
            position = Vec3(
                position.x + gauss(0.0, sigma), position.y + gauss(0.0, sigma), position.z + gauss(0.0, sigma)
            )
        detections.append(
            DetectionMsg(obj.object_id, obj.label, position, 0.5 + 0.5 * (draw / p_detect), timestamp)
        )
    return detections


def load_waypoints_csv(path: str | Path) -> Waypoints:
    """Read a waypoint trajectory: header ``t,x,y,z``, seconds/meters."""
    rows = read_headed_csv(path, ["t", "x", "y", "z"])
    points = []
    for line_no, row in rows:
        try:
            t, x, y, z = map(float, row)
        except ValueError as exc:
            raise ValueError(f"{path} line {line_no}: {exc}") from exc
        if not all(map(math.isfinite, (t, x, y, z))):
            raise ValueError(f"{path} line {line_no}: non-finite waypoint {','.join(row)}")
        points.append((t, Vec3(x, y, z)))
    try:
        return Waypoints(tuple(points))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_world_csv(path: str | Path) -> list[WorldObject]:
    """Read world objects: header ``id,label,x,y,z``; ids must be unique."""
    rows = read_headed_csv(path, ["id", "label", "x", "y", "z"])
    objects: list[WorldObject] = []
    seen: set[str] = set()
    for line_no, row in rows:
        object_id = row[0]
        if object_id in seen:
            raise ValueError(f"{path} line {line_no}: duplicate id {object_id!r}")
        seen.add(object_id)
        try:
            objects.append(WorldObject(object_id, row[1], Vec3(float(row[2]), float(row[3]), float(row[4]))))
        except ValueError as exc:
            raise ValueError(f"{path} line {line_no}: {exc}") from exc
    return objects


def read_headed_csv(
    path: str | Path, header: list[str], error: type[Exception] = ValueError
) -> list[tuple[int, list[str]]]:
    """(line number, fields) of each data row of a CSV file with ``header``.

    Blank lines are skipped; a bad header or field count, or a file that
    is not UTF-8, raises ``error``.
    """
    reader = csv.reader(io.StringIO(read_utf8(path, error), newline=""))
    try:
        first = next(reader)
    except StopIteration:
        raise error(f"{path}: empty file, expected header {','.join(header)}") from None
    if [h.strip() for h in first] != header:
        raise error(f"{path}: expected header {','.join(header)}, got {','.join(first)}")
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise error(f"{path} line {line_no}: expected {len(header)} fields, got {len(row)}")
        rows.append((line_no, row))
    return rows


def read_utf8(path: str | Path, error: type[Exception] = ValueError) -> str:
    """The text of a UTF-8 file, whatever the locale.

    A byte sequence that is not UTF-8 raises ``error`` naming the path and
    the line it is on; a path that cannot be read, such as a directory,
    raises ``error`` naming the path.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path} line {line}: not UTF-8 text: {exc}") from exc
