"""Dead-reckoning follower: periodic assessment and the mission FSM.

The follower consumes the wearable pose stream, estimates the drone
displacement needed from the human displacement over each update period,
and publishes absolute position commands with speed = distance moved
divided by the period (clamped, direction preserved). The drone's
position is dead-reckoned: each command is assumed to complete, so the
last commanded target is the base for the next one.

Mission modes: FOLLOW (mimic the human), DETACH (fly ordered waypoints
independently), RETURN (boomerang back to the last known human position
plus the follow offset, re-targeting as fresh poses move the anchor).
Leg completion is itself dead-reckoned from command speed and distance;
the follower never observes the drone.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass, field, replace
from typing import Callable

from wingman.geometry import Pose, Vec3, slotted, wearable_delta_to_drone_delta, wrap_angle
from wingman.protocol import (
    TOPIC_CMD,
    TOPIC_POSE,
    CommandMsg,
    DetachMsg,
    PoseMsg,
    ValidationError,
    decode_message,
    encode_message,
)


class StalePoseError(Exception):
    """Pose pair is out of order; no command may be produced from it."""


class MissionProtocolError(Exception):
    """Event is illegal in the current mission mode; state unchanged."""


@dataclass(frozen=True)
class FollowerConfig:
    update_period: float = 0.1
    max_speed: float = 1.0
    altitude: float = 0.5
    follow_offset: Vec3 = field(default_factory=Vec3)
    deadband: float = 0.01  # meters of motion per period below which no command is sent

    def __post_init__(self) -> None:
        if self.update_period <= 0:
            raise ValueError(f"update_period must be > 0, got {self.update_period}")
        if self.max_speed <= 0:
            raise ValueError(f"max_speed must be > 0, got {self.max_speed}")
        if self.deadband < 0:
            raise ValueError(f"deadband must be >= 0, got {self.deadband}")


def assess(prev: Pose, curr: Pose, drone_pos: Vec3, cfg: FollowerConfig) -> IssueCommand | None:
    """One dead-reckoning update from a consecutive wearable pose pair.

    The caller is responsible for feeding pairs spaced by the configured
    update period. Motion below the deadband produces no command. The
    commanded yaw keeps the drone facing backwards relative to the human.
    """
    if prev.frame is not curr.frame or prev.frame.value != "wearable":
        raise ValueError("assess: both poses must be in the wearable frame")
    dt = curr.timestamp - prev.timestamp
    if dt <= 0:
        raise StalePoseError(f"non-monotone timestamps: {prev.timestamp} -> {curr.timestamp}")
    delta_d = wearable_delta_to_drone_delta(curr.position - prev.position)
    moved = delta_d.horizontal_norm()
    if moved == 0.0 or moved < cfg.deadband:
        return None
    speed = min(moved / dt, cfg.max_speed)
    return IssueCommand(drone_pos + delta_d, wrap_angle(curr.yaw + math.pi), speed)


class Mode(enum.Enum):
    FOLLOW = "FOLLOW"
    DETACH = "DETACH"
    RETURN = "RETURN"


@slotted
@dataclass(frozen=True, slots=True)
class MissionState:
    mode: Mode = Mode.FOLLOW
    waypoints: tuple[Vec3, ...] = ()
    index: int = 0
    anchor: Pose | None = None  # last known human pose (wearable frame)


# events
@slotted
@dataclass(frozen=True, slots=True)
class PoseUpdate:
    pose: Pose


@dataclass(frozen=True)
class DetachOrder:
    waypoints: tuple[Vec3, ...]


@dataclass(frozen=True)
class WaypointReached:
    pass


@dataclass(frozen=True)
class ReturnArrived:
    pass


MissionEvent = PoseUpdate | DetachOrder | WaypointReached | ReturnArrived


# actions
@slotted
@dataclass(frozen=True, slots=True)
class IssueCommand:
    target: Vec3
    yaw: float
    speed: float


@slotted
@dataclass(frozen=True, slots=True)
class RunAssess:
    pose: Pose


MissionAction = IssueCommand | RunAssess


def return_target(anchor: Pose | None, cfg: FollowerConfig) -> Vec3:
    """Drone-frame point that rejoins the anchored human pose."""
    position = anchor.position if anchor is not None else Vec3()
    return wearable_delta_to_drone_delta(position) + cfg.follow_offset


def _anchor_yaw(state: MissionState) -> float:
    return state.anchor.yaw if state.anchor is not None else 0.0


def mission_step(
    state: MissionState, event: MissionEvent, cfg: FollowerConfig
) -> tuple[MissionState, list[MissionAction]]:
    """Pure mission transition: (state, event) -> (state', actions).

    Illegal event/mode pairs raise MissionProtocolError and leave the
    state unchanged. PoseUpdate refreshes the anchor in every mode,
    triggers an assessment only in FOLLOW, and re-targets the return leg
    in RETURN so the boomerang homes onto a moving human.
    """
    if isinstance(event, PoseUpdate):
        new = MissionState(state.mode, state.waypoints, state.index, event.pose)
        yaw = wrap_angle(event.pose.yaw + math.pi)
        if state.mode is Mode.FOLLOW:
            return new, [RunAssess(event.pose)]
        if state.mode is Mode.RETURN:
            return new, [IssueCommand(return_target(event.pose, cfg), yaw, cfg.max_speed)]
        return new, []
    if isinstance(event, DetachOrder):
        if state.mode is not Mode.FOLLOW:
            raise MissionProtocolError(f"DetachOrder illegal in {state.mode.value}")
        waypoints = tuple(event.waypoints)
        if not waypoints:
            raise MissionProtocolError("DetachOrder with no waypoints")
        new = replace(state, mode=Mode.DETACH, waypoints=waypoints, index=0)
        return new, [IssueCommand(waypoints[0], wrap_angle(_anchor_yaw(state) + math.pi), cfg.max_speed)]
    if isinstance(event, WaypointReached):
        if state.mode is not Mode.DETACH:
            raise MissionProtocolError(f"WaypointReached illegal in {state.mode.value}")
        yaw = wrap_angle(_anchor_yaw(state) + math.pi)
        nxt = state.index + 1
        if nxt < len(state.waypoints):
            return replace(state, index=nxt), [IssueCommand(state.waypoints[nxt], yaw, cfg.max_speed)]
        new = replace(state, mode=Mode.RETURN, waypoints=(), index=0)
        return new, [IssueCommand(return_target(state.anchor, cfg), yaw, cfg.max_speed)]
    if isinstance(event, ReturnArrived):
        if state.mode is not Mode.RETURN:
            raise MissionProtocolError(f"ReturnArrived illegal in {state.mode.value}")
        return replace(state, mode=Mode.FOLLOW), []
    raise MissionProtocolError(f"unknown event {event!r}")


@dataclass
class _LegFlight:
    """Dead-reckoned progress of one DETACH/RETURN command."""

    origin: Vec3
    target: Vec3
    speed: float
    start_t: float

    def eta(self) -> float:
        distance = (self.target - self.origin).norm()
        return self.start_t + distance / self.speed

    def position(self, t: float) -> Vec3:
        to_target = self.target - self.origin
        distance = to_target.norm()
        if distance == 0.0:
            return self.target
        travelled = min(max(t - self.start_t, 0.0) * self.speed, distance)
        return self.origin + to_target * (travelled / distance)


class FollowerLoop:
    """Wires the assessor and mission FSM to the message bus.

    Purely message-driven: pose messages carry the clock, so the loop
    behaves identically under the virtual clock and over live sockets.
    The pose pairing, dead-reckoned base and mission state are guarded by
    one lock so each assessment reads them atomically.
    """

    def __init__(
        self,
        cfg: FollowerConfig,
        publish: Callable[[str, bytes], None] | None = None,
        on_event: Callable[[float, str, dict], None] | None = None,
    ) -> None:
        self.cfg = cfg
        self.publish = publish
        self.on_event = on_event
        self.mission = MissionState()
        self.stale_count = 0
        self.missed_count = 0
        self.protocol_error_count = 0
        self._prev: Pose | None = None
        self._held: Pose | None = None  # a pairing start behind the human since a gap
        self._base = Vec3()  # drone-frame position the next follow command builds on
        self._flight: _LegFlight | None = None
        self._last_seq: dict[str, int] = {}
        self._last_t: float | None = None
        self._next_cmd_seq = 0
        self._lock = threading.Lock()

    def on_message(self, topic: str, payload: bytes) -> None:
        """Handle one payload. The broker delivers this loop's own commands
        back to it; ``decode_message`` returns each unparsed while it is the
        last command encoded, and a ``CommandMsg`` is ignored."""
        if topic not in (TOPIC_POSE, TOPIC_CMD):
            return
        try:
            msg = decode_message(topic, payload)
        except ValidationError:
            self.protocol_error_count += 1
            return
        if isinstance(msg, PoseMsg):
            self._on_pose(msg)
        elif isinstance(msg, DetachMsg):
            self._on_detach(msg)

    def _on_pose(self, msg: PoseMsg) -> None:
        with self._lock:
            last_seq = self._last_seq.get(msg.source_id)
            if last_seq is not None and msg.sequence <= last_seq:
                self.stale_count += 1
                return
            if self._last_t is not None and msg.pose.timestamp <= self._last_t:
                self.stale_count += 1
                return
            self._last_seq[msg.source_id] = msg.sequence
            self._last_t = msg.pose.timestamp
            self._fire_leg_events(msg.pose.timestamp)
            state, actions = mission_step(self.mission, PoseUpdate(msg.pose), self.cfg)
            self.mission = state
            self._apply(actions, msg.pose.timestamp)

    def _on_detach(self, msg: DetachMsg) -> None:
        with self._lock:
            now = self._last_t if self._last_t is not None else 0.0
            try:
                state, actions = mission_step(self.mission, DetachOrder(msg.waypoints), self.cfg)
            except MissionProtocolError:
                self.protocol_error_count += 1
                return
            self.mission = state
            self._emit(now, "detach_started", {"waypoints": len(msg.waypoints)})
            self._apply(actions, now)

    def _fire_leg_events(self, now: float) -> None:
        while self._flight is not None and self.mission.mode is not Mode.FOLLOW:
            if now + 1e-9 < self._flight.eta():
                return
            arrival_t = self._flight.eta()
            if self.mission.mode is Mode.DETACH:
                state, actions = mission_step(self.mission, WaypointReached(), self.cfg)
                self.mission = state
                self._emit(now, "waypoint_reached", {})
                if state.mode is Mode.RETURN:
                    self._emit(now, "return_started", {})
                self._apply(actions, arrival_t)
            else:  # RETURN
                target = self._flight.target
                state, _ = mission_step(self.mission, ReturnArrived(), self.cfg)
                self.mission = state
                self._base = target
                self._flight = None
                self._prev = None  # restart pose pairing cleanly
                self._emit(now, "follow_resumed", {"target": target.as_tuple()})

    def _apply(self, actions: list[MissionAction], now: float) -> None:
        for action in actions:
            if isinstance(action, RunAssess):
                self._run_assess(action.pose)
            elif isinstance(action, IssueCommand):
                origin = self._flight.position(now) if self._flight is not None else self._base
                self._flight = _LegFlight(origin, action.target, action.speed, now)
                self._send(action)

    def _run_assess(self, pose: Pose) -> None:
        cfg = self.cfg
        prev = self._prev
        if prev is None:
            self._prev = pose
            return
        gap = pose.timestamp - prev.timestamp
        if gap < cfg.update_period - 1e-9:
            return  # accumulate until a full period has elapsed
        if gap > 2 * cfg.update_period + 1e-9:
            # missed updates: hold position, and restart the pairing at this
            # pose's time but from the last paired position, so the
            # displacement the gap skipped is kept for the next commands
            self.missed_count += 1
            self._prev = self._held = replace(prev, timestamp=pose.timestamp)
            return
        if prev is self._held:
            cmd = self._catch_up(prev, pose)
        else:
            try:
                cmd = assess(prev, pose, self._base, cfg)
            except StalePoseError:
                self.stale_count += 1
                return
            self._prev = pose
        if cmd is not None:
            self._base = cmd.target
            self._send(cmd)

    def _catch_up(self, held: Pose, pose: Pose) -> IssueCommand | None:
        """The assessment from a pairing restarted across a gap: its command
        covers as much of the displacement since ``held`` as ``max_speed``
        reaches in the period, deadband or not, and the pairing restarts
        from the point it reaches, so the rest is kept for the next one."""
        delta = pose.position - held.position
        moved = delta.horizontal_norm()
        reach = self.cfg.max_speed * (pose.timestamp - held.timestamp)
        if moved > reach:
            pose = self._held = replace(pose, position=held.position + delta * (reach / moved))
        self._prev = pose
        return assess(held, pose, self._base, replace(self.cfg, deadband=0.0))

    def _send(self, cmd: IssueCommand) -> None:
        msg = CommandMsg(cmd.target, cmd.yaw, cmd.speed, self._next_cmd_seq)
        self._next_cmd_seq += 1
        if self.publish is not None:
            self.publish(TOPIC_CMD, encode_message(msg))

    def _emit(self, t: float, name: str, data: dict) -> None:
        if self.on_event is not None:
            self.on_event(t, name, data)
