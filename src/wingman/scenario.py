"""Scenario orchestration: config loading, the run engine, trace recording.

One run function builds the agents, wires them to one broker (six bus
clients, their callbacks and five subscriptions) and runs every tick in
both run modes; the modes differ only in transport and pacing:

* ``deterministic`` - every agent talks through an in-process loopback
  broker on a virtual clock with a fixed per-tick order (wearable ->
  follower -> drone -> detector). Byte-identical outputs for identical
  (config, seed); never reads the wall clock, OS RNG or network.
* ``sockets`` - the same agents over a real TCP broker, paced by the
  wall clock. Useful as a live demo; not byte-reproducible.

Per tick the trace records the human and drone world poses *entering*
the tick; the drone then integrates its current command across the tick
and the detector runs on the post-step pose, stamped with the tick time.
"""

from __future__ import annotations

import math
import os
import random
import sys
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import TextIO

from wingman.agents import (
    Circle,
    DetectorParams,
    DroneAgent,
    Ellipse,
    TrajectorySpec,
    WearableSim,
    WorldObject,
    detect_objects,
    load_waypoints_csv,
    load_world_csv,
    read_headed_csv,
    read_utf8,
)
from wingman.cueing import AttentionModel, CueEngine
from wingman.evaluation import SyncReport, Trajectory, sync_report
from wingman.follower import FollowerConfig, FollowerLoop
from wingman.geometry import FrameId, Pose, Vec3, wearable_delta_to_drone_delta, wrap_angle
from wingman.protocol import (
    TOPIC_CMD,
    TOPIC_DETECTIONS,
    TOPIC_POSE,
    DetachMsg,
    canonical_json,
    encode_message,
    format_float,
)
from wingman.transport import Broker, MemoryTransport, MqttClient, SocketTransport, TcpBrokerServer
from wingman.transport.broker import DEFAULT_PORT

TRACE_HEADER = "t,hx,hy,hz,hyaw,dx,dy,dz,dyaw,mode"

# one revolution per 20 s, the desk-scale walking pace
_DEFAULT_ANGULAR_SPEED = 2 * math.pi / 20.0

PORT_ENV_VAR = "WINGMAN_BROKER_PORT"


class ConfigError(Exception):
    """The scenario configuration is invalid or references missing files."""


@dataclass(frozen=True)
class ScenarioConfig:
    trajectory: TrajectorySpec
    follower: FollowerConfig = field(default_factory=FollowerConfig)
    detector: DetectorParams = field(default_factory=DetectorParams)
    world: tuple[WorldObject, ...] = ()
    duration: float = 60.0
    seed: int = 0
    mode: str = "deterministic"
    human_start: Vec3 = field(default_factory=Vec3)
    drone_offset: tuple[float, float] = (-1.0, 0.0)  # world (x, z) offset from the human start
    detach_script: tuple[tuple[float, tuple[Vec3, ...]], ...] = ()  # (t, waypoints), in time order
    broker_host: str = "127.0.0.1"
    broker_port: int = DEFAULT_PORT

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigError(f"duration must be > 0, got {self.duration}")
        if self.mode not in ("deterministic", "sockets"):
            raise ConfigError(f"mode must be deterministic or sockets, got {self.mode!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not math.isfinite(self.duration * self.trajectory.rate):
            raise ConfigError(f"duration times the pose rate must be finite, got {self.duration}")
        if round(self.duration * self.trajectory.rate) < 1:
            raise ConfigError("duration too short for the pose rate: no ticks to run")
        if any(a[0] > b[0] for a, b in zip(self.detach_script, self.detach_script[1:])):
            raise ConfigError("detach_script must be in time order")
        ids = [obj.object_id for obj in self.world]
        if len(ids) != len(set(ids)):
            raise ConfigError("world object ids must be unique")


@dataclass(frozen=True)
class TraceRow:
    t: float
    human: Pose  # world frame
    drone: Pose  # world frame
    mode: str


@dataclass
class RunTrace:
    """Evidence record of one run: per-tick rows, bus log, mission events."""

    rows: list[TraceRow] = field(default_factory=list)
    messages: list[tuple[float, str, bytes]] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    human_start: Vec3 = field(default_factory=Vec3)
    drone_start: Vec3 = field(default_factory=Vec3)

    def human_trajectory(self) -> Trajectory:
        """Human path mapped into drone-frame coordinates (the follow target)."""
        return self._trajectory("human", self.human_start, "human-mapped")

    def drone_trajectory(self) -> Trajectory:
        return self._trajectory("drone", self.drone_start, "drone")

    def _trajectory(self, agent: str, start: Vec3, label: str) -> Trajectory:
        """One agent's horizontal path from ``start``, in drone-frame axes."""
        points = []
        for row in self.rows:
            mapped = wearable_delta_to_drone_delta(getattr(row, agent).position - start)
            points.append((mapped.x, mapped.z))
        return Trajectory(tuple(row.t for row in self.rows), tuple(points), label=label)


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> tuple[RunTrace, SyncReport]:
    """Run one scenario; optionally write trace.csv/report.json/messages.jsonl."""
    trace = _run(cfg)
    report = sync_report(trace.human_trajectory(), trace.drone_trajectory())
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_trace_csv(trace, out / "trace.csv")
        write_report_json(report, out / "report.json")
        write_messages_jsonl(trace, out / "messages.jsonl")
    return trace, report


_CLIENT_IDS = ("wearable", "follower", "cueing", "drone", "detector", "operator")


def _run(cfg: ScenarioConfig) -> RunTrace:
    """Build the agents, wire the six bus clients to one broker and run every tick.

    The modes differ only in each client's transport (loopback or TCP)
    and, in sockets mode, in the broker server, the wall-clock pacing,
    the final drain and the shutdown.
    """
    drone_start = cfg.human_start + Vec3(cfg.drone_offset[0], cfg.follower.altitude, cfg.drone_offset[1])
    trace = RunTrace(human_start=cfg.human_start, drone_start=drone_start)
    wearable = WearableSim(cfg.trajectory, cfg.seed)
    drone = DroneAgent(drone_start, cfg.follower.max_speed, wrap_angle(cfg.trajectory.kind.heading(0.0) + math.pi))
    follower = FollowerLoop(
        cfg.follower, on_event=lambda when, name, data: trace.events.append({"t": when, "event": name, **data})
    )
    cues = CueEngine(AttentionModel(), human_start=cfg.human_start)
    det_rng = random.Random(f"{cfg.seed}:detector")
    rate = cfg.trajectory.rate
    dt = 1.0 / rate
    t = 0.0  # the tick time that stamps each logged message
    broker = Broker()
    broker.on_publish = lambda topic, payload: trace.messages.append((t, topic, payload))
    sockets = cfg.mode == "sockets"
    if sockets:
        server = TcpBrokerServer(broker, cfg.broker_host, cfg.broker_port)
        try:
            server.start()
        except OSError as exc:
            raise RuntimeError(f"broker bind failed on {cfg.broker_host}:{cfg.broker_port}: {exc}") from exc

    clients: list[MqttClient] = []
    try:
        for client_id in _CLIENT_IDS:
            transport = SocketTransport(cfg.broker_host, server.port) if sockets else MemoryTransport(broker)
            clients.append(MqttClient(transport, client_id))
        wear_client, follower_client, cue_client, drone_client, detector_client, operator_client = clients

        follower.publish = follower_client.publish
        follower_client.on_message = follower.on_message
        cue_client.on_message = cues.on_message
        cues.publish = cue_client.publish
        drone_client.on_message = drone.on_message

        for client in clients:
            client.connect()
        follower_client.subscribe(TOPIC_POSE)
        follower_client.subscribe(TOPIC_CMD)
        cue_client.subscribe(TOPIC_POSE)
        cue_client.subscribe(TOPIC_DETECTIONS)
        drone_client.subscribe(TOPIC_CMD)

        script = cfg.detach_script
        fired = 0  # the script is in time order, so the orders fired are a prefix
        start = time.monotonic() if sockets else 0.0
        for k in range(int(round(cfg.duration * rate))):
            if sockets:
                lead = start + k * dt - time.monotonic()
                if lead > 0:
                    time.sleep(lead)
            t = k / rate
            while fired < len(script) and script[fired][0] <= t:
                operator_client.publish(TOPIC_CMD, encode_message(DetachMsg(script[fired][1], fired)))
                fired += 1
            truth, msg = wearable.next_pose()
            wear_client.publish(TOPIC_POSE, encode_message(msg))
            human = Pose(truth.position + cfg.human_start, truth.yaw, FrameId.WORLD, t)
            trace.rows.append(TraceRow(t, human, drone.world_pose(t), follower.mission.mode.value))
            drone.step(dt)
            for detection in detect_objects(drone.world_pose(t), cfg.world, cfg.detector, det_rng):
                detector_client.publish(TOPIC_DETECTIONS, encode_message(detection))
        if sockets:
            time.sleep(2 * dt)  # let in-flight messages drain
    finally:
        if sockets:
            for client in clients:
                try:
                    client.disconnect()
                except Exception:
                    pass
            server.stop()
    return trace


def open_artifact(path: str | Path) -> TextIO:
    """Open ``path`` to write an artifact: UTF-8 whatever the locale, lines end in ``\\n``."""
    return open(path, "w", encoding="utf-8", newline="\n")


def write_trace_csv(trace: RunTrace, path: str | Path) -> None:
    with open_artifact(path) as fh:
        fh.write(TRACE_HEADER + "\n")
        for row in trace.rows:
            h, d = row.human, row.drone
            values = [row.t, h.position.x, h.position.y, h.position.z, h.yaw,
                      d.position.x, d.position.y, d.position.z, d.yaw]
            fh.write(",".join(format_float(v) for v in values) + f",{row.mode}\n")


def read_trace_csv(path: str | Path) -> RunTrace:
    """Parse a trace.csv back into a RunTrace anchored at its first row.

    The first row's human and drone positions become the frame origins;
    bus messages and events are not part of the file.
    """
    rows = []
    for line_no, parts in read_headed_csv(path, TRACE_HEADER.split(","), ConfigError):
        try:
            t, hx, hy, hz, hyaw, dx, dy, dz, dyaw = (float(v) for v in parts[:9])
            human = Pose(Vec3(hx, hy, hz), hyaw, FrameId.WORLD, t)
            drone = Pose(Vec3(dx, dy, dz), dyaw, FrameId.WORLD, t)
        except ValueError as exc:
            raise ConfigError(f"{path} line {line_no}: {exc}") from exc
        rows.append(TraceRow(t, human, drone, parts[9]))
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return RunTrace(rows, human_start=rows[0].human.position, drone_start=rows[0].drone.position)


def write_report_json(report: SyncReport, path: str | Path) -> None:
    doc = {
        "dtw_distance": report.dtw_distance,
        "similarity": report.similarity,
        "path_length": report.path_length,
        "lag_estimate": report.lag_estimate,
    }
    with open_artifact(path) as fh:
        fh.write(canonical_json(doc) + "\n")


def write_messages_jsonl(trace: RunTrace, path: str | Path) -> None:
    """One line per message, as canonical_json({"t": t, "topic": topic, "payload": text}).

    Each line goes to the file as soon as it is rendered, so the file is
    never held in memory whole. A payload that is not UTF-8 (any TCP peer
    may publish one) keeps its undecodable bytes as ``\\xNN`` escapes.
    """
    heads: dict[str, str] = {}  # each topic escaped once
    with open_artifact(path) as fh:
        for t, topic, payload in trace.messages:
            head = heads.get(topic)
            if head is None:
                head = heads[topic] = f',"topic":{encode_basestring(topic)},"payload":'
            fh.write('{"t":' + format_float(t) + head + encode_basestring(payload.decode("utf-8", "backslashreplace")) + "}\n")


def report_summary(report: SyncReport, ticks: int | None = None) -> str:
    parts = [
        f"similarity={report.similarity:.4f}",
        f"dtw_distance={report.dtw_distance:.6g}",
        f"path_length={report.path_length}",
        f"lag={report.lag_estimate:.3f}s",
    ]
    if ticks is not None:
        parts.append(f"ticks={ticks}")
    return " ".join(parts)


def broker_port_default() -> int:
    """Default broker port honoring the environment override."""
    value = os.environ.get(PORT_ENV_VAR)
    if value is None:
        return DEFAULT_PORT
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{PORT_ENV_VAR} must be an integer, got {value!r}") from exc


def load_config(path: str | Path, overrides: dict | None = None) -> ScenarioConfig:
    """Read a JSON scenario file and apply flag overrides on top."""
    import json

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = json.loads(read_utf8(path, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON object expected")
    if overrides:
        doc = _merge(doc, overrides)
    return config_from_dict(doc, base_dir=path.parent)


def _merge(base: dict, overrides: dict) -> dict:
    merged = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = value
    return merged


_TOP_KEYS = {
    "mode", "duration", "seed", "trajectory", "follower", "detector", "world",
    "world_csv", "human_start", "drone_offset", "detach", "broker_host", "broker_port",
}


def config_from_dict(doc: dict, base_dir: str | Path = ".") -> ScenarioConfig:
    """Build and validate a ScenarioConfig from plain JSON data."""
    base_dir = Path(base_dir)
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    try:
        trajectory = _trajectory_from_dict(doc.get("trajectory", {"kind": "circle"}), base_dir)
        follower = _section_from_dict(doc, "follower")
        detector = _section_from_dict(doc, "detector")
        world = _world_from_dict(doc, base_dir)
        human_start = _vec3(doc.get("human_start", [0.0, 0.0, 0.0]), "human_start")
        offset = doc.get("drone_offset", [-1.0, 0.0])
        if not isinstance(offset, (list, tuple)) or len(offset) != 2:
            raise ConfigError("drone_offset must be a [x, z] pair")
        detach = _detach_from_dict(doc.get("detach", []))
        port = doc["broker_port"] if "broker_port" in doc else broker_port_default()
        if isinstance(port, bool) or not isinstance(port, int) or not 0 <= port <= 65535:
            raise ConfigError(f"broker_port must be 0..65535, got {port!r}")
        host = doc.get("broker_host", "127.0.0.1")
        if not isinstance(host, str) or not host:
            raise ConfigError(f"broker_host must be a non-empty string, got {host!r}")
        return ScenarioConfig(
            trajectory=trajectory,
            follower=follower,
            detector=detector,
            world=world,
            duration=_number(doc.get("duration", 60.0), "duration"),
            seed=doc.get("seed", 0),
            mode=doc.get("mode", "deterministic"),
            human_start=human_start,
            drone_offset=(_number(offset[0], "drone_offset[0]"), _number(offset[1], "drone_offset[1]")),
            detach_script=detach,
            broker_host=host,
            broker_port=port,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _number(value, name: str) -> float:
    """A config number as a float: no bool, and finite as a float (NaN fails ``<=``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _vec3(value, name: str) -> Vec3:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{name} must be an [x, y, z] triple")
    return Vec3(*(_number(v, f"{name}[{i}]") for i, v in enumerate(value)))


def _trajectory_from_dict(doc: dict, base_dir: Path) -> TrajectorySpec:
    if not isinstance(doc, dict):
        raise ConfigError("trajectory must be an object")
    doc = dict(doc)
    kind_name = doc.pop("kind", "circle")
    noise_sigma = _number(doc.pop("noise_sigma", 0.0), "trajectory.noise_sigma")
    rate = _number(doc.pop("rate", 10.0), "trajectory.rate")
    if kind_name == "circle":
        kind = Circle(
            radius=_number(doc.pop("radius", 0.5), "trajectory.radius"),
            angular_speed=_number(doc.pop("angular_speed", _DEFAULT_ANGULAR_SPEED), "trajectory.angular_speed"),
        )
    elif kind_name == "ellipse":
        kind = Ellipse(
            semi_axis_a=_number(doc.pop("semi_axis_a", 0.75), "trajectory.semi_axis_a"),
            semi_axis_b=_number(doc.pop("semi_axis_b", 0.5), "trajectory.semi_axis_b"),
            angular_speed=_number(doc.pop("angular_speed", _DEFAULT_ANGULAR_SPEED), "trajectory.angular_speed"),
        )
    elif kind_name == "waypoints":
        csv_path = doc.pop("csv", None)
        if csv_path is None:
            raise ConfigError("waypoints trajectory requires a csv path")
        resolved = base_dir / csv_path
        if not resolved.exists():
            raise ConfigError(f"waypoints csv {resolved} does not exist")
        kind = load_waypoints_csv(resolved)
    else:
        raise ConfigError(f"unknown trajectory kind {kind_name!r}")
    if doc:
        raise ConfigError(f"unknown trajectory keys: {', '.join(sorted(doc))}")
    return TrajectorySpec(kind=kind, noise_sigma=noise_sigma, rate=rate)


# flat config sections: class, and config key -> (class field, parser)
_SECTIONS = {
    "follower": (FollowerConfig, {
        "update_period": ("update_period", _number),
        "max_speed": ("max_speed", _number),
        "altitude": ("altitude", _number),
        "deadband": ("deadband", _number),
        "follow_offset": ("follow_offset", _vec3),
    }),
    "detector": (DetectorParams, {
        "fov": ("fov", _number),
        "range": ("range_m", _number),
        "p_detect": ("p_detect", _number),
        "pos_noise_sigma": ("pos_noise_sigma", _number),
    }),
}


def _section_from_dict(config: dict, section: str):
    """Build one flat section's object; absent keys keep the class defaults."""
    cls, keys = _SECTIONS[section]
    doc = config.get(section, {})
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} must be an object")
    doc = dict(doc)
    kwargs = {}
    for key, (name, parse) in keys.items():
        if key in doc:
            kwargs[name] = parse(doc.pop(key), f"{section}.{key}")
    if doc:
        raise ConfigError(f"unknown {section} keys: {', '.join(sorted(doc))}")
    return cls(**kwargs)


def _world_from_dict(doc: dict, base_dir: Path) -> tuple[WorldObject, ...]:
    if "world" in doc and "world_csv" in doc:
        raise ConfigError("give either world or world_csv, not both")
    if "world_csv" in doc:
        resolved = base_dir / doc["world_csv"]
        if not resolved.exists():
            raise ConfigError(f"world csv {resolved} does not exist")
        return tuple(load_world_csv(resolved))
    objects = []
    for i, entry in enumerate(doc.get("world", [])):
        if not isinstance(entry, dict):
            raise ConfigError(f"world[{i}] must be an object")
        try:
            position = Vec3(*(_number(entry[axis], f"world[{i}].{axis}") for axis in "xyz"))
            objects.append(WorldObject(entry["id"], entry.get("label", ""), position))
        except KeyError as exc:
            raise ConfigError(f"world[{i}] missing field {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise ConfigError(f"world[{i}].{exc}") from exc
    return tuple(objects)


def _detach_from_dict(entries) -> tuple[tuple[float, tuple[Vec3, ...]], ...]:
    if not isinstance(entries, list):
        raise ConfigError("detach must be a list of {t, waypoints} objects")
    script = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "t" not in entry or "waypoints" not in entry:
            raise ConfigError(f"detach[{i}] must have t and waypoints")
        waypoints = tuple(_vec3(w, f"detach[{i}].waypoints[{j}]") for j, w in enumerate(entry["waypoints"]))
        if not waypoints:
            raise ConfigError(f"detach[{i}] needs at least one waypoint")
        script.append((_number(entry["t"], f"detach[{i}].t"), waypoints))
    return tuple(sorted(script, key=lambda e: e[0]))
