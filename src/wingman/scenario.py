"""Scenario orchestration: config loading, the run engine, trace recording.

One table walk reads every config object: each refuses unknown keys, and
a key left out keeps its dataclass default. One run function builds the
agents, wires them to one broker (six bus clients, their callbacks and
five subscriptions) and runs every tick in both run modes; the modes
differ only in transport and pacing, and a fault in a callback fails both:

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
from wingman.errors import ConfigError, broker_port_default, check_broker_port
from wingman.evaluation import SyncReport, Trajectory, sync_report
from wingman.follower import FollowerConfig, FollowerLoop
from wingman.geometry import FrameId, Pose, Vec3, slotted, wearable_delta_to_drone_delta, wrap_angle
from wingman.protocol import (
    FLOAT_SPEC,
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
# one trace.csv line: nine floats as the wire writes them, then the mode
# ("%.9g" % x is format(x, ".9g"), so format_float's text)
TRACE_ROW = ",".join(["%" + FLOAT_SPEC] * 9) + ",%s\n"


@dataclass(frozen=True)
class ScenarioConfig:
    trajectory: TrajectorySpec = field(default_factory=lambda: TrajectorySpec(Circle()))
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
        if len(self.drone_offset) != 2:
            raise ConfigError("drone_offset must be a [x, z] pair")
        if any(a[0] > b[0] for a, b in zip(self.detach_script, self.detach_script[1:])):
            raise ConfigError("detach_script must be in time order")
        ids = [obj.object_id for obj in self.world]
        if len(ids) != len(set(ids)):
            raise ConfigError("world object ids must be unique")
        if not all(waypoints for _, waypoints in self.detach_script):
            raise ConfigError("each detach order needs at least one waypoint")
        check_broker_port(self.broker_port)
        if not isinstance(self.broker_host, str) or not self.broker_host:
            raise ConfigError(f"broker_host must be a non-empty string, got {self.broker_host!r}")


@slotted
@dataclass(frozen=True, slots=True)
class TraceRow:
    """One tick of a run."""

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
    """Run one scenario; optionally write trace.csv/report.json/messages.jsonl.

    ``out_dir`` is made before the first tick, so a path that cannot be a
    directory, such as an existing file or a path under one, is a
    ConfigError naming it before anything runs.
    """
    if out_dir is not None:
        out = Path(out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{out}: cannot make the output directory: {exc.strerror or exc}") from exc
    trace = _run(cfg)
    report = sync_report(trace.human_trajectory(), trace.drone_trajectory())
    if out_dir is not None:
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

    def raise_reader_fault() -> None:  # a fault that ended a TCP reader thread fails the run
        for client in clients:
            fault = client.transport.fault
            if fault is not None:
                raise RuntimeError(f"client {client.client_id} failed: {fault!r}") from fault

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
                raise_reader_fault()
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
            raise_reader_fault()
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
    """Open ``path`` to write an artifact: UTF-8 whatever the locale, lines end in ``\\n``.

    A path that cannot be opened, such as a directory, is a ConfigError naming it.
    """
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def write_trace_csv(trace: RunTrace, path: str | Path) -> None:
    """One line per row, each rendered by one ``%`` format of ``TRACE_ROW``
    and written as soon as it is rendered."""
    with open_artifact(path) as fh:
        fh.write(TRACE_HEADER + "\n")
        for row in trace.rows:
            h, d = row.human, row.drone
            hp, dp = h.position, d.position
            fh.write(TRACE_ROW % (row.t, hp.x, hp.y, hp.z, h.yaw, dp.x, dp.y, dp.z, d.yaw, row.mode))


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
    # a run logs its messages in tick order, each tick's with one time
    # object, so the time prefix is rendered once per tick; another object,
    # even an equal one (0.0 and -0.0 are equal), is rendered again
    last_t, stamp = None, ""
    with open_artifact(path) as fh:
        for t, topic, payload in trace.messages:
            if t is not last_t:
                last_t, stamp = t, '{"t":' + format_float(t)
            head = heads.get(topic)
            if head is None:
                head = heads[topic] = f',"topic":{encode_basestring(topic)},"payload":'
            fh.write(stamp + head + encode_basestring(payload.decode("utf-8", "backslashreplace")) + "}\n")


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


def config_from_dict(doc: dict, base_dir: str | Path = ".") -> ScenarioConfig:
    """Build and validate a ScenarioConfig from plain JSON data, resolving CSV paths against ``base_dir``.

    One walk reads every config object by its table (see ``_object``). A key left out keeps its
    dataclass default; only ``broker_port`` falls back to ``WINGMAN_BROKER_PORT`` first.
    """
    base_dir = Path(base_dir)

    def csv(load, what: str):
        """A parser of a CSV path relative to ``base_dir``, read by ``load``."""
        def parse(value, name: str):
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a path, got {value!r}")
            resolved = base_dir / value
            if not resolved.exists():
                raise ConfigError(f"{what} csv {resolved} does not exist")
            return load(resolved)
        return parse

    waypoints = {**_SPEC_KEYS, "csv": ("path", csv(load_waypoints_csv, "waypoints"))}
    kinds = {**_KINDS, "waypoints": _object(_spec(lambda path: path), waypoints, required=("csv",))}
    read = _object(ScenarioConfig, {
        "mode": ("mode", _as_is),
        "duration": ("duration", _number),
        "seed": ("seed", _as_is),
        "trajectory": ("trajectory", lambda value, name: _trajectory(value, name, kinds)),
        "follower": ("follower", _FOLLOWER),
        "detector": ("detector", _DETECTOR),
        "world": ("world", _list(_WORLD_OBJECT)),
        "world_csv": ("world", csv(lambda path: tuple(load_world_csv(path)), "world")),
        "human_start": ("human_start", _vec3),
        "drone_offset": ("drone_offset", _list(_number)),
        "detach": ("detach_script", _detach_script),
        "broker_host": ("broker_host", _as_is),
        "broker_port": ("broker_port", _as_is),
    })
    try:
        if "broker_port" not in doc:
            doc = {**doc, "broker_port": broker_port_default()}
        return read(doc, "")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _object(make, keys: dict, required: tuple = ()):
    """A parser of one config object, driven by its table ``keys``: config key -> (keyword of
    ``make``, parser of the value by its dotted name). Only the keys given reach ``make``. An
    unknown key, a missing required one, two keys for one keyword or a string value without a
    UTF-8 form (a surrogate, which a JSON escape such as "\\ud800" can hold) are refused, and a
    ValueError of ``make`` is prefixed with the object's name.
    """
    def parse(doc, name: str):
        label = name or "config"
        if not isinstance(doc, dict):
            raise ConfigError(f"{label} must be an object")
        unknown = doc.keys() - keys
        if unknown:
            raise ConfigError(f"unknown {label} keys: {', '.join(sorted(unknown))}")
        kwargs, given = {}, {}
        for key, (keyword, read) in keys.items():
            if key in doc:
                if keyword in given:
                    raise ConfigError(f"give either {given[keyword]} or {key}, not both")
                given[keyword] = key
                value, value_name = doc[key], f"{name}.{key}" if name else key
                if isinstance(value, str) and not value.isascii():
                    try:
                        value.encode("utf-8")
                    except UnicodeEncodeError:
                        raise ConfigError(f"{value_name} must not hold a surrogate, got {value!r}") from None
                kwargs[keyword] = read(value, value_name)
            elif key in required:
                raise ConfigError(f"{label} missing field {key!r}")
        try:
            return make(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{name}.{exc}" if name else str(exc)) from exc
    return parse


def _list(read):
    """A parser of a config list whose items ``read`` parses, each named ``name[i]``."""
    def parse(value, name: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list")
        return tuple(read(item, f"{name}[{i}]") for i, item in enumerate(value))
    return parse


def _as_is(value, name: str):  # a config value that its constructor checks
    return value


def _number(value, name: str) -> float:
    """A config number as a float: no bool, and finite as a float (NaN fails ``<=``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _vec3(value, name: str) -> Vec3:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{name} must be an [x, y, z] triple")
    return Vec3(*(_number(v, f"{name}[{i}]") for i, v in enumerate(value)))


def _spec(make_kind):
    """TrajectorySpec's constructor: ``make_kind`` builds the kind from the keywords not the spec's."""
    def make(kind=None, **kwargs):  # the kind's name has already picked its table
        spec = {key: kwargs.pop(key) for key in ("noise_sigma", "rate") if key in kwargs}
        return TrajectorySpec(make_kind(**kwargs), **spec)
    return make


# a trajectory object holds TrajectorySpec's keys and those of its kind
_SPEC_KEYS = {"kind": ("kind", _as_is), "noise_sigma": ("noise_sigma", _number), "rate": ("rate", _number)}
_KINDS = {
    "circle": _object(_spec(Circle), {
        **_SPEC_KEYS, "radius": ("radius", _number), "angular_speed": ("angular_speed", _number)}),
    "ellipse": _object(_spec(Ellipse), {
        **_SPEC_KEYS, "semi_axis_a": ("semi_axis_a", _number), "semi_axis_b": ("semi_axis_b", _number),
        "angular_speed": ("angular_speed", _number)}),
}


def _trajectory(doc, name: str, kinds: dict) -> TrajectorySpec:
    """A trajectory object, read by the table of its ``kind`` (a circle if not given)."""
    kind = doc.get("kind", "circle") if isinstance(doc, dict) else "circle"
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown trajectory kind {kind!r}")
    return kinds[kind](doc, name)


_FOLLOWER = _object(FollowerConfig, {"update_period": ("update_period", _number), "max_speed": ("max_speed", _number),
                                      "altitude": ("altitude", _number), "deadband": ("deadband", _number),
                                      "follow_offset": ("follow_offset", _vec3)})
_DETECTOR = _object(DetectorParams, {"fov": ("fov", _number), "range": ("range_m", _number),
                                     "p_detect": ("p_detect", _number), "pos_noise_sigma": ("pos_noise_sigma", _number)})
_WORLD_OBJECT = _object(
    lambda object_id, x, y, z, label="": WorldObject(object_id, label, Vec3(x, y, z)),
    {"id": ("object_id", _as_is), "label": ("label", _as_is),
     "x": ("x", _number), "y": ("y", _number), "z": ("z", _number)},
    required=("id", "x", "y", "z"),
)
_DETACH_ORDERS = _list(_object(lambda t, waypoints: (t, waypoints),
                               {"t": ("t", _number), "waypoints": ("waypoints", _list(_vec3))}, required=("t", "waypoints")))


def _detach_script(value, name: str) -> tuple[tuple[float, tuple[Vec3, ...]], ...]:
    """The detach orders in time order; the sort is stable, so ties keep their config order."""
    return tuple(sorted(_DETACH_ORDERS(value, name), key=lambda order: order[0]))
