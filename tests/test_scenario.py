import dataclasses
import hashlib
import json
import math
import random
import struct
import threading
import tracemalloc
from collections import Counter
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np
import pytest

from conftest import world_to_drone_frame
from wingman import cueing, follower, scenario
from wingman.geometry import FrameId, Pose, Vec3
from wingman.protocol import (
    FLOAT_SPEC,
    TOPIC_CMD,
    TOPIC_CUES,
    TOPIC_DETECTIONS,
    TOPIC_POSE,
    DetachMsg,
    canonical_json,
    decode_message,
    format_float,
)
from wingman.scenario import (
    ConfigError,
    RunTrace,
    ScenarioConfig,
    TraceRow,
    broker_port_default,
    config_from_dict,
    load_config,
    run_scenario,
    write_messages_jsonl,
    write_trace_csv,
)
from wingman.transport import MemoryTransport, PacketDecoder, packets
from wingman.transport import broker as broker_module
from wingman.transport import client as client_module


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        config_from_dict({"duration": 0})
    with pytest.raises(ConfigError):
        config_from_dict({"duration": -3})
    with pytest.raises(ConfigError):
        config_from_dict({"mode": "hybrid"})
    with pytest.raises(ConfigError):
        config_from_dict({"seed": -1})
    with pytest.raises(ConfigError):
        config_from_dict({"fuel": 10})
    with pytest.raises(ConfigError):
        config_from_dict({"trajectory": {"kind": "square"}})
    with pytest.raises(ConfigError):
        config_from_dict({"trajectory": {"kind": "circle", "radius": -1}})
    with pytest.raises(ConfigError):
        config_from_dict({"duration": 0.01})  # no ticks at the default rate
    with pytest.raises(ConfigError):
        config_from_dict({"world": [{"id": "a", "x": 0, "y": 0, "z": 0}],
                          "world_csv": "x.csv"})


def test_config_missing_files_fail_at_load(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        config_from_dict({"trajectory": {"kind": "waypoints", "csv": "nope.csv"}}, tmp_path)
    with pytest.raises(ConfigError, match="does not exist"):
        config_from_dict({"world_csv": "nope.csv"}, tmp_path)
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(tmp_path / "missing.json")


def test_load_config_with_overrides(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({
        "duration": 30.0,
        "seed": 4,
        "trajectory": {"kind": "ellipse", "semi_axis_a": 0.75, "semi_axis_b": 0.5},
    }))
    cfg = load_config(cfg_path, {"duration": 5.0, "trajectory": {"rate": 20.0}})
    assert cfg.duration == 5.0
    assert cfg.seed == 4
    assert cfg.trajectory.rate == 20.0
    assert cfg.trajectory.kind.semi_axis_a == 0.75


def test_config_resolves_csvs_relative_to_file(tmp_path):
    (tmp_path / "way.csv").write_text("t,x,y,z\n0,0,0,0\n1,1,0,0\n")
    (tmp_path / "world.csv").write_text("id,label,x,y,z\ncrate,box,-2,0,0\n")
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({
        "duration": 2.0,
        "trajectory": {"kind": "waypoints", "csv": "way.csv"},
        "world_csv": "world.csv",
    }))
    cfg = load_config(cfg_path)
    assert len(cfg.world) == 1
    trace, report = run_scenario(cfg)
    assert len(trace.rows) == 20


def test_port_env_override(monkeypatch, tmp_path):
    monkeypatch.delenv("WINGMAN_BROKER_PORT", raising=False)
    assert broker_port_default() == 1883
    monkeypatch.setenv("WINGMAN_BROKER_PORT", "2883")
    assert broker_port_default() == 2883
    # precedence: flag (an override) > config file > environment
    assert config_from_dict({}).broker_port == 2883
    assert config_from_dict({"broker_port": 1999}).broker_port == 1999
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({"broker_port": 1999}))
    assert load_config(cfg_path).broker_port == 1999
    assert load_config(cfg_path, {"broker_port": 1234}).broker_port == 1234
    monkeypatch.setenv("WINGMAN_BROKER_PORT", "not-a-port")
    with pytest.raises(ConfigError):
        broker_port_default()
    # the environment is read only when no port is given
    with pytest.raises(ConfigError):
        config_from_dict({})
    assert config_from_dict({"broker_port": 1999}).broker_port == 1999
    assert load_config(cfg_path).broker_port == 1999


def test_each_default_and_broker_check_has_one_home():
    # the parser passes only the keys given, so the dataclass defaults are the config defaults
    assert config_from_dict({"broker_port": 1883}) == ScenarioConfig()
    # a config built in Python is checked like one read from a file
    for bad in ({"broker_port": True}, {"broker_port": 70000}, {"broker_port": -1}, {"broker_host": 5},
                {"broker_host": ""}):
        with pytest.raises(ConfigError, match=f"^{next(iter(bad))} must be"):
            ScenarioConfig(**bad)


def base_cfg(**kw) -> ScenarioConfig:
    doc = {"duration": 3.0, "seed": 11}
    doc.update(kw)
    return config_from_dict(doc)


def test_deterministic_run_shape():
    trace, report = run_scenario(base_cfg())
    assert len(trace.rows) == 30
    assert [row.t for row in trace.rows] == [k / 10.0 for k in range(30)]
    assert all(row.mode == "FOLLOW" for row in trace.rows)
    poses = [m for m in trace.messages if m[1] == TOPIC_POSE]
    commands = [m for m in trace.messages if m[1] == TOPIC_CMD]
    assert len(poses) == 30  # each published pose logged exactly once
    assert len(commands) == 29  # every pose pair yields a command on this path
    assert 0.0 < report.similarity <= 1.0


def test_message_log_sequences_are_attributable():
    trace, _ = run_scenario(base_cfg())
    pose_seqs = [
        decode_message(topic, payload).sequence
        for _, topic, payload in trace.messages
        if topic == TOPIC_POSE
    ]
    assert pose_seqs == list(range(30))
    cmd_seqs = [
        decode_message(topic, payload).sequence
        for _, topic, payload in trace.messages
        if topic == TOPIC_CMD
    ]
    assert cmd_seqs == sorted(cmd_seqs)


def test_trajectories_start_at_frame_origins():
    trace, _ = run_scenario(base_cfg())
    human = trace.human_trajectory()
    drone = trace.drone_trajectory()
    assert human.points[0] == (0.0, 0.0)
    assert drone.points[0] == (0.0, 0.0)
    assert human.times == drone.times


def test_world_objects_produce_detections_and_deduplicated_cues():
    # the drone starts a meter behind the human facing -z and sweeps
    # toward +x as the human rounds the circle; put objects in that sweep
    cfg = base_cfg(
        duration=6.0,
        world=[
            {"id": "crate", "label": "box", "x": -1.0, "y": 0.0, "z": -1.5},
            {"id": "plant", "label": "plant", "x": 0.5, "y": 0.0, "z": -0.5},
        ],
    )
    trace, _ = run_scenario(cfg)
    detections = [m for m in trace.messages if m[1] == TOPIC_DETECTIONS]
    cues = [m for m in trace.messages if m[1] == TOPIC_CUES]
    assert detections, "expected the rear-facing detector to sight the objects"
    assert cues, "expected in-range detections to produce cues"
    per_object: dict[str, list[float]] = {}
    for _, topic, payload in cues:
        cue = decode_message(topic, payload)
        per_object.setdefault(cue.object_id, []).append(cue.timestamp)
    for times in per_object.values():
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 1.0 - 1e-9 for gap in gaps)


def test_detach_scenario_mission_cycle():
    cfg = base_cfg(
        duration=20.0,
        detach=[{"t": 5.0, "waypoints": [[0.3, 0, 0.3], [0.5, 0, 0.0]]}],
    )
    trace, _ = run_scenario(cfg)
    modes = [row.mode for row in trace.rows]
    assert "DETACH" in modes and "RETURN" in modes
    assert modes[-1] == "FOLLOW"
    names = [e["event"] for e in trace.events]
    assert names[0] == "detach_started"
    assert names[-1] == "follow_resumed"
    resumed = trace.events[-1]
    row = next(r for r in trace.rows if abs(r.t - resumed["t"]) < 1e-9)
    drone_frame_pos = world_to_drone_frame(row.drone.position, trace.drone_start)
    assert (drone_frame_pos - Vec3(*resumed["target"])).norm() <= 0.05


def test_detach_orders_fire_once_each_in_time_order():
    # config order is not time order; the two orders at t = 1.0 keep theirs
    script = [(1.0, [0.1, 0, 0]), (-1, [0.2, 0, 0]), (1.0, [0.3, 0, 0])]
    cfg = base_cfg(duration=2.0, detach=[{"t": t, "waypoints": [w]} for t, w in script])
    trace, _ = run_scenario(cfg)
    orders = []
    for t, topic, payload in trace.messages:
        msg = decode_message(topic, payload) if topic == TOPIC_CMD else None
        if isinstance(msg, DetachMsg):
            orders.append((t, msg.waypoints[0].x, msg.sequence))
    first_tick = [next(row.t for row in trace.rows if row.t >= t) for t in (-1, 1.0, 1.0)]
    assert orders == [(first_tick[0], 0.2, 0), (first_tick[1], 0.1, 1), (first_tick[2], 0.3, 2)]
    assert first_tick == [0.0, 1.0, 1.0]
    # the run fires the script through one cursor, so a config built
    # directly must keep it in time order too
    with pytest.raises(ConfigError, match="time order"):
        dataclasses.replace(cfg, detach_script=cfg.detach_script[::-1])


def test_deterministic_mode_never_reads_the_wall_clock(monkeypatch):
    def wall_clock(*args):
        raise AssertionError("deterministic mode read the wall clock")

    monkeypatch.setattr(scenario.time, "monotonic", wall_clock)
    monkeypatch.setattr(scenario.time, "sleep", wall_clock)
    trace, _ = run_scenario(load_config(CONFIGS / "boomerang.json"))
    assert len(trace.rows) == 600 and "DETACH" in {row.mode for row in trace.rows}


def test_deterministic_runs_are_byte_identical(tmp_path):
    cfg = base_cfg(
        duration=2.0,
        trajectory={"kind": "circle", "noise_sigma": 0.01},
        world=[{"id": "crate", "label": "box", "x": -2.0, "y": 0.0, "z": 0.0}],
    )
    run_scenario(cfg, out_dir=tmp_path / "a")
    run_scenario(cfg, out_dir=tmp_path / "b")
    for name in ("trace.csv", "report.json", "messages.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# sha256 of the deterministic-mode artifacts of the sample configs
# (measured with Python 3.11 and numpy 2.4): the byte-identity gate that
# behaviour-preserving changes must keep
SAMPLE_DIGESTS = {
    "demo": {
        "trace.csv": "c7230c9aceb929565d03a6beebff9e130ebc198732e37796700d36706744b24e",
        "report.json": "6612cb9989a291c8e896f5ddababb120e442058f27b1ffc5eedc8726dacc9dbc",
        "messages.jsonl": "60f0438a52b1366ff803ef7362f8cee48d05f57b0d1c8814fee4589ed2838836",
    },
    "boomerang": {
        "trace.csv": "d4a2380f84996af5f5c2fa5eba7f7ecfa2985856243ea49af57de7ec97b2445d",
        "report.json": "f5c93e360eadc09fa7993038a5a3419177a7c59ebb2785c6a5b7d460ef71eef3",
        "messages.jsonl": "f531b0cba81baf5aa4aa2a29eb8c090260b962bef1c1788680eaa0a508170fa3",
    },
}


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def assert_artifacts_pinned(name, out_dir):
    run_scenario(load_config(CONFIGS / f"{name}.json"), out_dir=out_dir)
    digests = {
        artifact: hashlib.sha256((out_dir / artifact).read_bytes()).hexdigest()
        for artifact in SAMPLE_DIGESTS[name]
    }
    assert digests == SAMPLE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SAMPLE_DIGESTS))
def test_sample_config_artifacts_are_pinned(name, tmp_path):
    assert_artifacts_pinned(name, tmp_path)


@pytest.fixture
def codec_calls(monkeypatch):
    """Counts of ``encode_packet`` and ``PacketDecoder.feed`` calls."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module in (packets, broker_module, client_module):
        monkeypatch.setattr(module, "encode_packet", counting("encode", module.encode_packet))
    monkeypatch.setattr(PacketDecoder, "feed", counting("feed", PacketDecoder.feed))
    return calls


class FramingTransport(MemoryTransport):
    """A loopback link that frames each packet and parses it back on both
    hops, so the codec stays inside the artifact gate."""

    def __init__(self, broker):
        super().__init__(broker)
        self._up = PacketDecoder()

    def send(self, packet):
        for parsed in self._up.feed(packets.encode_packet(packet)):
            super().send(parsed)

    def set_receiver(self, callback):
        down = PacketDecoder()

        def receive(packet):
            for parsed in down.feed(packets.encode_packet(packet)):
                callback(parsed)

        super().set_receiver(receive)


@pytest.mark.parametrize("name", sorted(SAMPLE_DIGESTS))
def test_sample_config_artifacts_are_pinned_through_the_codec(name, tmp_path, monkeypatch, codec_calls):
    monkeypatch.setattr(scenario, "MemoryTransport", FramingTransport)
    assert_artifacts_pinned(name, tmp_path)
    assert codec_calls["encode"] == codec_calls["feed"] > 1000


def test_loopback_run_neither_frames_nor_parses_a_packet(tmp_path, codec_calls):
    run_scenario(load_config(CONFIGS / "demo.json"), out_dir=tmp_path)
    assert codec_calls == {}


@pytest.fixture
def decode_calls(monkeypatch):
    """Counts of ``decode_message`` calls by the follower and the cue
    engine, keyed by (module, topic); safe from reader threads."""
    calls = Counter()
    lock = threading.Lock()

    for module in (follower, cueing):
        def counting(topic, payload, name=module.__name__.rsplit(".", 1)[1], decode=module.decode_message):
            with lock:
                calls[name, topic] += 1
            return decode(topic, payload)

        monkeypatch.setattr(module, "decode_message", counting)
    return calls


def test_loopback_subscribers_decode_no_pose_or_detection(parsed):
    trace, _ = run_scenario(load_config(CONFIGS / "demo.json"))
    logged = Counter(topic for _, topic, _ in trace.messages)
    assert logged[TOPIC_POSE] == 600 and logged[TOPIC_DETECTIONS] > 100 and logged[TOPIC_CMD] > 100
    # the follower and the cue engine get each pose and detection as the
    # payload the scenario has just encoded, so neither parses one
    assert [payload for payload in parsed if b'"kind":' not in payload] == []
    # nor does the follower parse the operator's detach orders; the drone,
    # next in line, parses each once, as the follower's first command of the
    # detach is then the last payload on the command topic
    cfg = load_config(CONFIGS / "boomerang.json")
    del parsed[:]
    trace, _ = run_scenario(cfg)
    assert len(cfg.detach_script) == 1 and "DETACH" in {row.mode for row in trace.rows}
    assert [payload for payload in parsed if b'"kind":"detach"' in payload] == parsed
    assert len(parsed) == len(cfg.detach_script)


def test_a_loopback_run_parses_no_move_command(parsed):
    trace, _ = run_scenario(load_config(CONFIGS / "demo.json"))
    moves = [payload for _, topic, payload in trace.messages if b'"kind":"move"' in payload]
    assert len(moves) > 100
    # the drone, and the follower its own, get each as the payload just encoded
    assert [payload for payload in parsed if b'"kind":"move"' in payload] == []


def test_sockets_subscribers_still_decode_poses_and_detections(decode_calls):
    cfg = load_config(CONFIGS / "demo.json", {"mode": "sockets", "duration": 1.5, "broker_port": 0})
    run_scenario(cfg)
    for key in (("follower", TOPIC_POSE), ("cueing", TOPIC_POSE), ("cueing", TOPIC_DETECTIONS)):
        assert decode_calls[key] > 0, key


_TICK = 2 / 3  # the time object that two messages logged in one tick share
ODD_MESSAGES = [
    (0.0, TOPIC_POSE, b'{"v":1}'),
    (1 / 3, 'odd/"topic"/\u00e9\u4e2d', '{"label":"caf\u00e9 \\"q\\"\\n"}'.encode()),
    (12345678901.5, TOPIC_POSE, "\u2028\x7f\U0001f600".encode()),
    (7, TOPIC_CUES, b""),
    (1e-300, 'odd/"topic"/\u00e9\u4e2d', b"{}"),
    (0.0, TOPIC_POSE, b"{}"),
    (-0.0, TOPIC_CUES, b"{}"),  # equal to the time before it, but written "-0"
    (_TICK, TOPIC_POSE, b"{}"),
    (_TICK, TOPIC_CUES, b"{}"),
]


def test_messages_jsonl_lines_are_canonical_json(tmp_path):
    path = tmp_path / "messages.jsonl"
    write_messages_jsonl(RunTrace(messages=ODD_MESSAGES), path)
    assert path.read_text(encoding="utf-8") == "".join(
        canonical_json({"t": t, "topic": topic, "payload": payload.decode("utf-8")}) + "\n"
        for t, topic, payload in ODD_MESSAGES
    )
    write_messages_jsonl(RunTrace(), path)
    assert path.read_text() == ""


def test_messages_jsonl_escapes_a_payload_that_is_not_utf8(tmp_path):
    path = tmp_path / "messages.jsonl"
    messages = [(0.0, TOPIC_POSE, b'{"v":1}'), (0.1, "peer/raw", b"caf\xe9"), (0.2, TOPIC_CUES, b"{}")]
    write_messages_jsonl(RunTrace(messages=messages), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["payload"] for line in lines] == ['{"v":1}', "caf\\xe9", "{}"]


def test_trace_csv_format(tmp_path):
    trace, _ = run_scenario(base_cfg(duration=1.0))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,hx,hy,hz,hyaw,dx,dy,dz,dyaw,mode"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[-1] == "FOLLOW"
    assert len(first) == 10


def joined_messages_jsonl(trace: RunTrace) -> str:
    """The list-and-join messages.jsonl writer, kept as the reference."""
    heads: dict[str, str] = {}  # each topic escaped once
    lines = []
    for t, topic, payload in trace.messages:
        head = heads.get(topic)
        if head is None:
            head = heads[topic] = f',"topic":{encode_basestring(topic)},"payload":'
        lines.append('{"t":' + format_float(t) + head + encode_basestring(payload.decode("utf-8")) + "}")
    return "\n".join(lines) + ("\n" if lines else "")


def joined_trace_csv(trace: RunTrace) -> str:
    """The list-and-join trace.csv writer, kept as the reference."""
    lines = [scenario.TRACE_HEADER]
    for row in trace.rows:
        h, d = row.human, row.drone
        values = [row.t, h.position.x, h.position.y, h.position.z, h.yaw,
                  d.position.x, d.position.y, d.position.z, d.yaw]
        lines.append(",".join(format_float(v) for v in values) + f",{row.mode}")
    return "\n".join(lines) + "\n"


def edge_numbers(count: int) -> list:
    """Floats from ``count`` seeded 64-bit patterns (subnormals, infinities
    and NaNs among them), then the edges of the float range, ints, bools
    and numpy scalars."""
    rng = random.Random(35)
    numbers = [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(count)]
    return numbers + [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        -1.7976931348623157e308, 1e16, 123456789.5, math.inf, -math.inf, math.nan,
        0, 7, -12345678901, 10**300, True, False,
        np.float64(0.1), np.float64(-2.5e-310), np.float32(1.1), np.float32(-0.0), np.int64(-3),
    ]


def test_the_row_template_renders_what_format_float_renders(tmp_path):
    spec = "%" + FLOAT_SPEC
    numbers = edge_numbers(20_000)
    assert [spec % x for x in numbers] == [format_float(x) for x in numbers]
    assert scenario.TRACE_ROW == ",".join([spec] * 9) + ",%s\n"
    # a trace whose rows hold those numbers: positions and yaws take the
    # finite ones (a Pose refuses the rest), the tick time takes them all
    finite = [x for x in numbers if math.isfinite(x)]
    rows = []
    for k, t in enumerate(numbers):
        h, d = (Pose(Vec3(*(finite[(k + j) % len(finite)] for j in range(s, s + 3))),
                     finite[(k + s + 3) % len(finite)], FrameId.WORLD, 0.0) for s in (0, 4))
        rows.append(TraceRow(t, h, d, "FOLLOW" if k % 2 else "DETACH"))
    trace = RunTrace(rows=rows)
    write_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == joined_trace_csv(trace).encode("utf-8")


@pytest.mark.parametrize("messages", [[], ODD_MESSAGES[1:2], ODD_MESSAGES],
                         ids=["empty", "single", "non-ascii"])
def test_streamed_writers_match_the_joined_text(messages, tmp_path):
    trace = run_scenario(base_cfg(duration=1.0))[0] if messages else RunTrace()
    trace.messages[:] = messages
    write_messages_jsonl(trace, tmp_path / "messages.jsonl")
    write_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "messages.jsonl").read_bytes() == joined_messages_jsonl(trace).encode("utf-8")
    assert (tmp_path / "trace.csv").read_bytes() == joined_trace_csv(trace).encode("utf-8")


# A writer holds one rendered line at a time; the joined text of these
# traces is about 10 MB (messages) and 2 MB (rows).
WRITER_PEAK_BOUND = 1 << 20


def traced_peak(write, trace, path) -> int:
    """Bytes that ``write(trace, path)`` holds at its peak, by tracemalloc."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        write(trace, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return peak - before


def test_writers_hold_no_copy_of_the_file(tmp_path):
    payload = b'{"confidence":0.9,"label":"box","object_id":"obj%05d","position":{"x":1.25,"y":0.0,"z":-3.5},"t":%d.5}'
    messages = [(k / 10, TOPIC_DETECTIONS, payload % (k % 500, k // 10)) for k in range(50_000)]
    path = tmp_path / "messages.jsonl"
    assert traced_peak(write_messages_jsonl, RunTrace(messages=messages), path) < WRITER_PEAK_BOUND
    assert path.stat().st_size > 8 * WRITER_PEAK_BOUND

    rows = []
    for k in range(20_000):
        t = k / 10
        human = Pose(Vec3(k * 1e-3, 0.0, -k * 2e-3), 0.25, FrameId.WORLD, t)
        drone = Pose(Vec3(k * 1e-3 - 1.0, 0.5, -k * 2e-3), -1.5, FrameId.WORLD, t)
        rows.append(TraceRow(t, human, drone, "FOLLOW"))
    path = tmp_path / "trace.csv"
    assert traced_peak(write_trace_csv, RunTrace(rows=rows), path) < WRITER_PEAK_BOUND
    assert path.stat().st_size > WRITER_PEAK_BOUND


def test_sockets_mode_smoke():
    cfg = base_cfg(duration=1.2, mode="sockets", broker_port=0)
    trace, report = run_scenario(cfg)
    assert len(trace.rows) == 12
    assert 0.0 < report.similarity <= 1.0
    # every subscription is wired over TCP too: the follower hears poses
    # and the drone hears its commands and moves
    assert any(topic == TOPIC_CMD for _, topic, _ in trace.messages)
    assert trace.rows[-1].drone.position != trace.rows[0].drone.position


def test_sockets_mode_follower_hears_the_operator():
    # over TCP the follower decodes every command it hears, so the detach
    # order still reaches it among its own commands; the waypoint is far
    # enough that the leg outlasts the run
    cfg = base_cfg(duration=2.0, mode="sockets", broker_port=0,
                   detach=[{"t": 0.5, "waypoints": [[2.0, 0, 2.0]]}])
    trace, _ = run_scenario(cfg)
    assert [event["event"] for event in trace.events] == ["detach_started"]
    assert "DETACH" in [row.mode for row in trace.rows]


def test_sockets_mode_bind_failure_is_runtime_error():
    from wingman.transport import Broker, TcpBrokerServer

    blocker = TcpBrokerServer(Broker(), "127.0.0.1", 0)
    blocker.start()
    try:
        cfg = base_cfg(duration=1.0, mode="sockets", broker_port=blocker.port)
        with pytest.raises(RuntimeError, match="bind"):
            run_scenario(cfg)
    finally:
        blocker.stop()
