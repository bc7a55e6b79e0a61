"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
"""

import itertools
import math
import random
import time

import numpy as np

from conftest import drone_delta_to_wearable_delta, random_packet, rotate_y, world_to_drone_frame
from wingman.cueing import AttentionModel, make_cue
from wingman.evaluation import dtw, load_annotations, sync_report
from wingman.follower import FollowerConfig, assess
from wingman.geometry import FrameId, Pose, Vec3, wearable_delta_to_drone_delta
from wingman.protocol import DetectionMsg
from wingman.scenario import config_from_dict, run_scenario
from wingman.transport import Broker, MemoryTransport, MqttClient, PacketDecoder, decode_packet, encode_packet

REVOLUTION_20S = 2 * math.pi / 20.0


def ok(criterion: str, detail: str) -> None:
    print(f"[{criterion}] {detail}: PASS")


def circle_config(**extra):
    doc = {
        "duration": 60.0,
        "seed": 0,
        "trajectory": {
            "kind": "circle",
            "radius": 0.5,
            "angular_speed": REVOLUTION_20S,
            "rate": 10.0,
            "noise_sigma": 0.0,
        },
        "follower": {"update_period": 0.1},
    }
    doc.update(extra)
    return config_from_dict(doc)


def test_c1_synchronization_reproduction():
    start = time.monotonic()
    _, circle_report = run_scenario(circle_config())
    circle_elapsed = time.monotonic() - start
    assert circle_report.similarity >= 0.92
    assert circle_elapsed < 10.0

    start = time.monotonic()
    _, ellipse_report = run_scenario(circle_config(trajectory={
        "kind": "ellipse",
        "semi_axis_a": 0.75,
        "semi_axis_b": 0.5,
        "angular_speed": REVOLUTION_20S,
        "rate": 10.0,
        "noise_sigma": 0.0,
    }))
    ellipse_elapsed = time.monotonic() - start
    assert ellipse_report.similarity >= 0.92
    assert ellipse_elapsed < 10.0
    ok("C1", "similarity >= 0.92 "
       f"(circle {circle_report.similarity:.4f} in {circle_elapsed:.1f}s, "
       f"ellipse {ellipse_report.similarity:.4f} in {ellipse_elapsed:.1f}s)")


def test_c2_noise_robustness():
    start = time.monotonic()
    sims = []
    for seed in range(10):
        cfg = circle_config(seed=seed, trajectory={
            "kind": "circle",
            "radius": 0.5,
            "angular_speed": REVOLUTION_20S,
            "rate": 10.0,
            "noise_sigma": 0.02,
        })
        _, report = run_scenario(cfg)
        sims.append(report.similarity)
    elapsed = time.monotonic() - start
    assert all(s >= 0.85 for s in sims), sims
    assert elapsed < 120.0
    ok("C2", f"10 noisy seeds all >= 0.85 (min {min(sims):.4f}, {elapsed:.1f}s)")


def _paths_by_length(n: int, m: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """All monotone alignment paths (0,0)->(n-1,m-1), grouped by length."""
    buckets: dict[int, tuple[list, list]] = {}

    def extend(ai, bi, i, j):
        if i == n - 1 and j == m - 1:
            ai_list, bi_list = buckets.setdefault(len(ai), ([], []))
            ai_list.append(ai)
            bi_list.append(bi)
            return
        if i < n - 1 and j < m - 1:
            extend(ai + [i + 1], bi + [j + 1], i + 1, j + 1)
        if i < n - 1:
            extend(ai + [i + 1], bi + [j], i + 1, j)
        if j < m - 1:
            extend(ai + [i], bi + [j + 1], i, j + 1)

    extend([0], [0], 0, 0)
    return {
        length: (np.array(ai_list), np.array(bi_list))
        for length, (ai_list, bi_list) in buckets.items()
    }


def test_c3_dtw_oracle_equivalence():
    start = time.monotonic()
    sequences = []
    for length in range(1, 7):
        sequences.extend(np.array(s) for s in itertools.product(range(3), repeat=length))
    shapes = {
        (n, m): _paths_by_length(n, m) for n in range(1, 7) for m in range(1, 7)
    }
    rng = random.Random(1234)
    mismatches = 0
    for _ in range(50_000):
        a = sequences[rng.randrange(len(sequences))]
        b = sequences[rng.randrange(len(sequences))]
        oracle = min(
            int(np.abs(a[ai] - b[bi]).sum(axis=1).min())
            for ai, bi in shapes[(len(a), len(b))].values()
        )
        got, _ = dtw(a.tolist(), b.tolist())
        if got != oracle:
            mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 60.0
    ok("C3", f"50000 sampled pairs match the exhaustive path minimum ({elapsed:.1f}s)")


def test_c4_transform_exactness():
    assert wearable_delta_to_drone_delta(Vec3(1, 0, 0)) == Vec3(0, 0, 1)
    assert wearable_delta_to_drone_delta(Vec3(0, 0, 1)) == Vec3(-1, 0, 0)
    rng = random.Random(99)
    for _ in range(10_000):
        v = Vec3(rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(-100, 100))
        mapped = wearable_delta_to_drone_delta(v)
        assert drone_delta_to_wearable_delta(mapped) == Vec3(v.x, 0.0, v.z)
        assert abs(mapped.horizontal_norm() - v.horizontal_norm()) <= 1e-12
    ok("C4", "paper mapping bit-exact; 10k round trips and norms within 1e-12")


def test_c5_codec_and_broker():
    rng = random.Random(555)
    packets = [random_packet(rng) for _ in range(10_000)]
    for packet in packets:
        data = encode_packet(packet)
        decoded, consumed = decode_packet(data)
        assert decoded == packet and consumed == len(data)

    stream_packets = packets[:500]
    stream = b"".join(encode_packet(p) for p in stream_packets)
    assert PacketDecoder().feed(stream) == stream_packets
    for _ in range(5):
        decoder = PacketDecoder()
        out = []
        i = 0
        while i < len(stream):
            step = rng.randint(1, 61)
            out.extend(decoder.feed(stream[i : i + step]))
            i += step
        assert out == stream_packets

    broker = Broker()
    inboxes = {"s1": [], "s2": []}
    subs = {
        name: MqttClient(
            MemoryTransport(broker), name,
            on_message=lambda t, p, name=name: inboxes[name].append(p),
        )
        for name in inboxes
    }
    pubs = {name: MqttClient(MemoryTransport(broker), name) for name in ("p1", "p2")}
    for client in (*subs.values(), *pubs.values()):
        client.connect()
    for sub in subs.values():
        sub.subscribe("tagteam/pose")
    for i in range(1000):
        for name, pub in pubs.items():
            pub.publish("tagteam/pose", f"{name}:{i}".encode())
    total = sum(len(messages) for messages in inboxes.values())
    assert total == 4000
    for messages in inboxes.values():
        assert len(messages) == 2000
        assert len(set(messages)) == 2000  # no duplicates
        for name in ("p1", "p2"):
            ordered = [m for m in messages if m.startswith(f"{name}:".encode())]
            assert ordered == [f"{name}:{i}".encode() for i in range(1000)]
    ok("C5", "10k packet round trips, chunked re-framing, 2x2x1000 -> 4000 ordered deliveries")


def test_c6_follower_path_reconstruction():
    rng = random.Random(41)
    cfg = FollowerConfig(update_period=0.1, max_speed=1e9, deadband=0.0)
    poses = [Pose(Vec3(), 0.0, FrameId.WEARABLE, 0.0)]
    for k in range(1, 600):
        prev = poses[-1].position
        step = Vec3(rng.uniform(-0.5, 0.5), 0.0, rng.uniform(-0.5, 0.5))
        poses.append(Pose(prev + step, 0.0, FrameId.WEARABLE, k * 0.1))
    total = Vec3()
    for prev, curr in zip(poses, poses[1:]):
        cmd = assess(prev, curr, Vec3(), cfg)
        if cmd is not None:
            total = total + cmd.target  # drone base fixed at the origin
    mapped = wearable_delta_to_drone_delta(poses[-1].position - poses[0].position)
    assert (total - mapped).norm() <= 1e-9
    ok("C6", "sum of commanded deltas equals mapped displacement within 1e-9")


def test_c7_blindspot_oracle():
    rng = random.Random(404)
    for _ in range(10_000):
        pose = Pose(
            Vec3(rng.uniform(-4, 4), 0.0, rng.uniform(-4, 4)),
            rng.uniform(-math.pi, math.pi),
            FrameId.WORLD,
            0.0,
        )
        point = Vec3(rng.uniform(-6, 6), 0.0, rng.uniform(-6, 6))
        fov = rng.uniform(0.05, 2 * math.pi)
        local = rotate_y(point - pose.position, -pose.yaw)
        if math.hypot(local.x, local.z) == 0.0:
            expected = False
        else:
            expected = abs(math.atan2(local.z, local.x)) > fov / 2
        model = AttentionModel(human_fov=fov, cue_range=100.0)  # every sampled point is in range
        assert make_cue(pose, DetectionMsg("o", "box", point, 0.9, 0.0), model).blind_spot == expected
    ok("C7", "10k sampled cases match the brute-force angular check exactly")


def test_c8_boomerang_liveness():
    cfg = circle_config(
        seed=3,
        detach=[{"t": 20.0, "waypoints": [[0.3, 0, 0.3], [0.6, 0, 0.0], [0.3, 0, -0.3]]}],
    )
    trace, _ = run_scenario(cfg)
    resumed = [e for e in trace.events if e["event"] == "follow_resumed"]
    assert resumed, "mission never returned to FOLLOW"
    event = resumed[0]
    assert event["t"] < 60.0
    row = next(r for r in trace.rows if abs(r.t - event["t"]) < 1e-9)
    drone_frame_pos = world_to_drone_frame(row.drone.position, trace.drone_start)
    error = (drone_frame_pos - Vec3(*event["target"])).norm()
    assert error <= 0.05
    assert row.mode == "FOLLOW"
    ok("C8", f"boomerang rejoined at t={event['t']:.1f}s within {error:.3f} m of anchor+offset")


def _spiral_center(f: int) -> tuple[int, int]:
    # integer pixel centers, as an annotation tool would emit
    radius = 40.0 + 0.35 * f
    angle = 0.021 * f
    return round(320.0 + radius * math.cos(angle)), round(240.0 + radius * math.sin(angle))


def test_c9_annotation_pipeline(tmp_path):
    lines = ["frame,label,xmin,ymin,xmax,ymax"]
    for f in range(503):
        cx, cy = _spiral_center(f)
        lines.append(f"{f},head,{cx - 20},{cy - 30},{cx + 20},{cy + 30}")
        lines.append(f"{f},drone,{cx - 5},{cy - 5},{cx + 5},{cy + 5}")
    exact = tmp_path / "exact.csv"
    exact.write_text("\n".join(lines) + "\n")
    trajectories = load_annotations(exact, fps=30.0)
    assert len(trajectories["head"]) == 503
    report = sync_report(trajectories["head"], trajectories["drone"])
    assert report.similarity == 1.0

    lines = ["frame,label,xmin,ymin,xmax,ymax"]
    for f in range(503):
        cx, cy = _spiral_center(f)
        lines.append(f"{f},head,{cx - 20},{cy - 30},{cx + 20},{cy + 30}")
        if f >= 5:  # drone box tracks the head five frames late
            dx, dy = _spiral_center(f - 5)
            lines.append(f"{f},drone,{dx - 5},{dy - 5},{dx + 5},{dy + 5}")
    delayed = tmp_path / "delayed.csv"
    delayed.write_text("\n".join(lines) + "\n")
    trajectories = load_annotations(delayed, fps=30.0)
    report = sync_report(trajectories["head"], trajectories["drone"])
    frame_period = 1.0 / 30.0
    assert abs(report.lag_estimate - 5 * frame_period) <= frame_period
    ok("C9", f"503-frame pipeline: exact track similarity 1.0, "
       f"5-frame delay lag {report.lag_estimate:.4f}s within one frame of 0.1667s")


def test_c10_determinism(tmp_path):
    cfg = circle_config(
        seed=7,
        trajectory={
            "kind": "circle", "radius": 0.5, "angular_speed": REVOLUTION_20S,
            "rate": 10.0, "noise_sigma": 0.02,
        },
        world=[{"id": "crate", "label": "box", "x": -1.0, "y": 0.0, "z": -1.5}],
        duration=30.0,
    )
    run_scenario(cfg, out_dir=tmp_path / "first")
    run_scenario(cfg, out_dir=tmp_path / "second")
    for name in ("trace.csv", "report.json", "messages.jsonl"):
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
    ok("C10", "repeated runs produce byte-identical trace, report and message log")
