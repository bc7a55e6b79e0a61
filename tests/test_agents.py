import math
import random
import re

import pytest

from conftest import rotate_y, world_to_drone_frame
from wingman.agents import (
    Circle,
    DetectorParams,
    DroneState,
    Ellipse,
    TrajectorySpec,
    Waypoints,
    WearableSim,
    WorldObject,
    detect_objects,
    drone_frame_to_world,
    drone_step,
    load_waypoints_csv,
    load_world_csv,
)
from wingman.geometry import FrameId, Pose, Vec3, relative_polar
from wingman.protocol import CommandMsg, DetectionMsg, encode_message


def vec_approx(v: Vec3, expected: tuple[float, float, float], abs_tol=1e-12):
    assert v.x == pytest.approx(expected[0], abs=abs_tol)
    assert v.y == pytest.approx(expected[1], abs=abs_tol)
    assert v.z == pytest.approx(expected[2], abs=abs_tol)


def test_circle_examples():
    assert Circle(1, 1).position(0) == Vec3(0, 0, 0)
    vec_approx(Circle(1, 1).position(math.pi), (-2, 0, 0))
    vec_approx(Circle(1, 1).position(math.pi / 2), (-1, 0, 1))


def test_ellipse_examples():
    assert Ellipse(2, 1, 1).position(0) == Vec3(0, 0, 0)
    vec_approx(Ellipse(2, 1, 1).position(math.pi), (-4, 0, 0))


def test_ellipse_degenerates_to_circle():
    for t in [0.0, 0.3, 1.7, 4.0, 9.9]:
        assert Ellipse(0.7, 0.7, 1.3).position(t) == Circle(0.7, 1.3).position(t)


def test_trajectory_parameter_validation():
    with pytest.raises(ValueError):
        Circle(0, 1)
    with pytest.raises(ValueError):
        Ellipse(1, -1, 1)
    with pytest.raises(ValueError):
        TrajectorySpec(Circle(0.5, 0.3), noise_sigma=-0.1)
    with pytest.raises(ValueError):
        TrajectorySpec(Circle(0.5, 0.3), rate=0)


def test_generators_satisfy_conic_equation():
    rng = random.Random(5)
    circle = Circle(radius=0.5, angular_speed=0.37)
    ellipse = Ellipse(semi_axis_a=0.75, semi_axis_b=0.5, angular_speed=0.51)
    for _ in range(500):
        t = rng.uniform(0, 100)
        p = circle.position(t)
        assert abs((p.x + 0.5) ** 2 + p.z**2 - 0.25) <= 1e-9
        q = ellipse.position(t)
        assert abs(((q.x + 0.75) / 0.75) ** 2 + (q.z / 0.5) ** 2 - 1.0) <= 1e-9


def test_headings_follow_path_tangent():
    circle = Circle(radius=1.0, angular_speed=1.0)
    assert circle.heading(0.0) == pytest.approx(math.pi / 2, abs=1e-12)
    # numeric tangent check at a few points
    for t in [0.2, 1.1, 3.0]:
        h = 1e-6
        d = circle.position(t + h) - circle.position(t - h)
        assert circle.heading(t) == pytest.approx(math.atan2(d.z, d.x), abs=1e-6)
    ellipse = Ellipse(2.0, 1.0, 1.0)
    for t in [0.2, 1.1, 3.0]:
        h = 1e-6
        d = ellipse.position(t + h) - ellipse.position(t - h)
        assert ellipse.heading(t) == pytest.approx(math.atan2(d.z, d.x), abs=1e-6)


def test_waypoints_interpolation_and_clamping():
    w = Waypoints(((0.0, Vec3(0, 0, 0)), (1.0, Vec3(2, 0, 0)), (3.0, Vec3(2, 0, 4))))
    assert w.position(-1.0) == Vec3(0, 0, 0)
    assert w.position(0.5) == Vec3(1, 0, 0)
    assert w.position(2.0) == Vec3(2, 0, 2)
    assert w.position(99.0) == Vec3(2, 0, 4)
    assert w.heading(0.5) == pytest.approx(0.0)
    assert w.heading(2.0) == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError):
        Waypoints(((1.0, Vec3()), (1.0, Vec3(1, 0, 0))))
    with pytest.raises(ValueError):
        Waypoints(())


def test_wearable_stream_reproducible_per_seed():
    spec = TrajectorySpec(Circle(0.5, 0.3), noise_sigma=0.02, rate=10.0)
    first = [encode_message(WearableSim(spec, seed=9).next_pose()[1]) for _ in range(1)]
    sim_a = WearableSim(spec, seed=9)
    sim_b = WearableSim(spec, seed=9)
    sim_c = WearableSim(spec, seed=10)
    stream_a = [encode_message(sim_a.next_pose()[1]) for _ in range(50)]
    stream_b = [encode_message(sim_b.next_pose()[1]) for _ in range(50)]
    stream_c = [encode_message(sim_c.next_pose()[1]) for _ in range(50)]
    assert stream_a == stream_b
    assert stream_a != stream_c
    assert stream_a[0] == first[0]


def test_wearable_noise_free_truth_matches_message():
    spec = TrajectorySpec(Circle(0.5, 0.3), noise_sigma=0.0, rate=10.0)
    sim = WearableSim(spec, seed=1)
    for k in range(20):
        truth, msg = sim.next_pose()
        assert truth == msg.pose
        assert msg.sequence == k
        assert msg.pose.timestamp == k / 10.0


def make_drone(position=Vec3(), command=None, max_speed=5.0):
    return DroneState(
        pose=Pose(position, 0.0, FrameId.DRONE, 0.0),
        command=command,
        max_speed=max_speed,
    )


def cmd(target, speed, yaw=0.0):
    return CommandMsg(target, yaw, speed, 0)


def test_drone_step_examples():
    state = make_drone(Vec3(0, 0, 0), cmd(Vec3(0, 0, 1), 2.0))
    assert drone_step(state, 0.25).pose.position == Vec3(0, 0, 0.5)
    state = make_drone(Vec3(0, 0, 0.9), cmd(Vec3(0, 0, 1), 2.0))
    assert drone_step(state, 0.25).pose.position == Vec3(0, 0, 1.0)  # exact arrival clamp
    state = make_drone(Vec3(1, 0, 2))
    assert drone_step(state, 0.5).pose.position == Vec3(1, 0, 2)


def test_drone_step_respects_speed_cap():
    rng = random.Random(21)
    for _ in range(500):
        position = Vec3(rng.uniform(-2, 2), 0, rng.uniform(-2, 2))
        target = Vec3(rng.uniform(-2, 2), 0, rng.uniform(-2, 2))
        speed = rng.uniform(0.1, 10)
        max_speed = rng.uniform(0.1, 3)
        dt = rng.uniform(0.01, 0.5)
        state = make_drone(position, cmd(target, speed), max_speed=max_speed)
        moved = (drone_step(state, dt).pose.position - position).norm()
        assert moved <= max_speed * dt + 1e-12


def test_drone_step_yaw_slew():
    state = DroneState(
        pose=Pose(Vec3(), 0.0, FrameId.DRONE, 0.0),
        command=cmd(Vec3(), 1.0, yaw=math.pi / 2),
        yaw_rate=math.pi / 4,
    )
    stepped = drone_step(state, 1.0)
    assert stepped.pose.yaw == pytest.approx(math.pi / 4)
    arrived = drone_step(drone_step(stepped, 1.0), 1.0)
    assert arrived.pose.yaw == pytest.approx(math.pi / 2)


def test_drone_step_advances_clock_and_rejects_bad_dt():
    state = make_drone()
    assert drone_step(state, 0.1).pose.timestamp == pytest.approx(0.1)
    with pytest.raises(ValueError):
        drone_step(state, 0.0)


def test_detector_examples():
    drone = Pose(Vec3(), 0.0, FrameId.WORLD, 3.0)
    params = DetectorParams(fov=math.pi / 2, range_m=4.0, p_detect=1.0, pos_noise_sigma=0.0)
    rng = random.Random(0)
    world = [WorldObject("front", "box", Vec3(1, 0, 0))]
    out = detect_objects(drone, world, params, rng)
    assert len(out) == 1
    assert out[0].position == Vec3(1, 0, 0)
    assert out[0].timestamp == 3.0
    assert not detect_objects(drone, [WorldObject("behind", "box", Vec3(-1, 0, 0))], params, rng)
    assert not detect_objects(drone, [WorldObject("far", "box", Vec3(5, 0, 0))], params, rng)


def test_detector_matches_brute_force_filter_when_ideal():
    rng_world = random.Random(31)
    params = DetectorParams(fov=1.9, range_m=3.0, p_detect=1.0, pos_noise_sigma=0.0)
    for trial in range(200):
        drone = Pose(
            Vec3(rng_world.uniform(-2, 2), 0.5, rng_world.uniform(-2, 2)),
            rng_world.uniform(-math.pi, math.pi),
            FrameId.WORLD,
            1.0,
        )
        world = [
            WorldObject(f"o{i}", "x", Vec3(rng_world.uniform(-5, 5), 0, rng_world.uniform(-5, 5)))
            for i in range(10)
        ]
        got = {d.object_id for d in detect_objects(drone, world, params, random.Random(trial))}
        expected = set()
        for obj in world:
            distance, azimuth = relative_polar(drone, obj.position)
            if distance <= params.range_m and abs(azimuth) <= params.fov / 2:
                expected.add(obj.object_id)
        assert got == expected


def test_detector_probabilistic_and_noisy_modes():
    drone = Pose(Vec3(), 0.0, FrameId.WORLD, 0.0)
    world = [WorldObject("o", "x", Vec3(1, 0, 0))]
    never = DetectorParams(p_detect=0.0)
    assert detect_objects(drone, world, never, random.Random(1)) == []
    half = DetectorParams(p_detect=0.5)
    hits = sum(bool(detect_objects(drone, world, half, random.Random(i))) for i in range(400))
    assert 120 < hits < 280
    noisy = DetectorParams(pos_noise_sigma=0.05)
    out = detect_objects(drone, world, noisy, random.Random(2))
    assert out and out[0].position != Vec3(1, 0, 0)
    for i in range(50):
        for d in detect_objects(drone, world, half, random.Random(i)):
            assert 0.5 <= d.confidence <= 1.0


def test_detector_param_validation():
    with pytest.raises(ValueError):
        DetectorParams(fov=0)
    with pytest.raises(ValueError):
        DetectorParams(fov=7.0)
    with pytest.raises(ValueError):
        DetectorParams(range_m=0)
    with pytest.raises(ValueError):
        DetectorParams(p_detect=1.5)


def test_drone_frame_world_round_trip():
    rng = random.Random(8)
    origin = Vec3(-1.0, 0.5, 0.25)
    for _ in range(200):
        p = Vec3(rng.uniform(-3, 3), rng.uniform(0, 2), rng.uniform(-3, 3))
        back = world_to_drone_frame(drone_frame_to_world(p, origin), origin)
        assert (back - p).norm() <= 1e-12
    # a +x step in the wearable/world frame shows up as +z in the drone frame
    assert world_to_drone_frame(origin + Vec3(1, 0, 0), origin) == Vec3(0, 0, 1)


def test_waypoints_csv_round_trip(tmp_path):
    path = tmp_path / "way.csv"
    path.write_text("t,x,y,z\n0,0,0,0\n1.5,2,0,1\n4,2,0,4\n")
    w = load_waypoints_csv(path)
    assert w.position(0.0) == Vec3(0, 0, 0)
    assert w.position(1.5) == Vec3(2, 0, 1)


def test_waypoints_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,x,y,z\n0,0,0,0\n")
    with pytest.raises(ValueError, match="header"):
        load_waypoints_csv(path)
    path.write_text("t,x,y,z\n0,0,0,0\n1,oops,0,0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_waypoints_csv(path)
    path.write_text("t,x,y,z\n1,0,0,0\n1,1,0,0\n")
    with pytest.raises(ValueError, match="increasing"):
        load_waypoints_csv(path)
    # a nan time passes the increasing check, and Vec3 takes an infinity: the loader refuses both
    for row in ("1,inf,0,0", "nan,0,0,0", "1,0,-inf,0", "1,0,0,NaN"):
        path.write_text(f"t,x,y,z\n0,0,0,0\n{row}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 3: non-finite waypoint {row}$"):
            load_waypoints_csv(path)


def test_world_csv(tmp_path):
    path = tmp_path / "world.csv"
    path.write_text("id,label,x,y,z\ncrate,box,-2,0,0.5\nplant,plant,1,0,-1\n")
    objects = load_world_csv(path)
    assert [o.object_id for o in objects] == ["crate", "plant"]
    assert objects[0].position == Vec3(-2, 0, 0.5)
    path.write_text("id,label,x,y,z\ncrate,box,0,0,0\ncrate,box,1,0,0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_world_csv(path)
    path.write_text("id,label,x,y,z\ncrate,box,0,0\n")
    with pytest.raises(ValueError, match="fields"):
        load_world_csv(path)


def reference_detect_objects(drone_world, world, params, rng):
    """The detector without its pre-gate: the exact gate on every object."""
    detections = []
    for obj in world:
        distance, azimuth = relative_polar(drone_world, obj.position)
        if distance > params.range_m:
            continue
        if abs(azimuth) > params.fov / 2:
            continue
        if params.p_detect <= 0.0:
            continue
        draw = rng.random()
        if draw >= params.p_detect:
            continue
        position = obj.position
        if params.pos_noise_sigma > 0.0:
            position = Vec3(
                position.x + rng.gauss(0.0, params.pos_noise_sigma),
                position.y + rng.gauss(0.0, params.pos_noise_sigma),
                position.z + rng.gauss(0.0, params.pos_noise_sigma),
            )
        confidence = 0.5 + 0.5 * (draw / params.p_detect)
        detections.append(
            DetectionMsg(obj.object_id, obj.label, position, confidence, drone_world.timestamp)
        )
    return detections


def boundary_world(drone: Pose, params: DetectorParams, rng: random.Random) -> list[WorldObject]:
    """Objects on, just inside and just outside the range and FOV edges."""
    half = params.fov / 2
    points = [drone.position, drone.position + Vec3(0.0, 5.0, 0.0)]  # coincident
    for angle in (0.0, half, -half, math.pi, rng.uniform(-math.pi, math.pi)):
        for scale in (1.0, 1.0 - 1e-12, 1.0 + 1e-12, 0.5, 1.5, rng.random()):
            for nudge in (0.0, 1e-15, -1e-15, 1e-9, -1e-9):
                offset = rotate_y(Vec3(params.range_m * scale, 0.0, 0.0), drone.yaw + angle + nudge)
                points.append(drone.position + offset)
    return [WorldObject(f"o{i}", "x", p) for i, p in enumerate(points)]


@pytest.mark.parametrize("p_detect, sigma", [(0.7, 0.05), (1.0, 0.0), (0.0, 0.0)])
def test_detector_pre_gate_matches_the_exact_gate(p_detect, sigma):
    rng = random.Random(47)
    fovs = (1e-9, 0.3, math.pi / 2, 1.9, math.pi - 1e-7, math.pi, 4.0, 2 * math.pi - 1e-6, 2 * math.pi)
    cases = []
    for origin, ranges in (
        (Vec3(0.0, 0.0, 0.0), (1e-3, 3.0, 4.0)),
        (Vec3(1.5, 0.5, -2.0), (4.0, 1e3)),
        (Vec3(1e-300, 0.0, -3e-300), (1e-170, 1e-160, 1e-140, 1e-100)),  # squares underflow
        (Vec3(2e149, 0.0, -1e149), (1e148, 1e154, 1e160)),  # squares overflow
    ):
        for range_m in ranges:
            for fov in fovs:
                params = DetectorParams(fov=fov, range_m=range_m, p_detect=p_detect, pos_noise_sigma=sigma)
                for yaw in (0.0, math.pi / 2, -math.pi, rng.uniform(-math.pi, math.pi)):
                    cases.append((Pose(origin, yaw, FrameId.WORLD, 2.0), params))
    for drone, params in cases:
        world = boundary_world(drone, params, rng)
        seed = rng.random()
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = detect_objects(drone, world, params, got_rng)
        assert got == reference_detect_objects(drone, world, params, want_rng), (drone, params)
        assert got_rng.getstate() == want_rng.getstate()


def test_detector_pre_gate_matches_the_exact_gate_on_random_scenes():
    rng = random.Random(53)
    for trial in range(300):
        params = DetectorParams(
            fov=rng.uniform(0.05, 2 * math.pi),
            range_m=rng.uniform(0.5, 6.0),
            p_detect=0.8,
            pos_noise_sigma=0.02,
        )
        drone = Pose(
            Vec3(rng.uniform(-2, 2), 0.5, rng.uniform(-2, 2)),
            rng.uniform(-math.pi, math.pi),
            FrameId.WORLD,
            trial * 0.1,
        )
        world = [
            WorldObject(f"o{i}", "x", Vec3(rng.uniform(-8, 8), 0, rng.uniform(-8, 8)))
            for i in range(60)
        ]
        got_rng, want_rng = random.Random(trial), random.Random(trial)
        assert detect_objects(drone, world, params, got_rng) == reference_detect_objects(
            drone, world, params, want_rng
        )
        assert got_rng.getstate() == want_rng.getstate()
