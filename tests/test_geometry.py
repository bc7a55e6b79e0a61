import math
import random

import pytest

from conftest import drone_delta_to_wearable_delta, rotate_y
from wingman.geometry import (
    FrameId,
    Pose,
    Vec3,
    relative_polar,
    wearable_delta_to_drone_delta,
    wrap_angle,
    wrap_azimuth,
)


def test_axis_mapping_examples():
    assert wearable_delta_to_drone_delta(Vec3(1, 0, 0)) == Vec3(0, 0, 1)
    assert wearable_delta_to_drone_delta(Vec3(0, 0, 1)) == Vec3(-1, 0, 0)
    assert wearable_delta_to_drone_delta(Vec3(0, 0, 0)) == Vec3(0, 0, 0)


def test_inverse_mapping_examples():
    assert drone_delta_to_wearable_delta(Vec3(0, 0, 1)) == Vec3(1, 0, 0)
    assert drone_delta_to_wearable_delta(Vec3(-1, 0, 0)) == Vec3(0, 0, 1)
    assert drone_delta_to_wearable_delta(Vec3(0, 0, 0)) == Vec3(0, 0, 0)


def test_mapping_drops_vertical_component():
    assert wearable_delta_to_drone_delta(Vec3(1, 5, 2)).y == 0.0
    assert drone_delta_to_wearable_delta(Vec3(1, -3, 2)).y == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_mapping_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        wearable_delta_to_drone_delta(Vec3(bad, 0, 0))
    with pytest.raises(ValueError):
        wearable_delta_to_drone_delta(Vec3(0, 0, bad))
    with pytest.raises(ValueError):
        relative_polar(Pose(Vec3(), 0.0, FrameId.WORLD, 0.0), Vec3(bad, 0, 0))


def test_horizontal_round_trip_and_norm_preservation():
    rng = random.Random(42)
    for _ in range(2000):
        v = Vec3(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50))
        back = drone_delta_to_wearable_delta(wearable_delta_to_drone_delta(v))
        assert back == Vec3(v.x, 0.0, v.z)  # exact: negation and swap only
        mapped = wearable_delta_to_drone_delta(v)
        assert abs(mapped.horizontal_norm() - v.horizontal_norm()) <= 1e-12


def test_relative_polar_examples():
    observer = Pose(Vec3(), 0.0, FrameId.WORLD, 0.0)
    assert relative_polar(observer, Vec3(2, 0, 0)) == (2.0, 0.0)
    distance, azimuth = relative_polar(observer, Vec3(-2, 0, 0))
    assert distance == 2.0
    assert azimuth == pytest.approx(math.pi, abs=1e-12)
    distance, azimuth = relative_polar(observer, Vec3(0, 0, 2))
    assert distance == 2.0
    assert azimuth == pytest.approx(math.pi / 2, abs=1e-12)


def test_relative_polar_coincident_degenerate():
    observer = Pose(Vec3(1, 0, 2), 1.0, FrameId.WORLD, 0.0)
    assert relative_polar(observer, Vec3(1, 0, 2)) == (0.0, 0.0)
    # vertically offset but horizontally coincident counts as degenerate too
    assert relative_polar(observer, Vec3(1, 5, 2)) == (0.0, 0.0)


def test_relative_polar_azimuth_range_and_rotation_invariance():
    rng = random.Random(7)
    for _ in range(2000):
        position = Vec3(rng.uniform(-5, 5), 0.0, rng.uniform(-5, 5))
        yaw = rng.uniform(-10, 10)
        target = Vec3(rng.uniform(-5, 5), 0.0, rng.uniform(-5, 5))
        observer = Pose(position, yaw, FrameId.WORLD, 0.0)
        distance, azimuth = relative_polar(observer, target)
        assert -math.pi < azimuth <= math.pi
        # rotating the target about the observer and the yaw by the same angle
        theta = rng.uniform(-math.pi, math.pi)
        rotated = position + rotate_y(target - position, theta)
        observer2 = Pose(position, yaw + theta, FrameId.WORLD, 0.0)
        distance2, azimuth2 = relative_polar(observer2, rotated)
        assert distance2 == pytest.approx(distance, abs=1e-9)
        if distance > 1e-9:
            diff = wrap_angle(azimuth2 - azimuth)
            assert abs(diff) <= 1e-9


def test_wrap_angle_boundaries():
    assert wrap_angle(math.pi) == -math.pi
    assert wrap_angle(-math.pi) == -math.pi
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi) == pytest.approx(-math.pi, abs=1e-12)
    for k in range(-6, 7):
        assert -math.pi <= wrap_angle(k * 1.7) < math.pi


def test_wrap_azimuth_boundaries():
    assert wrap_azimuth(math.pi) == math.pi
    assert wrap_azimuth(-math.pi) == math.pi
    assert wrap_azimuth(0.0) == 0.0
    for k in range(-6, 7):
        assert -math.pi < wrap_azimuth(k * 1.7) <= math.pi


def test_pose_normalizes_yaw_and_validates():
    pose = Pose(Vec3(), 3 * math.pi / 2, FrameId.WEARABLE, 0.0)
    assert pose.yaw == pytest.approx(-math.pi / 2, abs=1e-12)
    with pytest.raises(ValueError):
        Pose(Vec3(), 0.0, FrameId.WEARABLE, -1.0)
    with pytest.raises(ValueError):
        Pose(Vec3(), 0.0, FrameId.WEARABLE, float("nan"))
    with pytest.raises(ValueError):
        Pose(Vec3(float("inf"), 0, 0), 0.0, FrameId.WEARABLE, 0.0)


def test_vec3_arithmetic():
    a = Vec3(1, 2, 3)
    b = Vec3(0.5, -1, 2)
    assert a + b == Vec3(1.5, 1, 5)
    assert a - b == Vec3(0.5, 3, 1)
    assert a * 2 == Vec3(2, 4, 6)
    assert 2 * a == Vec3(2, 4, 6)
    assert Vec3(3, 4, 0).norm() == 5.0
    assert Vec3(3, 99, 4).horizontal_norm() == 5.0


def test_rotate_y_convention():
    # positive rotation turns +x toward +z
    v = rotate_y(Vec3(1, 0, 0), math.pi / 2)
    assert v.x == pytest.approx(0.0, abs=1e-12)
    assert v.z == pytest.approx(1.0, abs=1e-12)
