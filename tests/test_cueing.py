import math
import random

import pytest

from conftest import rotate_y
from wingman.cueing import AttentionModel, CueEngine, make_cue
from wingman.geometry import FrameId, Pose, Vec3
from wingman.protocol import (
    TOPIC_CUES,
    TOPIC_DETECTIONS,
    TOPIC_POSE,
    CueMsg,
    DetectionMsg,
    PoseMsg,
    decode_message,
    encode_message,
)


def human(x=0.0, z=0.0, yaw=0.0):
    return Pose(Vec3(x, 0, z), yaw, FrameId.WORLD, 0.0)


def in_blindspot(human: Pose, point: Vec3, fov: float) -> bool:
    """The blind-spot flag of the cue for an object at ``point``, for a
    human with field of view ``fov`` and a cue range that covers it."""
    model = AttentionModel(human_fov=fov, cue_range=100.0)
    return make_cue(human, DetectionMsg("obj", "chair", point, 0.9, 0.0), model).blind_spot


def test_blindspot_examples():
    assert in_blindspot(human(), Vec3(-1, 0, 0), math.pi) is True
    assert in_blindspot(human(), Vec3(1, 0, 0), 0.1) is False
    for point in [Vec3(1, 0, 0), Vec3(-1, 0, 0), Vec3(0, 0, 5), Vec3(-2, 0, -2)]:
        assert in_blindspot(human(), point, 2 * math.pi) is False


def test_blindspot_degenerate_coincident_point():
    assert in_blindspot(human(1, 2), Vec3(1, 0, 2), 1.0) is False


def test_blindspot_fov_validation():
    with pytest.raises(ValueError, match=r"^human_fov must be in \(0, 2\*pi\], got 0.0$"):
        AttentionModel(human_fov=0.0)
    with pytest.raises(ValueError, match=r"^human_fov must be in \(0, 2\*pi\], got 7.0$"):
        AttentionModel(human_fov=7.0)


def brute_force_blindspot(pose: Pose, point: Vec3, fov: float) -> bool:
    local = rotate_y(point - pose.position, -pose.yaw)
    if math.hypot(local.x, local.z) == 0.0:
        return False
    return abs(math.atan2(local.z, local.x)) > fov / 2


def test_blindspot_matches_brute_force_oracle():
    rng = random.Random(77)
    for _ in range(2000):
        pose = Pose(
            Vec3(rng.uniform(-3, 3), 0, rng.uniform(-3, 3)),
            rng.uniform(-math.pi, math.pi),
            FrameId.WORLD,
            0.0,
        )
        point = Vec3(rng.uniform(-5, 5), 0, rng.uniform(-5, 5))
        fov = rng.uniform(0.1, 2 * math.pi)
        assert in_blindspot(pose, point, fov) == brute_force_blindspot(pose, point, fov)


def test_blindspot_monotone_in_fov():
    rng = random.Random(78)
    for _ in range(500):
        pose = human(yaw=rng.uniform(-math.pi, math.pi))
        point = Vec3(rng.uniform(-5, 5), 0, rng.uniform(-5, 5))
        narrow = rng.uniform(0.1, math.pi)
        wide = rng.uniform(narrow, 2 * math.pi)
        if not in_blindspot(pose, point, narrow):
            assert not in_blindspot(pose, point, wide)


def detection(x, z, object_id="obj", t=0.0):
    return DetectionMsg(object_id, "chair", Vec3(x, 0, z), 0.9, t)


def test_make_cue_examples():
    model = AttentionModel(human_fov=2 * math.pi / 3, cue_range=5.0)
    cue = make_cue(human(), detection(0, -2), model)
    assert cue is not None
    assert cue.distance == pytest.approx(2.0)
    assert cue.azimuth == pytest.approx(-math.pi / 2, abs=1e-12)
    assert cue.blind_spot is True

    cue = make_cue(human(), detection(2, 0), model)
    assert cue is not None
    assert cue.distance == pytest.approx(2.0)
    assert cue.azimuth == 0.0
    assert cue.blind_spot is False

    assert make_cue(human(), detection(10, 0), model) is None
    assert make_cue(human(1, 2), detection(1, 2), model).blind_spot is False


def test_emitted_cues_respect_invariants():
    rng = random.Random(79)
    model = AttentionModel()
    for _ in range(500):
        pose = Pose(
            Vec3(rng.uniform(-3, 3), 0, rng.uniform(-3, 3)),
            rng.uniform(-math.pi, math.pi),
            FrameId.WORLD,
            0.0,
        )
        sighting = detection(rng.uniform(-9, 9), rng.uniform(-9, 9))
        cue = make_cue(pose, sighting, model)
        if cue is not None:
            assert cue.distance <= model.cue_range
            assert -math.pi < cue.azimuth <= math.pi
            assert cue.blind_spot == brute_force_blindspot(pose, sighting.position, model.human_fov)


class CueBus:
    def __init__(self):
        self.cues = []

    def publish(self, topic, payload):
        assert topic == TOPIC_CUES
        self.cues.append(decode_message(topic, payload))


def pose_payload(t, x=0.0, z=0.0, yaw=0.0, seq=0):
    msg = PoseMsg("wearable", Pose(Vec3(x, 0, z), yaw, FrameId.WEARABLE, t), seq)
    return encode_message(msg)


def test_engine_needs_a_pose_before_cueing():
    bus = CueBus()
    engine = CueEngine(AttentionModel(), publish=bus.publish)
    engine.on_message(TOPIC_DETECTIONS, encode_message(detection(1, 0)))
    assert bus.cues == []
    engine.on_message(TOPIC_POSE, pose_payload(0.0))
    engine.on_message(TOPIC_DETECTIONS, encode_message(detection(1, 0, t=0.1)))
    assert len(bus.cues) == 1


def test_engine_dedup_window():
    bus = CueBus()
    engine = CueEngine(AttentionModel(), publish=bus.publish)
    engine.on_message(TOPIC_POSE, pose_payload(0.0))
    for i, t in enumerate([0.0, 0.1, 0.5, 0.99]):
        engine.on_message(TOPIC_DETECTIONS, encode_message(detection(1, 0, t=t)))
    assert len(bus.cues) == 1
    engine.on_message(TOPIC_DETECTIONS, encode_message(detection(1, 0, t=1.0)))
    assert len(bus.cues) == 2
    # distinct objects have independent windows
    engine.on_message(TOPIC_DETECTIONS, encode_message(detection(0, 1, object_id="other", t=1.0)))
    assert len(bus.cues) == 3


def test_engine_counts_deduplicated_cues():
    bus = CueBus()
    engine = CueEngine(AttentionModel(), publish=bus.publish)
    engine.on_message(TOPIC_POSE, pose_payload(0.0))
    payload = encode_message(detection(1, 0, t=0.2))
    engine.on_message(TOPIC_DETECTIONS, payload)
    engine.on_message(TOPIC_DETECTIONS, payload)
    assert (engine.cue_count, engine.dedup_count) == (1, 1)
    assert len(bus.cues) == 1


def test_engine_applies_human_start_offset():
    bus = CueBus()
    engine = CueEngine(
        AttentionModel(cue_range=2.0), publish=bus.publish, human_start=Vec3(10, 0, 0)
    )
    engine.on_message(TOPIC_POSE, pose_payload(0.0, x=0.0, z=0.0))
    # object near the human's world position (10, 0, 0)
    engine.on_message(TOPIC_DETECTIONS, encode_message(detection(11, 0, t=0.1)))
    assert len(bus.cues) == 1 and bus.cues[0].distance == pytest.approx(1.0)
    # object near the wearable-frame origin is far away in world terms
    engine.on_message(TOPIC_DETECTIONS, encode_message(detection(1, 0, object_id="far", t=0.2)))
    assert len(bus.cues) == 1


def test_engine_cue_contents():
    bus = CueBus()
    engine = CueEngine(AttentionModel(), publish=bus.publish)
    engine.on_message(TOPIC_POSE, pose_payload(0.5, x=1.0, z=1.0, yaw=0.0))
    engine.on_message(TOPIC_DETECTIONS, encode_message(detection(1.0, -1.0, t=0.6)))
    cue = bus.cues[0]
    assert isinstance(cue, CueMsg)
    assert cue.object_id == "obj"
    assert cue.distance == pytest.approx(2.0)
    # decoded values sit on the 9-significant-digit wire grid
    assert cue.azimuth == pytest.approx(-math.pi / 2, abs=1e-8)
    assert cue.blind_spot is True
    assert cue.timestamp == 0.6


def test_engine_builds_one_cue_message_per_emitted_cue(monkeypatch):
    built = []
    check = CueMsg.__post_init__

    def counting_check(msg):
        built.append(msg.object_id)
        check(msg)

    published = []
    engine = CueEngine(AttentionModel(cue_range=5.0), publish=lambda topic, payload: published.append(payload))
    pose = pose_payload(0.0)
    sightings = [encode_message(detection(x, 0, object_id=f"o{x}", t=0.1 * k))
                 for k in range(12) for x in (1, 2, 9)]  # o9 lies beyond the cue range
    monkeypatch.setattr(CueMsg, "__post_init__", counting_check)
    engine.on_message(TOPIC_POSE, pose)
    for payload in sightings:
        engine.on_message(TOPIC_DETECTIONS, payload)
    assert (engine.cue_count, engine.dedup_count) == (4, 20)
    assert built == ["o1", "o2", "o1", "o2"] and len(published) == engine.cue_count
