import json
import math
import random
from pathlib import Path

import pytest

from conftest import pose_msg_bytes
from wingman.follower import (
    DetachOrder,
    FollowerConfig,
    FollowerLoop,
    IssueCommand,
    MissionProtocolError,
    MissionState,
    Mode,
    PoseUpdate,
    ReturnArrived,
    RunAssess,
    StalePoseError,
    WaypointReached,
    assess,
    mission_step,
    return_target,
)
from wingman.geometry import FrameId, Pose, Vec3, wearable_delta_to_drone_delta
from wingman.protocol import TOPIC_CMD, TOPIC_POSE, CommandMsg, DetachMsg, decode_message, encode_message
from wingman.scenario import _run, config_from_dict

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def wpose(x, z, t, yaw=0.0):
    return Pose(Vec3(x, 0.0, z), yaw, FrameId.WEARABLE, t)


def test_assess_paper_example_speed_rule():
    cfg = FollowerConfig(update_period=0.5, max_speed=5.0)
    cmd = assess(wpose(0, 0, 0.0), wpose(1, 0, 0.5), Vec3(0, 0, 0), cfg)
    assert cmd is not None
    assert cmd.target == Vec3(0, 0, 1)
    assert cmd.speed == pytest.approx(2.0)


def test_assess_zero_delta_gives_no_command():
    cfg = FollowerConfig()
    assert assess(wpose(0, 0, 0.0), wpose(0, 0, 0.1), Vec3(), cfg) is None
    # even with the deadband disabled
    cfg = FollowerConfig(deadband=0.0)
    assert assess(wpose(0, 0, 0.0), wpose(0, 0, 0.1), Vec3(), cfg) is None


def test_assess_z_axis_mapping_example():
    cfg = FollowerConfig(update_period=1.0, max_speed=1.0)
    cmd = assess(wpose(0, 0, 0.0), wpose(0, 1, 1.0), Vec3(5, 0, 5), cfg)
    assert cmd is not None
    assert cmd.target == Vec3(4, 0, 5)
    assert cmd.speed == pytest.approx(1.0)


def test_assess_commands_backwards_yaw():
    cfg = FollowerConfig(max_speed=10.0)
    cmd = assess(wpose(0, 0, 0.0, yaw=0.3), wpose(1, 0, 0.1, yaw=0.4), Vec3(), cfg)
    assert cmd.yaw == pytest.approx(0.4 + math.pi - 2 * math.pi, abs=1e-12)


def test_assess_deadband():
    cfg = FollowerConfig(deadband=0.01, max_speed=10.0)
    assert assess(wpose(0, 0, 0.0), wpose(0.005, 0, 0.1), Vec3(), cfg) is None
    assert assess(wpose(0, 0, 0.0), wpose(0.01, 0, 0.1), Vec3(), cfg) is not None


def test_assess_stale_pose_error():
    cfg = FollowerConfig()
    with pytest.raises(StalePoseError):
        assess(wpose(0, 0, 1.0), wpose(1, 0, 1.0), Vec3(), cfg)
    with pytest.raises(StalePoseError):
        assess(wpose(0, 0, 1.0), wpose(1, 0, 0.5), Vec3(), cfg)


def test_assess_requires_wearable_frames():
    cfg = FollowerConfig()
    drone_pose = Pose(Vec3(), 0.0, FrameId.DRONE, 0.0)
    with pytest.raises(ValueError):
        assess(drone_pose, drone_pose, Vec3(), cfg)


def test_speed_clamp_preserves_direction():
    rng = random.Random(17)
    clamped_cfg = FollowerConfig(max_speed=0.5, deadband=0.0)
    free_cfg = FollowerConfig(max_speed=1e9, deadband=0.0)
    for _ in range(300):
        prev = wpose(rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0)
        curr = wpose(rng.uniform(-3, 3), rng.uniform(-3, 3), 0.1)
        base = Vec3(rng.uniform(-3, 3), 0, rng.uniform(-3, 3))
        clamped = assess(prev, curr, base, clamped_cfg)
        free = assess(prev, curr, base, free_cfg)
        if free is None:
            assert clamped is None
            continue
        assert clamped.target == free.target  # target never changes, only speed
        assert clamped.speed <= 0.5 + 1e-12


def test_assess_composition_reconstructs_path():
    rng = random.Random(23)
    cfg = FollowerConfig(update_period=0.1, max_speed=1e9, deadband=0.0)
    poses = [wpose(0.0, 0.0, 0.0)]
    for k in range(1, 300):
        prev = poses[-1]
        poses.append(
            wpose(
                prev.position.x + rng.uniform(-0.5, 0.5),
                prev.position.z + rng.uniform(-0.5, 0.5),
                k * 0.1,
            )
        )
    total = Vec3()
    for prev, curr in zip(poses, poses[1:]):
        cmd = assess(prev, curr, Vec3(), cfg)
        if cmd is not None:
            total = total + cmd.target
    mapped = wearable_delta_to_drone_delta(poses[-1].position - poses[0].position)
    assert (total - mapped).norm() <= 1e-9


def anchor_pose(x=0.0, z=0.0, yaw=0.0, t=0.0):
    return Pose(Vec3(x, 0, z), yaw, FrameId.WEARABLE, t)


def test_mission_follow_detach_transition():
    cfg = FollowerConfig()
    state = MissionState()
    w = (Vec3(1, 0, 0), Vec3(2, 0, 0))
    new, actions = mission_step(state, DetachOrder(w), cfg)
    assert new.mode is Mode.DETACH
    assert new.index == 0
    assert len(actions) == 1
    assert isinstance(actions[0], IssueCommand)
    assert actions[0].target == Vec3(1, 0, 0)
    assert actions[0].speed == cfg.max_speed


def test_mission_waypoints_advance_then_return():
    cfg = FollowerConfig(follow_offset=Vec3(0.1, 0, 0))
    state = MissionState(mode=Mode.DETACH, waypoints=(Vec3(1, 0, 0), Vec3(2, 0, 0)), index=0,
                         anchor=anchor_pose(3, 4))
    state, actions = mission_step(state, WaypointReached(), cfg)
    assert state.mode is Mode.DETACH and state.index == 1
    assert actions[0].target == Vec3(2, 0, 0)
    state, actions = mission_step(state, WaypointReached(), cfg)
    assert state.mode is Mode.RETURN
    expected = wearable_delta_to_drone_delta(Vec3(3, 0, 4)) + Vec3(0.1, 0, 0)
    assert actions[0].target == expected
    assert actions[0].speed == cfg.max_speed


def test_mission_return_arrival_resumes_follow():
    cfg = FollowerConfig()
    state = MissionState(mode=Mode.RETURN, anchor=anchor_pose())
    state, actions = mission_step(state, ReturnArrived(), cfg)
    assert state.mode is Mode.FOLLOW
    assert actions == []


def test_mission_pose_updates_anchor_in_all_modes():
    cfg = FollowerConfig()
    pose = anchor_pose(1, 2, t=5.0)
    for mode in (Mode.FOLLOW, Mode.DETACH, Mode.RETURN):
        state = MissionState(mode=mode, waypoints=(Vec3(),) if mode is Mode.DETACH else (),
                             anchor=None)
        new, actions = mission_step(state, PoseUpdate(pose), cfg)
        assert new.anchor == pose
        if mode is Mode.FOLLOW:
            assert actions == [RunAssess(pose)]
        elif mode is Mode.RETURN:
            assert len(actions) == 1 and isinstance(actions[0], IssueCommand)
            assert actions[0].target == return_target(pose, cfg)
        else:
            assert actions == []


def test_mission_illegal_pairs_raise_and_leave_state_unchanged():
    cfg = FollowerConfig()
    cases = [
        (MissionState(), WaypointReached()),
        (MissionState(), ReturnArrived()),
        (MissionState(mode=Mode.DETACH, waypoints=(Vec3(),)), DetachOrder((Vec3(),))),
        (MissionState(mode=Mode.DETACH, waypoints=(Vec3(),)), ReturnArrived()),
        (MissionState(mode=Mode.RETURN), DetachOrder((Vec3(),))),
        (MissionState(mode=Mode.RETURN), WaypointReached()),
        (MissionState(), DetachOrder(())),
    ]
    for state, event in cases:
        with pytest.raises(MissionProtocolError):
            mission_step(state, event, cfg)


def test_mission_liveness_from_reachable_states():
    cfg = FollowerConfig()
    reachable = [
        MissionState(),
        MissionState(anchor=anchor_pose(1, 1)),
        MissionState(mode=Mode.DETACH, waypoints=(Vec3(1, 0, 0), Vec3(2, 0, 0)), index=0,
                     anchor=anchor_pose()),
        MissionState(mode=Mode.DETACH, waypoints=(Vec3(1, 0, 0), Vec3(2, 0, 0)), index=1,
                     anchor=anchor_pose()),
        MissionState(mode=Mode.RETURN, anchor=anchor_pose()),
    ]
    sequence = [DetachOrder((Vec3(0.5, 0, 0), Vec3(1, 0, 0))), WaypointReached(), WaypointReached(),
                WaypointReached(), WaypointReached(), ReturnArrived()]
    for start in reachable:
        state = start
        for event in sequence:
            try:
                state, _ = mission_step(state, event, cfg)
            except MissionProtocolError:
                pass  # illegal in this mode; state unchanged
        assert state.mode is Mode.FOLLOW


class Bus:
    """Captures follower publications and decodes the commands."""

    def __init__(self):
        self.commands = []
        self.raw = []

    def publish(self, topic, payload):
        self.raw.append((topic, payload))
        self.commands.append(decode_message(topic, payload))


def make_loop(bus, **cfg_kwargs):
    events = []
    cfg = FollowerConfig(**cfg_kwargs)
    loop = FollowerLoop(cfg, publish=bus.publish,
                        on_event=lambda t, name, data: events.append((t, name, data)))
    return loop, events


def test_loop_publishes_commands_with_increasing_sequence():
    bus = Bus()
    loop, _ = make_loop(bus, max_speed=10.0)
    for k in range(10):
        loop.on_message("tagteam/pose", pose_msg_bytes(k, k * 0.1, 0.05 * k, 0.0))
    assert len(bus.commands) == 9  # first pose only primes the pairing
    assert [c.sequence for c in bus.commands] == list(range(9))
    assert all(isinstance(c, CommandMsg) for c in bus.commands)


def test_loop_drops_sequence_regressions_and_stale_timestamps():
    bus = Bus()
    loop, _ = make_loop(bus, max_speed=10.0)
    loop.on_message("tagteam/pose", pose_msg_bytes(0, 0.0, 0.0, 0.0))
    loop.on_message("tagteam/pose", pose_msg_bytes(1, 0.1, 0.1, 0.0))
    n = len(bus.commands)
    loop.on_message("tagteam/pose", pose_msg_bytes(1, 0.2, 0.5, 0.0))  # seq regression
    loop.on_message("tagteam/pose", pose_msg_bytes(0, 0.3, 0.9, 0.0))  # worse regression
    assert len(bus.commands) == n
    assert loop.stale_count == 2
    loop.on_message("tagteam/pose", pose_msg_bytes(5, 0.05, 0.9, 0.0))  # timestamp in the past
    assert len(bus.commands) == n
    assert loop.stale_count == 3


def test_loop_missed_updates_hold_position():
    bus = Bus()
    loop, _ = make_loop(bus, max_speed=10.0)
    loop.on_message("tagteam/pose", pose_msg_bytes(0, 0.0, 0.0, 0.0))
    loop.on_message("tagteam/pose", pose_msg_bytes(1, 0.1, 0.1, 0.0))
    assert len(bus.commands) == 1
    # a 3*dt gap: no command across the gap, pairing restarts
    loop.on_message("tagteam/pose", pose_msg_bytes(2, 0.4, 1.0, 0.0))
    assert len(bus.commands) == 1
    assert loop.missed_count == 1
    loop.on_message("tagteam/pose", pose_msg_bytes(3, 0.5, 1.1, 0.0))
    assert len(bus.commands) == 2


def test_loop_ignores_its_own_move_commands():
    bus = Bus()
    loop, _ = make_loop(bus)
    loop.on_message(TOPIC_CMD, encode_message(CommandMsg(Vec3(1, 0, 0), 0.0, 1.0, 0)))
    assert bus.commands == []
    assert loop.mission.mode is Mode.FOLLOW


def test_loop_decodes_no_payload_it_published_itself(parsed):
    bus = Bus()
    loop, _ = make_loop(bus, max_speed=10.0)
    loop.on_message(TOPIC_POSE, pose_msg_bytes(0, 0.0, 0.0, 0.0))
    loop.on_message(TOPIC_POSE, pose_msg_bytes(1, 0.1, 0.1, 0.0))
    [(topic, own)] = bus.raw
    loop.on_message(topic, own)  # the loopback hands back the very object
    loop.on_message(topic, bytes(bytearray(own)))  # over TCP: an equal, new object
    assert parsed == []
    assert loop.protocol_error_count == 0 and len(bus.raw) == 1


def test_loop_full_boomerang_over_messages():
    bus = Bus()
    loop, events = make_loop(bus, max_speed=1.0)
    k = 0
    # prime with two poses so following is underway
    for _ in range(3):
        loop.on_message("tagteam/pose", pose_msg_bytes(k, k * 0.1, 0.02 * k, 0.0))
        k += 1
    detach = DetachMsg((Vec3(0.2, 0, 0.0), Vec3(0.2, 0, 0.2)), 0)
    loop.on_message(TOPIC_CMD, encode_message(detach))
    assert loop.mission.mode is Mode.DETACH
    leg_targets = [c.target for c in bus.commands[-1:]]
    assert leg_targets == [Vec3(0.2, 0, 0.0)]
    # stream poses until the mission has boomeranged home
    while loop.mission.mode is not Mode.FOLLOW and k < 200:
        loop.on_message("tagteam/pose", pose_msg_bytes(k, k * 0.1, 0.02 * k, 0.0))
        k += 1
    assert loop.mission.mode is Mode.FOLLOW
    names = [name for _, name, _ in events]
    assert names[0] == "detach_started"
    assert names.count("waypoint_reached") == 2
    assert "return_started" in names
    assert names[-1] == "follow_resumed"
    # detach orders while already detached are protocol violations
    bus2 = Bus()
    loop2, _ = make_loop(bus2)
    loop2.on_message(TOPIC_CMD, encode_message(detach))
    loop2.on_message(TOPIC_CMD, encode_message(detach))
    assert loop2.protocol_error_count == 1


def test_loop_builds_one_command_message_per_published_command(monkeypatch):
    built = []
    check = CommandMsg.__post_init__

    def counting_check(msg):
        built.append(msg.sequence)
        check(msg)

    payloads = []
    loop = FollowerLoop(FollowerConfig(max_speed=1.0), publish=lambda topic, payload: payloads.append(payload))
    detach = encode_message(DetachMsg((Vec3(0.2, 0, 0.0), Vec3(0.2, 0, 0.2)), 0))
    monkeypatch.setattr(CommandMsg, "__post_init__", counting_check)
    for k in range(3):
        loop.on_message(TOPIC_POSE, pose_msg_bytes(k, k * 0.1, 0.02 * k, 0.0))
    loop.on_message(TOPIC_CMD, detach)
    while loop.mission.mode is not Mode.FOLLOW and k < 200:
        k += 1
        loop.on_message(TOPIC_POSE, pose_msg_bytes(k, k * 0.1, 0.02 * k, 0.0))
    for k in range(k + 1, k + 4):
        loop.on_message(TOPIC_POSE, pose_msg_bytes(k, k * 0.1, 0.02 * k, 0.0))
    sequences = list(built)  # decoding below builds messages too
    # follow commands before and after the detour, two legs and the return leg
    assert len(payloads) > 5 and loop.mission.mode is Mode.FOLLOW
    assert sequences == [decode_message(TOPIC_CMD, payload).sequence for payload in payloads]


def test_a_gap_keeps_the_displacement_it_skipped():
    # the human walks 0.05 m along +x per 0.1 s period; poses 2-5 are lost
    bus = Bus()
    loop, _ = make_loop(bus, max_speed=2.0)
    for k in (0, 1, 6, 7, 8, 9):
        loop.on_message(TOPIC_POSE, pose_msg_bytes(k, k * 0.1, 0.05 * k, 0.0))
    assert loop.missed_count == 1
    # nothing is sent across the gap; the 0.25 m it skipped is owed: the next
    # command goes as far as max_speed reaches in a period (0.2 of 0.3 m), the
    # one after covers the rest (0.1 m) and this period's 0.05 m, and then
    # the commands follow the human again
    assert [c.target.z for c in bus.commands] == pytest.approx([0.05, 0.25, 0.40, 0.45])
    assert [c.target.x for c in bus.commands] == [0.0] * 4
    assert [c.speed for c in bus.commands] == pytest.approx([0.5, 2.0, 1.5, 0.5])


def test_the_deadband_drops_no_kept_displacement():
    bus = Bus()
    loop, _ = make_loop(bus, max_speed=1.0, deadband=0.01)
    loop.on_message(TOPIC_POSE, pose_msg_bytes(0, 0.0, 0.0, 0.0))
    loop.on_message(TOPIC_POSE, pose_msg_bytes(1, 0.4, 0.008, 0.0))  # a gap that skipped 8 mm
    loop.on_message(TOPIC_POSE, pose_msg_bytes(2, 0.5, 0.008, 0.0))  # then no motion at all
    assert loop.missed_count == 1
    [cmd] = bus.commands
    assert cmd.target == wearable_delta_to_drone_delta(Vec3(0.008, 0.0, 0.0))
    assert cmd.speed == pytest.approx(0.08)
    # with the gap spent, motion below the deadband sends nothing again
    loop.on_message(TOPIC_POSE, pose_msg_bytes(3, 0.6, 0.012, 0.0))
    assert len(bus.commands) == 1


def lossy_run(config, lost, seed=0, p=1.0):
    """The run of ``config`` with each pose whose timestamp lies in the
    closed interval ``lost`` dropped before the follower, with probability
    ``p`` drawn from a seeded generator; the other clients get every pose.
    Returns the trace, the follower and the timestamps of the lost poses."""
    rng = random.Random(seed)
    deliver = FollowerLoop.on_message
    loops, dropped = [], []

    def lossy(self, topic, payload):
        if self not in loops:
            loops.append(self)
        if topic == TOPIC_POSE:
            t = decode_message(topic, payload).pose.timestamp
            if lost[0] <= t <= lost[1] and rng.random() < p:
                dropped.append(t)
                return
        deliver(self, topic, payload)

    FollowerLoop.on_message = lossy
    try:
        trace = _run(config_from_dict(json.loads((CONFIGS / config).read_text())))
    finally:
        FollowerLoop.on_message = deliver
    [loop] = loops
    return trace, loop, dropped


def end_gap(trace):
    """Distance between the human-mapped and drone paths at the last tick."""
    return math.dist(trace.human_trajectory().points[-1], trace.drone_trajectory().points[-1])


def test_a_lost_pose_window_leaves_no_lasting_offset():
    lossless, loop, dropped = lossy_run("demo.json", (0.0, -1.0))
    assert loop.missed_count == 0 and dropped == []
    lossy, loop, dropped = lossy_run("demo.json", (10.0, 10.5))
    assert loop.missed_count == 1 and len(dropped) == 6
    # the drone kept the offset of the 0.6 s the gap skipped (0.094 m at the
    # end of the run against 0.016 m); now it catches up within a millimetre
    assert end_gap(lossy) == pytest.approx(end_gap(lossless), abs=1e-3)


def test_poses_lost_during_a_detach_leg_still_end_in_follow():
    trace, loop, dropped = lossy_run("boomerang.json", (20.0, 23.0), seed=3, p=0.5)
    times = {event["event"]: event["t"] for event in trace.events}
    assert any(times["detach_started"] < t < times["follow_resumed"] for t in dropped)
    names = [event["event"] for event in trace.events]
    assert names[-1] == "follow_resumed" and names.count("waypoint_reached") == 3
    # and a gap in the poses after the return is kept, as in any FOLLOW
    assert loop.missed_count == 1 and any(t > times["follow_resumed"] for t in dropped)
    assert trace.rows[-1].mode == "FOLLOW" and loop.mission.mode is Mode.FOLLOW
