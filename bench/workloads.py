"""Workload inputs, all derived from the seed given on the command line.

Nothing here imports wingman at module level, so the set-up probe can
time the import itself.
"""

from __future__ import annotations

import math
import random

SIM_LONG = "sim_long"
CROWDED = "crowded"
BUS_TCP = "bus_tcp"
WORKLOADS = (SIM_LONG, CROWDED, BUS_TCP)
DETERMINISTIC = (SIM_LONG, CROWDED)

REVOLUTION_20S = 2 * math.pi / 20.0
POSE_RATE_HZ = 10.0
POSE_NOISE_M = 0.02

# configs/demo.json's two world objects and configs/boomerang.json's detach order
DEMO_WORLD = (
    {"id": "crate", "label": "box", "x": -1.0, "y": 0.0, "z": -1.5},
    {"id": "plant", "label": "plant", "x": 0.5, "y": 0.0, "z": -0.5},
)
BOOMERANG_DETACH = ({"t": 20.0, "waypoints": [[0.3, 0, 0.3], [0.6, 0, 0.0], [0.3, 0, -0.3]]},)

SIM_LONG_TICKS = 3000
CROWDED_TICKS = 600
CROWDED_OBJECTS = 500
CROWDED_SQUARE_M = 8.0
CROWDED_LABELS = ("box", "chair", "plant", "person", "bag", "cone")

# bus_tcp: an open loop, one pose every millisecond of wall time, stamped at
# 10 Hz of virtual time so the follower assesses every pose.
BUS_POSES_PER_ROUND = 3000
BUS_OFFERED_RATE = 1000.0


def scenario_doc(workload: str, seed: int) -> dict:
    """Scenario config, in the form ``config_from_dict`` reads, for one seed."""
    if workload == SIM_LONG:
        return {
            "mode": "deterministic",
            "duration": SIM_LONG_TICKS / POSE_RATE_HZ,
            "seed": seed,
            "trajectory": {
                "kind": "circle",
                "radius": 0.5,
                "angular_speed": REVOLUTION_20S,
                "rate": POSE_RATE_HZ,
                "noise_sigma": POSE_NOISE_M,
            },
            "world": [dict(obj) for obj in DEMO_WORLD],
            "detach": [dict(order) for order in BOOMERANG_DETACH],
        }
    if workload == CROWDED:
        rng = random.Random(f"{seed}:crowded-world")
        half = CROWDED_SQUARE_M / 2
        world = [
            {
                "id": f"obj{k:03d}",
                "label": rng.choice(CROWDED_LABELS),
                "x": rng.uniform(-half, half),
                "y": 0.0,
                "z": rng.uniform(-half, half),
            }
            for k in range(CROWDED_OBJECTS)
        ]
        return {
            "mode": "deterministic",
            "duration": CROWDED_TICKS / POSE_RATE_HZ,
            "seed": seed,
            "trajectory": {
                "kind": "ellipse",
                "semi_axis_a": 0.75,
                "semi_axis_b": 0.5,
                "angular_speed": REVOLUTION_20S,
                "rate": POSE_RATE_HZ,
                "noise_sigma": POSE_NOISE_M,
            },
            "world": world,
            "detector": {"p_detect": 0.9, "pos_noise_sigma": 0.01},
        }
    raise ValueError(f"{workload} is not a deterministic workload")


def pose_stream(seed: int) -> list[tuple[bytes, bytes]]:
    """(pose payload, encoded PUBLISH packet) for one bus_tcp round."""
    from wingman.agents import Circle, TrajectorySpec, WearableSim
    from wingman.protocol import TOPIC_POSE, encode_message
    from wingman.transport import Publish, encode_packet

    spec = TrajectorySpec(Circle(0.5, REVOLUTION_20S), noise_sigma=POSE_NOISE_M, rate=POSE_RATE_HZ)
    wearable = WearableSim(spec, seed)
    stream = []
    for _ in range(BUS_POSES_PER_ROUND):
        _, msg = wearable.next_pose()
        payload = encode_message(msg)
        stream.append((payload, encode_packet(Publish(TOPIC_POSE, payload))))
    return stream


def input_sizes(workload: str) -> dict:
    """Input sizes recorded with every result."""
    if workload == SIM_LONG:
        return {"ticks": SIM_LONG_TICKS, "objects": len(DEMO_WORLD), "detach_orders": len(BOOMERANG_DETACH)}
    if workload == CROWDED:
        return {"ticks": CROWDED_TICKS, "objects": CROWDED_OBJECTS, "detach_orders": 0}
    return {
        "poses_per_round": BUS_POSES_PER_ROUND,
        "offered_rate_per_s": BUS_OFFERED_RATE,
        "link": "host loopback TCP (127.0.0.1), not a real network link",
    }
