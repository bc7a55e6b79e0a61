"""Shared test helpers: seeded generators and small utilities."""

from __future__ import annotations

import math
import random
import string
import time

import pytest

from wingman import protocol
from wingman.geometry import FrameId, Pose, Vec3
from wingman.protocol import PoseMsg, decode_message, encode_message, wire_float
from wingman.transport import ConnAck, Connect, Disconnect, PingReq, PingResp, Publish, SubAck, Subscribe

_TOPIC_CHARS = string.ascii_lowercase + string.digits + "_-"


def random_topic(rng: random.Random) -> str:
    levels = [
        "".join(rng.choice(_TOPIC_CHARS) for _ in range(rng.randint(1, 8)))
        for _ in range(rng.randint(1, 4))
    ]
    return "/".join(levels)


def random_filter(rng: random.Random) -> str:
    levels = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.2:
            levels.append("+")
        else:
            levels.append("".join(rng.choice(_TOPIC_CHARS) for _ in range(rng.randint(1, 8))))
    if rng.random() < 0.25:
        levels.append("#")
    return "/".join(levels)


def random_packet(rng: random.Random):
    kind = rng.randrange(8)
    if kind == 0:
        n = rng.randint(1, 24)
        return Connect("".join(rng.choice(_TOPIC_CHARS + "é中") for _ in range(n)))
    if kind == 1:
        return ConnAck()
    if kind == 2:
        payload = rng.randbytes(rng.randint(0, 2048))
        return Publish(random_topic(rng), payload)
    if kind == 3:
        return Subscribe(rng.randint(1, 0xFFFF), random_filter(rng))
    if kind == 4:
        return SubAck(rng.randint(1, 0xFFFF))
    if kind == 5:
        return PingReq()
    if kind == 6:
        return PingResp()
    return Disconnect()


def random_wire_vec3(rng: random.Random, scale: float = 10.0) -> Vec3:
    return Vec3(
        wire_float(rng.uniform(-scale, scale)),
        wire_float(rng.uniform(-scale, scale)),
        wire_float(rng.uniform(-scale, scale)),
    )


def rotate_y(v: Vec3, angle: float) -> Vec3:
    """Rotate ``v`` about +y so its facing angle increases by ``angle``."""
    c = math.cos(angle)
    s = math.sin(angle)
    return Vec3(v.x * c - v.z * s, v.y, v.x * s + v.z * c)


def drone_delta_to_wearable_delta(delta: Vec3) -> Vec3:
    """Exact horizontal inverse of ``geometry.wearable_delta_to_drone_delta``."""
    return Vec3(delta.z, 0.0, -delta.x)


def world_to_drone_frame(p: Vec3, origin: Vec3) -> Vec3:
    """World position -> drone frame; inverse of ``agents.drone_frame_to_world``."""
    d = p - origin
    return Vec3(-d.z, d.y, d.x)


def pose_msg_bytes(
    sequence: int, t: float, x: float, z: float, yaw: float = 0.0, source: str = "wearable"
) -> bytes:
    msg = PoseMsg(source, Pose(Vec3(x, 0.0, z), yaw, FrameId.WEARABLE, t), sequence)
    return encode_message(msg)


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def parse(topic: str, payload: bytes):
    """``decode_message(topic, payload)`` with the last payloads forgotten
    first, so the payload is parsed rather than remembered."""
    protocol._LAST.clear()
    return decode_message(topic, payload)


@pytest.fixture
def parsed(monkeypatch):
    """The payloads ``decode_message`` parses while a test runs, in order;
    one it returns as its topic's last payload is not parsed. Safe from
    reader threads."""
    payloads = []
    load = protocol._load

    def counting(payload):
        payloads.append(bytes(payload))
        return load(payload)

    monkeypatch.setattr(protocol, "_load", counting)
    return payloads
