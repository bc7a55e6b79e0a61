"""Blind-spot classification and human-relative spatial cue computation.

A detection becomes a cue when it lies within the cue range of the
human; the cue carries the human-relative polar coordinates (the inputs
a spatial-audio renderer would need) and a flag saying whether the
object sits outside the human's forward field of view. Cues are
deduplicated per object id over a one-second window so a continuous
detection stream does not spam the wearer.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

from wingman.geometry import FrameId, Pose, Vec3, relative_polar
from wingman.protocol import (
    TOPIC_CUES,
    TOPIC_DETECTIONS,
    TOPIC_POSE,
    CueMsg,
    DetectionMsg,
    PoseMsg,
    ValidationError,
    decode_message,
    encode_message,
)

DEDUP_WINDOW = 1.0  # seconds between cues for one object id


@dataclass(frozen=True)
class AttentionModel:
    """Forward field of view and cue range of the human."""

    human_fov: float = 2 * math.pi / 3
    cue_range: float = 5.0

    def __post_init__(self) -> None:
        if not 0 < self.human_fov <= 2 * math.pi:
            raise ValueError(f"human_fov must be in (0, 2*pi], got {self.human_fov}")
        if self.cue_range <= 0:
            raise ValueError(f"cue_range must be > 0, got {self.cue_range}")

    def in_range(self, distance: float) -> bool:
        """Range rule: an object this far from the human is cued."""
        return distance <= self.cue_range


def make_cue(human: Pose, detection: DetectionMsg, model: AttentionModel) -> CueMsg | None:
    """Human-relative cue for a detection, or None beyond the cue range.

    The object is in a blind spot when it lies outside the human's forward
    field of view; a horizontally coincident object is not (degenerate case).
    """
    distance, azimuth = relative_polar(human, detection.position)
    if not model.in_range(distance):
        return None
    return CueMsg(
        object_id=detection.object_id,
        label=detection.label,
        distance=distance,
        azimuth=azimuth,
        blind_spot=distance != 0.0 and abs(azimuth) > model.human_fov / 2,
        timestamp=detection.timestamp,
    )


class CueEngine:
    """Turns the pose and detection streams into deduplicated cues.

    Wearable poses are shifted into the world frame by the configured
    human start offset so they can be compared against world-frame
    detections. At most one cue per object id is emitted per window, and a
    cue message is built only for a cue that is emitted.
    """

    def __init__(
        self,
        model: AttentionModel,
        publish: Callable[[str, bytes], None] | None = None,
        human_start: Vec3 = Vec3(),
    ) -> None:
        self.model = model
        self.publish = publish
        self.human_start = human_start
        self.cue_count = 0
        self.dedup_count = 0  # cues withheld because their object was cued within DEDUP_WINDOW
        self.protocol_error_count = 0
        self._human: Pose | None = None
        self._last_emit: dict[str, float] = {}
        self._lock = threading.Lock()

    def on_message(self, topic: str, payload: bytes) -> None:
        if topic not in (TOPIC_POSE, TOPIC_DETECTIONS):
            return
        try:
            msg = decode_message(topic, payload)
        except ValidationError:
            self.protocol_error_count += 1
            return
        if isinstance(msg, PoseMsg):
            self._on_pose(msg)
        else:
            self._on_detection(msg)

    def _on_pose(self, msg: PoseMsg) -> None:
        pose = msg.pose
        with self._lock:
            self._human = Pose(
                pose.position + self.human_start, pose.yaw, FrameId.WORLD, pose.timestamp
            )

    def _on_detection(self, detection: DetectionMsg) -> None:
        with self._lock:
            human = self._human
            if human is None:
                return  # cannot localize the object relative to an unknown human
            distance, _ = relative_polar(human, detection.position)
            if not self.model.in_range(distance):
                return
            last = self._last_emit.get(detection.object_id)
            if last is not None and detection.timestamp - last < DEDUP_WINDOW - 1e-9:
                self.dedup_count += 1
                return
            self._last_emit[detection.object_id] = detection.timestamp
            self.cue_count += 1
        cue = make_cue(human, detection, self.model)
        if self.publish is not None:
            self.publish(TOPIC_CUES, encode_message(cue))
