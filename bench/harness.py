"""Pure helpers of the benchmark: percentiles, self time, pose->command
pairing and command-stream comparison. Nothing here imports wingman."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

import numpy as np

# A percentile is reported only when at least this many samples rank above it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than MIN_BEYOND
    samples rank above it (so p99 needs 1000 samples, p50 needs 20)."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def min_samples_for(q: float) -> int:
    """Smallest sample count for which percentile(.., q) is reported."""
    n = 1
    while percentile(range(n), q) is None:
        n += 1
    return n


def windowed_percentile(samples: Sequence[float], q: float, window: int) -> float | None:
    """Median over consecutive windows of ``window`` samples of each window's
    q-th percentile, or None when no window can report it.

    Samples are in the order they were taken; the last window absorbs the
    remainder. One burst of interference then moves one window's estimate
    rather than the whole run's.
    """
    count = len(samples) // window
    if count == 0:
        return None
    bounds = [k * len(samples) // count for k in range(count + 1)]
    estimates = [percentile(samples[a:b], q) for a, b in zip(bounds, bounds[1:])]
    if any(e is None for e in estimates):
        return None
    return float(statistics.median(estimates))


def self_times(parent: Sequence[int], start: Sequence[float], end: Sequence[float]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``parent[i]`` is the index of span i's parent, or -1 for a root. Spans
    of one thread nest, so a span's direct children never overlap and
    their summed durations are the part of its interval they cover.
    """
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - covered


def pose_command_pairs(emitted_per_pose: Sequence[int]) -> list[tuple[int, int]]:
    """(pose index, command index) for the first command each pose triggered.

    ``emitted_per_pose[i]`` is how many commands the follower published
    while handling pose i; commands are numbered in publish order.
    """
    pairs = []
    next_cmd = 0
    for i, emitted in enumerate(emitted_per_pose):
        if emitted:
            pairs.append((i, next_cmd))
        next_cmd += emitted
    return pairs


def pose_to_cmd_ms(
    pairs: Sequence[tuple[int, int]], due: Sequence[float], received: Sequence[float]
) -> tuple[list[float], int]:
    """Latencies from each pose's due time to its command's arrival, in ms,
    and the number of pairs whose command never arrived."""
    latencies = []
    missing = 0
    for i, j in pairs:
        if j < len(received):
            latencies.append((received[j] - due[i]) * 1000.0)
        else:
            missing += 1
    return latencies, missing


def compare_streams(expected: Sequence[bytes], received: Sequence[bytes]) -> dict[str, int]:
    """Position-by-position comparison of two command payload streams."""
    common = min(len(expected), len(received))
    return {
        "mismatched": sum(1 for k in range(common) if expected[k] != received[k]),
        "missing": len(expected) - common,
        "extra": len(received) - common,
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of the values (of all when there are fewer
    than four).

    On a shared host a repetition runs either at full speed or in one of
    the host's slow episodes, which last seconds. Over a handful of
    repetitions the median then jumps from one speed to the other, while
    this moves in proportion to the share of slow repetitions; the
    quarters it drops at each end keep single stalls out, as the median
    does.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return float(statistics.fmean(ordered[cut:len(ordered) - cut]))

