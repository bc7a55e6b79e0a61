"""Trajectory-synchronization evaluation: DTW, similarity, annotations.

The similarity pipeline, pinned by regression tests:

1. normalize each trajectory independently: translate its centroid to
   the origin and scale so the max centroid distance is 1 (scaling is
   skipped for degenerate all-equal trajectories);
2. resample both onto a common uniform grid spanning the overlap of
   their time ranges, with N = max(len(a), len(b)) samples;
3. run DTW with Euclidean point cost (``math.hypot``) and steps
   (i-1,j), (i,j-1), (i-1,j-1); the distance is the cost sum along the
   optimal boundary-matched path (backtrack ties prefer diagonal, then
   (i-1,j), then (i,j-1)). The accumulated-cost matrix is never stored:
   the forward pass keeps one byte of backtrack move per cell and fills
   the cells one anti-diagonal at a time with numpy;
4. similarity = 1 / (1 + distance / path_length).

This mapping is monotone, bounded in (0, 1] and equals 1 exactly at
perfect synchronization. The lag estimate is the integer sample shift
(positive = second trajectory lags the first) minimizing the mean
distance between shift-aligned normalized points, in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from wingman.agents import read_headed_csv

ANNOTATION_HEADER = ["frame", "label", "xmin", "ymin", "xmax", "ymax"]


class AnnotationError(ValueError):
    """Malformed annotation CSV content."""


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered planar path in consistent units (meters or pixels)."""

    times: tuple[float, ...]
    points: tuple[tuple[float, float], ...]
    label: str = ""
    units: str = "m"

    def __post_init__(self) -> None:
        if len(self.times) == 0:
            raise ValueError("trajectory must have at least one point")
        if len(self.times) != len(self.points):
            raise ValueError("times and points must have equal length")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("trajectory times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class SyncReport:
    """DTW distance (normalized space), similarity, path length, lag."""

    dtw_distance: float
    similarity: float
    path_length: int
    lag_estimate: float


# Backtrack move per cell (one byte): the predecessor the optimal path
# to that cell came from.
_DIAG, _UP, _LEFT = 0, 1, 2


def dtw(a: Sequence, b: Sequence) -> tuple[float, list[tuple[int, int]]]:
    """Dynamic time warping distance and optimal alignment path.

    Points may be scalars or same-length coordinate tuples (or rows of an
    array); the cost is the Euclidean distance (``math.hypot``). The path
    is monotone and contiguous from (0, 0) to (len(a)-1, len(b)-1).
    Memory is one byte of backtrack move per cell.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("dtw: sequences must be non-empty")
    A, B = _as_points(a), _as_points(b)
    if A.shape[1] != B.shape[1]:
        raise ValueError("dtw: points must share one dimensionality")
    n, m = len(A), len(B)
    distance, moves = _dtw_wavefront(A, B)
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i or j:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            move = moves[i * m + j]
            if move == _DIAG:
                i, j = i - 1, j - 1
            elif move == _UP:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return distance, path


def _dtw_wavefront(A: np.ndarray, B: np.ndarray) -> tuple[float, bytearray]:
    """Fill the recurrence one anti-diagonal at a time: D[n-1, m-1], moves.

    A cell takes the diagonal predecessor if it is no greater than the
    other two, else the upper one if no greater than the left one, else
    the left one. Border cells (i == 0 or j == 0) have one predecessor;
    the backtrack reads no move there.

    Diagonal k holds the cells (i, k - i). Only the two previous
    diagonals are kept, indexed by row + 1 so that index 0 (row -1) and
    rows not yet reached read as absent (inf). Costs go through
    ``math.hypot`` cell by cell, because ``np.hypot`` can differ from it
    in the last bit.
    """
    n, m = len(A), len(B)
    a_cols = [A[:, k].copy() for k in range(A.shape[1])]
    b_cols = [B[::-1, k].copy() for k in range(B.shape[1])]  # column j at m-1-j
    moves = bytearray(n * m)
    flat = np.frombuffer(moves, dtype=np.uint8)
    older = np.full(n + 1, np.inf)  # diagonal k-2
    newer = np.full(n + 1, np.inf)  # diagonal k-1
    older[0] = 0.0  # so that cell (0, 0) costs c + 0.0
    hypot = math.hypot
    for k in range(n + m - 1):
        lo, hi = max(0, k - m + 1), min(k, n - 1)
        rev = m - 1 - k  # column k - i of B sits at b_cols index rev + i
        # a memoryview yields one float at a time, where tolist() would
        # build every float of the diagonal first
        diffs = [memoryview(a[lo:hi + 1] - b[rev + lo:rev + hi + 1])
                 for a, b in zip(a_cols, b_cols)]
        cost = np.fromiter(map(hypot, *diffs), float, hi - lo + 1)
        diag, up, left = older[lo:hi + 1], newer[lo:hi + 1], newer[lo + 1:hi + 2]
        up_or_left = np.minimum(up, left)
        # the move rule: _DIAG (0) unless diag is greater than both, else
        # _UP (1) unless up is greater than left, else _LEFT (2); cells
        # (i, k - i) for i in lo..hi sit at flat index k + i * (m - 1)
        np.multiply(diag > up_or_left, _UP + (up > left),
                    out=flat[k + lo * (m - 1):k + hi * (m - 1) + 1:max(m - 1, 1)], casting="unsafe")
        older[lo + 1:hi + 2] = cost + np.minimum(diag, up_or_left)
        if k == 0:
            older[0] = np.inf
        older, newer = newer, older
    return float(newer[n]), moves


def _as_points(seq: Sequence) -> np.ndarray:
    """Scalars or same-length coordinate tuples as an (n, d) float array."""
    points = np.asarray(seq, dtype=float)  # ragged rows raise ValueError
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[1] == 0:
        raise ValueError("dtw: points must be scalars or non-empty coordinate tuples")
    return points


def _normalize(points: np.ndarray) -> np.ndarray:
    centered = points - points.mean(axis=0)
    scale = float(np.linalg.norm(centered, axis=1).max())
    if scale > 0.0:
        centered = centered / scale
    return centered


def _prepare(a: Trajectory, b: Trajectory) -> tuple[np.ndarray, np.ndarray, float]:
    """Normalize then resample both trajectories onto the common grid."""
    t0 = max(a.times[0], b.times[0])
    t1 = min(a.times[-1], b.times[-1])
    if t1 < t0:
        raise ValueError("trajectories do not overlap in time")
    n = max(len(a), len(b))
    grid = np.linspace(t0, t1, n) if n > 1 else np.array([t0])
    resampled = []
    for traj in (a, b):
        points = _normalize(np.asarray(traj.points, dtype=float))
        times = np.asarray(traj.times, dtype=float)
        resampled.append(
            np.stack([np.interp(grid, times, points[:, k]) for k in range(2)], axis=1)
        )
    grid_dt = (t1 - t0) / (n - 1) if n > 1 else 0.0
    return resampled[0], resampled[1], grid_dt


def similarity(a: Trajectory, b: Trajectory) -> float:
    """Shape-and-timing similarity in (0, 1]; 1 means perfectly in sync."""
    return sync_report(a, b).similarity


def _lag_samples(A: np.ndarray, B: np.ndarray) -> int:
    """Integer shift minimizing mean distance of shift-aligned points.

    Positive shift means B lags A. Ties prefer the smaller magnitude.
    """
    n = len(A)
    best_shift = 0
    best_score = math.inf
    for s in sorted(range(-(n // 2), n // 2 + 1), key=lambda v: (abs(v), v)):
        if s >= 0:
            diffs = A[: n - s] - B[s:]
        else:
            diffs = A[-s:] - B[: n + s]
        if len(diffs) == 0:
            continue
        score = float(np.linalg.norm(diffs, axis=1).mean())
        if score < best_score:
            best_score = score
            best_shift = s
    return best_shift


def sync_report(a: Trajectory, b: Trajectory) -> SyncReport:
    """Bundle DTW distance, similarity and lag estimate for two paths."""
    A, B, grid_dt = _prepare(a, b)
    distance, path = dtw(A, B)
    return SyncReport(
        dtw_distance=distance,
        similarity=1.0 / (1.0 + distance / len(path)),
        path_length=len(path),
        lag_estimate=_lag_samples(A, B) * grid_dt,
    )


def load_annotations(path: str | Path, fps: float = 30.0) -> dict[str, Trajectory]:
    """Read bounding-box annotations into per-label center trajectories.

    Expects the header ``frame,label,xmin,ymin,xmax,ymax``. Each row adds
    the box center at t = frame / fps (pixel units). Frames are sorted
    per label; missing frames are allowed and never interpolated.
    """
    if fps <= 0:
        raise ValueError(f"fps must be > 0, got {fps}")
    per_label: dict[str, dict[int, tuple[float, float]]] = {}
    for line_no, row in read_headed_csv(path, ANNOTATION_HEADER, AnnotationError):
        try:
            frame = int(row[0])
            xmin, ymin, xmax, ymax = (float(v) for v in row[2:6])
        except ValueError as exc:
            raise AnnotationError(f"{path} line {line_no}: {exc}") from exc
        if frame < 0:
            raise AnnotationError(f"{path} line {line_no}: negative frame number {frame}")
        if xmax < xmin:
            raise AnnotationError(f"{path} line {line_no}: xmax {xmax} < xmin {xmin}")
        if ymax < ymin:
            raise AnnotationError(f"{path} line {line_no}: ymax {ymax} < ymin {ymin}")
        label = row[1]
        boxes = per_label.setdefault(label, {})
        if frame in boxes:
            raise AnnotationError(f"{path} line {line_no}: duplicate frame {frame} for {label!r}")
        boxes[frame] = ((xmin + xmax) / 2.0, (ymin + ymax) / 2.0)
    trajectories: dict[str, Trajectory] = {}
    for label, boxes in per_label.items():
        frames = sorted(boxes)
        trajectories[label] = Trajectory(
            times=tuple(f / fps for f in frames),
            points=tuple(boxes[f] for f in frames),
            label=label,
            units="px",
        )
    return trajectories
