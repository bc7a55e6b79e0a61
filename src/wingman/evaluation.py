"""Trajectory-synchronization evaluation: DTW, similarity, annotations.

The similarity pipeline, pinned by regression tests:

1. normalize each trajectory independently: translate its centroid to
   the origin and scale so the max centroid distance is 1 (a trajectory
   whose points are all equal becomes all zeros);
2. resample both onto a common uniform grid spanning the overlap of
   their time ranges, with N = max(len(a), len(b)) samples;
3. run DTW with Euclidean point cost (``math.hypot``) and steps
   (i-1,j), (i,j-1), (i-1,j-1); the distance is the cost sum along the
   optimal boundary-matched path (backtrack ties prefer diagonal, then
   (i-1,j), then (i,j-1)). The accumulated-cost matrix is never stored:
   the forward pass fills the cells row by row in one scalar loop over
   a band of live cells and keeps one byte of backtrack move per
   computed cell. It skips every cell whose value plus a lower bound on
   the cost still to come exceeds the cost of one fixed valid path, so
   on trajectories in sync it computes a narrow band around the optimal
   path; the distance and path are exactly those of the full
   recurrence. The bound sums, over the rows (or columns) still to come,
   each point's least gap to the other trajectory along one coordinate
   or in distance from the origin: 1-D nearest-neighbour searches, a
   sort and a binary search each. Inputs of under ``_BOUND_MIN_CELLS``
   cells skip the searches and prune on the fixed path's cost alone;
4. similarity = 1 / (1 + distance / path_length).

This mapping is monotone, bounded in (0, 1] and equals 1 exactly at
perfect synchronization. The lag estimate is the integer sample shift
(positive = second trajectory lags the first) minimizing the mean
distance between shift-aligned normalized points, in seconds; ties
prefer the smaller |shift|, then the negative one. Every shift up to
half the grid is a candidate, and few are scored. A lower bound on each
shift's score comes from the triangle inequality over chunks of 16
consecutive pairs: the distances of a chunk add up to at least the
distance of its sums. The bounds cost about a sixteenth of scoring every
shift. Shifts are scored best first, in ascending order of bound, until
the next bound exceeds the best score, so every shift left scores
higher than the best. Each score has the float operations of
``np.linalg.norm(diffs, axis=1).mean()``, so the estimate is the one a
loop over every shift gives, bit for bit. Trajectories in sync have
their scored shifts cut to a few percent; unrelated ones prune nothing.
On a periodic path the estimate can still be a whole revolution off the
true lag, as it was before the search was pruned.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from wingman.agents import read_headed_csv

ANNOTATION_HEADER = ["frame", "label", "xmin", "ymin", "xmax", "ymax"]


class AnnotationError(ValueError):
    """Malformed annotation input: CSV content or frame rate."""


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
        if not all(map(math.isfinite, self.times)):
            raise ValueError("trajectory times must be finite")
        if not all(math.isfinite(v) for point in self.points for v in point):
            raise ValueError("trajectory points must be finite")
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
    array) of finite values; the cost is the Euclidean distance
    (``math.hypot``). The path is monotone and contiguous from (0, 0) to
    (len(a)-1, len(b)-1). The forward pass runs row by row over the band
    of cells that can still lie on the optimal path, and memory is one
    byte of backtrack move per computed cell: the other cells are never
    computed, and the distance and path are the same as those of the
    full recurrence.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("dtw: sequences must be non-empty")
    A, B = _as_points(a), _as_points(b)
    if A.shape[1] != B.shape[1]:
        raise ValueError("dtw: points must share one dimensionality")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("dtw: points must be finite")
    n, m = len(A), len(B)
    distance, moves, starts = _dtw_rows(A, B)
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i or j:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            move = moves[starts[i] + j]
            if move == _DIAG:
                i, j = i - 1, j - 1
            elif move == _UP:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return distance, path


# Fewest cells (n * m) for which ``_prune_bounds`` runs its bound pass:
# below, the pass costs more than the cells it can save.
_BOUND_MIN_CELLS = 1 << 14


def _dtw_rows(A: np.ndarray, B: np.ndarray) -> tuple[float, bytearray, list[int]]:
    """Fill the recurrence one row at a time over the live band, skipping
    the cells that cannot lie on the optimal path: D[n-1, m-1], moves,
    starts.

    A cell takes the diagonal predecessor if it is no greater than the
    other two, else the upper one if no greater than the left one, else
    the left one. Border cells (i == 0 or j == 0) have one predecessor;
    the backtrack reads no move there.

    A cell is dropped (set to inf) when its value plus a lower bound on
    the cost still to come exceeds the cost of a fixed valid path (see
    ``_prune_bounds``); the others are live. No cell of the optimal path
    is ever dropped, and dropping only raises other cells, so every path
    cell keeps its value and its move. Row i computes the columns from
    the first live one of row i - 1 to one past its last live one, then
    goes on to the right for as long as its left neighbour is live: no
    other cell of the row has a live predecessor. Only the live cells of
    the previous row are kept, between two absent (inf) ones.

    Each row's costs come from one lazy ``map(math.hypot, ...)`` over the
    differences of its point and the points of B from the row's first
    column on, so ``math.hypot`` runs once per computed cell (``np.hypot``
    can differ from it in the last bit). The moves are one byte per computed cell, row after row; the
    move of cell (i, j) is ``moves[starts[i] + j]``.
    """
    m = len(B)
    b_cols = [B[:, k].copy() for k in range(B.shape[1])]
    limit, row_rest, col_rest = _prune_bounds(A, B)
    # a cell's bound is max(column bound, row bound); the column bounds do
    # not increase along a row (col_view[j] is column j's), so it is the
    # column's left of the first column whose bound is at most the row's,
    # found by bisecting the ascending bounds, and the row's from there on
    col_view = memoryview(col_rest[m - 1::-1].copy())
    ascending = col_rest[:m].tolist()
    row_rest = row_rest.tolist()
    hypot, inf = math.hypot, math.inf
    # a dropped cell is inf, and a live one is finite unless nothing drops
    drops = limit < inf
    moves = bytearray()
    put = moves.append
    starts = []
    # row -1 as cell (0, 0) reads it: a virtual cell (-1, -1) of 0.0, so
    # that cell (0, 0) costs c + 0.0, and no cell above
    above, lo = [0.0, inf], 0
    for i, point in enumerate(A.tolist()):
        costs = map(hypot, *[memoryview(x - b[lo:]) for x, b in zip(point, b_cols)])
        r = row_rest[i + 1]
        split = max(lo, m - bisect_right(ascending, r))
        bounds = chain(col_view[lo:split], repeat(r, m - split))
        starts.append(len(moves) - lo)
        row = []
        keep = row.append
        left = inf
        # costs come last, so that zip stops before it calls math.hypot
        # for a cell past the band
        for diag, up, bound, cost in zip(above, above[1:], bounds, costs):
            if diag <= up and diag <= left:
                put(_DIAG)
                left = cost + diag
            elif up <= left:
                put(_UP)
                left = cost + up
            else:
                put(_LEFT)
                left = cost + left
            if left + bound > limit:
                left = inf
            keep(left)
        if left < inf or not drops:
            # past the band only the left neighbour can be live; the
            # cells above are absent (inf), so an inf left one ties them
            for bound, cost in zip(bounds, costs):
                put(_LEFT if left < inf else _DIAG)
                left = cost + left
                if left + bound > limit:
                    break
                keep(left)
        if drops:
            first, last = 0, len(row) - 1
            while row[first] == inf:
                first += 1
            while row[last] == inf:
                last -= 1
            row, lo = row[first:last + 1], lo + first
        above = [inf, *row, inf]
    return above[-2], moves, starts


def _prune_bounds(A: np.ndarray, B: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Pruning limit and the per-row and per-column bounds on the cost to come.

    The limit is the cost of one valid path (diagonal steps, then
    straight), summed as the recurrence sums it, so the optimal D[n-1,
    m-1] never exceeds it. ``row_rest[r]`` bounds from below the cost of
    any path from a cell of row r - 1 onwards: the path visits every
    later row, each at a cost of at least that row's bound from
    ``_nearest_bounds``. ``col_rest`` is the same for columns, reversed:
    a cell of column j reads ``col_rest[m - 1 - j]``. If the limit is
    not finite (finite coordinates near the float maximum can overflow a
    cost; ``dtw`` rejects NaN and inf ones), it is inf and the bounds
    are zero, so nothing is dropped. Below ``_BOUND_MIN_CELLS``
    cells the bounds are zero too, which is valid: the limit alone
    still drops the cells whose own value exceeds it.

    With u = 2**-52, ``_nearest_bounds`` gives per-row values L with
    L (1 - 4 d u) - (4 d + 2) 2**-1074 at most the kernel's cost of
    any cell of the row. They shrink by a relative margin of 4 (n + m +
    d + 8) u, which covers that 4 d u, the rounding of the shrink
    itself, of the suffix sums (under n + m additions, each up by at
    most u / 2), of the recurrence, which sums a path in its own order
    in under n + m additions that each round down by at most u / 2, and
    of the test ``value + bound > limit``; the limit grows by the same
    margin. Then they drop by (8 d + 4) 2**-1074, which covers what
    does not round relative to its size: the subnormal errors of the
    costs, of the radii and of the shrink. No row value is inf (the
    tour's cost in that row bounds it), so the sums cannot overflow.
    """
    n, m, d = len(A), len(B), A.shape[1]
    steps = np.arange(max(n, m))
    tour = [memoryview(A[np.minimum(steps, n - 1), k] - B[np.minimum(steps, m - 1), k])
            for k in range(d)]
    limit = 0.0
    for cost in map(math.hypot, *tour):
        limit = cost + limit
    row_rest, col_rest = np.zeros(n + 1), np.zeros(m + 1)
    if not math.isfinite(limit):
        return math.inf, row_rest, col_rest
    margin = 4 * (n + m + d + 8) * math.ulp(1.0)
    if n * m >= _BOUND_MIN_CELLS:
        mins = np.concatenate([_nearest_bounds(A, B), _nearest_bounds(B, A)])
        mins = np.maximum(mins * (1 - margin) - math.ldexp(8 * d + 4, -1074), 0.0)
        row_rest[:n] = np.cumsum(mins[n - 1::-1])[::-1]
        np.cumsum(mins[:n - 1:-1], out=col_rest[1:])
    return limit * (1 + margin), row_rest, col_rest


def _nearest_bounds(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """A lower bound on the distance from each point of P to its nearest
    point of Q, from nearest-neighbour searches in one dimension.

    Each 1-Lipschitz projection f, |f(p) - f(q)| <= |p - q|, bounds the
    distance by min over q of |f(p) - f(q)|: a sort of f(Q), then
    ``_nearest_gaps``. The projections are each coordinate and, for two
    or more, the distance from the origin (where ``_prepare`` puts each
    centroid); the bound is the largest of them (the envelope of
    LB_Keogh, Keogh & Ratanamahatana, KAIS 2005, used for pruning as in
    Herrmann & Webb, DMKD 2021).

    Floats, with u = 2**-52 and the kernel's cost of a cell c =
    ``math.hypot`` (under 1 ulp of error) of the rounded differences
    fl(p_k - q_k):
    - a coordinate gap is the least |fl(p_k - q_k)| of the row, the very
      value the kernel passes to ``math.hypot``, so c >= gap (1 - u) -
      2**-1074;
    - the radius R = ``np.hypot`` of the coordinates rounds relative to
      the radius r, not to the distance t = |p - q|: allowing 4 ulps per
      ``np.hypot`` call (libm's errs by under 1), |R - r| <= rho r +
      tau with rho = 4 (d - 1) u and tau under 2 d subnormal units. As
      |r(p) - r(q)| <= t and r(q) <= r(p) + t, the radius gap is at
      most (1 + u / 2) ((1 + rho) t + 2 rho r(p) + 2 tau), and t (1 - u)
      is at most c + 2**-1074, since each difference rounds by at most u
      / 2 relative and exactly when subnormal. So the gap less 8 d u
      R(p), which exceeds 2 rho r(p) and its rounding, satisfies the
      bound that ``_prune_bounds`` states;
    - a radius that overflows (coordinates near the float maximum) drops
      that projection; the differences of a neighbour that is not the
      nearest may overflow to inf and are never the minimum.
    """
    d = P.shape[1]
    with np.errstate(over="ignore"):
        bound = np.zeros(len(P))
        for k in range(d):
            np.maximum(bound, _nearest_gaps(P[:, k], Q[:, k]), out=bound)
        if d > 1:
            p_radius, q_radius = np.hypot.reduce(P, axis=1), np.hypot.reduce(Q, axis=1)
            if np.isfinite(p_radius).all() and np.isfinite(q_radius).all():
                gaps = _nearest_gaps(p_radius, q_radius)
                np.maximum(bound, gaps - 8 * d * math.ulp(1.0) * p_radius, out=bound)
    return bound


def _nearest_gaps(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """min over j of |p[i] - q[j]| for each i, from the two neighbours of
    p[i] in sorted q (a difference rounds monotonically, so the nearest
    rounded difference is one of theirs)."""
    q = np.sort(q)
    above = np.minimum(np.searchsorted(q, p), len(q) - 1)
    below = np.maximum(above - 1, 0)
    return np.minimum(np.abs(p - q[below]), np.abs(p - q[above]))


def _as_points(seq: Sequence) -> np.ndarray:
    """Scalars or same-length coordinate tuples as an (n, d) float array."""
    points = np.asarray(seq, dtype=float)  # ragged rows raise ValueError
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[1] == 0:
        raise ValueError("dtw: points must be scalars or non-empty coordinate tuples")
    return points


def _normalize(points: np.ndarray) -> np.ndarray:
    if (points == points[0]).all():
        # a path that never moves has no shape to scale; the mean of its
        # equal coordinates can round off them, and scaling would blow that
        # rounding error up to a unit offset
        return np.zeros_like(points)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = points - points.mean(axis=0)
        scale = float(np.linalg.norm(centered, axis=1).max())
    if not math.isfinite(scale) or scale < 2.0**-500:
        # past about 1e154 the squares overflow (and past about 1e308 the
        # sums), below about 1e-154 they underflow: bring the points into
        # range first
        points = points / np.abs(points).max()
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
    A, B, _ = _prepare(a, b)
    return _dtw_similarity(A, B)[1]


def _dtw_similarity(A: np.ndarray, B: np.ndarray) -> tuple[float, float, int]:
    """DTW distance, similarity and path length of prepared trajectories."""
    distance, path = dtw(A, B)
    return distance, 1.0 / (1.0 + distance / len(path)), len(path)


# Chunk distances per block of the lag search's bounds: enough that numpy's
# per-call cost is small against the work, few enough to keep each of the
# block's arrays at 128 KB (with 512 KB arrays, each block's fresh memory
# made the bounds about 40% slower on a 2-core Xeon).
_LAG_BLOCK = 1 << 14

# Consecutive pairs summed into one chunk by the lag search's bound (a
# power of two): longer chunks make the bound cheaper and looser.
_LAG_CHUNK = 16


def _lag_bounds(fixed: np.ndarray, shifted: np.ndarray, last: int) -> np.ndarray:
    """A lower bound on ``_shift_score(fixed, shifted, t)`` for each shift
    t from 0 to ``last``, from (d, n) coordinate rows.

    The score is the mean of the L = n - t distances |fixed[i] -
    shifted[i + t]|. By the triangle inequality, the distances of C =
    ``_LAG_CHUNK`` consecutive pairs add up to at least the distance of
    their sums, so the score is at least the sum over the L // C whole
    chunks of |F_j - S_(jC + t)|, over L: F_j sums the fixed points jC
    to jC + C - 1 (one reshape), and S_p the shifted points p to p + C -
    1 (window sums, from log2 C additions of shifted copies, read at
    stride C). The bound costs about 1 / C of scoring every shift. A
    block of shifts is bounded at once, one chunk per row and one shift
    per column.

    Floats, with u = 2**-52, M the largest |coordinate| and K = L // C:
    - ``_shift_score`` computes at least the exact score times 1 - (L +
      d + 4) u / 2, less sqrt(d) 2**-537: each difference rounds by u /
      2 relative (exactly if subnormal), each square and sum of squares
      by u / 2 relative plus 2**-1075 (underflow), so the root errs by u
      / 2 relative plus sqrt(d 2**-1075), and the sum of the L
      nonnegative distances and its division by L by u / 2 each;
    - a chunk sum of C terms, in any order, errs by at most (C - 1) u C
      M per coordinate, so the distance of two sums by sqrt(d) 2 (C - 1)
      u C M. By the same steps as the score's, with K <= L / C, the
      computed bound is at most the exact one plus sqrt(d) (2 (C - 1) u
      M + 2**-537 / C), times 1 + (K + d + 4) u / 2;
    - so the computed score is at least the computed bound times 1 - (L
      + K + 2 d + 8) u / 2, less sqrt(d) (2 C u M + 2**-536). The bound
      is shrunk by a relative 4 (n + d + 8) u, which exceeds that and
      the rounding of the shrink, and lowered by d (4 C u M + 2**-535).
    A bound that comes out negative, or not finite because a sum or a
    square overflowed (chunk sums past about 1e154), is 0.
    """
    d, n = fixed.shape
    bounds = np.zeros(last + 1)
    chunks = n // _LAG_CHUNK
    with np.errstate(over="ignore", invalid="ignore"):
        fixed_sums = fixed[:, :chunks * _LAG_CHUNK].reshape(d, chunks, _LAG_CHUNK).sum(axis=2)
        window_sums, width = shifted, 1
        while width < _LAG_CHUNK:
            window_sums, width = window_sums[:, width:] + window_sums[:, :-width], 2 * width
        # zeros past the last window keep every block's view in range; the
        # entries that read them are set to 0 below
        window_sums = np.concatenate([window_sums, np.zeros((d, n))], axis=1)
        start = 0
        while start <= last and (n - start) // _LAG_CHUNK:
            count = (n - start) // _LAG_CHUNK
            stop = min(last + 1, start + max(1, _LAG_BLOCK // count))
            dist = None
            for sums, windows in zip(fixed_sums, window_sums):
                # diff[j, t - start] = F_j - S_(jC + t)
                diff = sums[:count, None] - sliding_window_view(windows[start:], stop - start)[::_LAG_CHUNK][:count]
                diff *= diff
                dist = diff if dist is None else np.add(dist, diff, out=dist)
            np.sqrt(dist, out=dist)
            # shift t has (n - t) // C whole chunks: chunk j is past the
            # pairs of the shifts after n - (j + 1) C
            for j in range((n - stop + 1) // _LAG_CHUNK, count):
                dist[j, n - (j + 1) * _LAG_CHUNK + 1 - start:] = 0.0
            bounds[start:stop] = dist.sum(axis=0) / np.arange(n - start, n - stop, -1)
            start = stop
        u = math.ulp(1.0)
        scale = max(np.abs(fixed).max(), np.abs(shifted).max())
        bounds = bounds * (1 - 4 * (n + d + 8) * u) - d * (4 * _LAG_CHUNK * u * scale + 2.0**-535)
        return np.where(bounds < math.inf, np.maximum(bounds, 0.0), 0.0)


def _shift_score(a: np.ndarray, b: np.ndarray, s: int) -> float:
    """Mean distance of the shift-aligned points at shift s, from (d, n)
    coordinate rows.

    Shift s >= 0 pairs a[i] with b[i + s] and shift s < 0 pairs a[i - s]
    with b[i]; the sign of a difference does not change its square, so
    shift -t is scored as b[i] - a[i + t]. The float operations are those
    of ``np.linalg.norm(diffs, axis=1).mean()`` on the n - |s|
    differences: dx*dx + dy*dy per pair, its root, then the pairwise sum
    of the distances divided by their count.
    """
    if s < 0:
        a, b, s = b, a, -s
    count = a.shape[1] - s
    dist = None
    for x, y in zip(a, b):
        diff = x[:count] - y[s:]
        diff *= diff
        dist = diff if dist is None else np.add(dist, diff, out=dist)
    return float(np.add.reduce(np.sqrt(dist, out=dist)) / count)


def _lag_samples(A: np.ndarray, B: np.ndarray) -> int:
    """Integer shift minimizing mean distance of shift-aligned points.

    Positive shift means B lags A. Ties prefer the smaller magnitude,
    then the negative shift. Every shift up to half the grid is a
    candidate. They are visited best first, in ascending order of
    ``_lag_bounds``, and scored until the next bound exceeds the best
    score: every shift left has a score above the best, so the tie rule
    picks the shift that scoring them all would pick.
    """
    half = len(A) // 2
    a, b = A.T.copy(), B.T.copy()
    # shift s >= 0 at index s, shift -t at index half + t
    bounds = np.concatenate([_lag_bounds(a, b, half), _lag_bounds(b, a, half)[1:]])
    order = np.argsort(bounds)
    best = (math.inf, 0, 0)
    for i, bound in zip(order.tolist(), bounds[order].tolist()):
        if bound > best[0]:
            break
        s = i if i <= half else half - i
        best = min(best, (_shift_score(a, b, s), abs(s), s))
    return best[2]


def sync_report(a: Trajectory, b: Trajectory) -> SyncReport:
    """Bundle DTW distance, similarity and lag estimate for two paths."""
    A, B, grid_dt = _prepare(a, b)
    return SyncReport(*_dtw_similarity(A, B), lag_estimate=_lag_samples(A, B) * grid_dt)


def load_annotations(path: str | Path, fps: float = 30.0) -> dict[str, Trajectory]:
    """Read bounding-box annotations into per-label center trajectories.

    Expects the header ``frame,label,xmin,ymin,xmax,ymax``. Each row adds
    the box center at t = frame / fps (pixel units). Frames are sorted
    per label; missing frames are allowed and never interpolated.
    """
    if not (math.isfinite(fps) and fps > 0):
        raise AnnotationError(f"fps must be finite and > 0, got {fps}")
    per_label: dict[str, dict[int, tuple[float, float]]] = {}
    for line_no, row in read_headed_csv(path, ANNOTATION_HEADER, AnnotationError):
        try:
            frame = int(row[0])
            xmin, ymin, xmax, ymax = (float(v) for v in row[2:6])
        except ValueError as exc:
            raise AnnotationError(f"{path} line {line_no}: {exc}") from exc
        if not all(map(math.isfinite, (xmin, ymin, xmax, ymax))):
            raise AnnotationError(f"{path} line {line_no}: non-finite box coordinate")
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
