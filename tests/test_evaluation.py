import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from wingman import evaluation
from wingman.evaluation import (
    AnnotationError,
    Trajectory,
    _lag_samples,
    dtw,
    load_annotations,
    similarity,
    sync_report,
)

# regression value computed by an independent scripted oracle of the same
# pipeline (normalize, resample, DTW mean step cost, 1/(1+mean)) before
# this module was written
ROTATED_CIRCLE_SIMILARITY = 0.98825863211803455
ROTATED_CIRCLE_DISTANCE = 0.39206856131825041
ROTATED_CIRCLE_PATH_LEN = 33


def test_dtw_identical_sequences():
    points = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]
    distance, path = dtw(points, points)
    assert distance == 0.0
    assert path == [(0, 0), (1, 1), (2, 2)]


def test_dtw_known_value():
    # brute-force enumeration of all monotone paths gives 1.0
    distance, path = dtw([0, 1, 2], [0, 2])
    assert distance == 1.0
    assert path[0] == (0, 0) and path[-1] == (2, 1)


def test_dtw_constant_sequences():
    distance, path = dtw([5], [5, 5, 5])
    assert distance == 0.0
    assert len(path) == 3


def test_dtw_empty_is_error():
    with pytest.raises(ValueError):
        dtw([], [1])
    with pytest.raises(ValueError):
        dtw([1], [])


def test_dtw_mixed_dimensionality_is_error():
    with pytest.raises(ValueError):
        dtw([(1, 2), (1, 2, 3)], [(0, 0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dtw_non_finite_point_is_error(bad):
    with pytest.raises(ValueError, match="finite"):
        dtw([bad], [0.0])
    with pytest.raises(ValueError, match="finite"):
        dtw([(0.0, 1.0)], [(1.0, 2.0), (bad, 0.0)])


def test_dtw_path_is_monotone_and_contiguous():
    rng = random.Random(3)
    for _ in range(100):
        a = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 12))]
        b = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 12))]
        distance, path = dtw(a, b)
        assert path[0] == (0, 0)
        assert path[-1] == (len(a) - 1, len(b) - 1)
        assert len(path) >= max(len(a), len(b))
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in {(1, 0), (0, 1), (1, 1)}


def path_cost(a, b, path):
    return sum(abs(a[i] - b[j]) for i, j in path)


def test_dtw_symmetry():
    rng = random.Random(4)
    for _ in range(200):
        a = [rng.randrange(3) for _ in range(rng.randint(1, 8))]
        b = [rng.randrange(3) for _ in range(rng.randint(1, 8))]
        dist_ab, path_ab = dtw(a, b)
        dist_ba, path_ba = dtw(b, a)
        assert dist_ab == dist_ba
        # the transposed path is an optimal alignment of the swapped pair
        # (ties may pick a different one, but never a cheaper or dearer one)
        assert path_cost(b, a, [(j, i) for i, j in path_ab]) == dist_ba
        assert path_cost(a, b, [(j, i) for i, j in path_ba]) == dist_ab


def dedup(seq):
    out = []
    for v in seq:
        if not out or out[-1] != v:
            out.append(v)
    return out


def test_dtw_zero_iff_deduplicated_equal():
    rng = random.Random(5)
    for _ in range(500):
        a = [rng.randrange(3) for _ in range(rng.randint(1, 7))]
        b = [rng.randrange(3) for _ in range(rng.randint(1, 7))]
        distance, _ = dtw(a, b)
        assert (distance == 0.0) == (dedup(a) == dedup(b))


def brute_force_dtw(a, b):
    """Exhaustive minimum over all monotone alignment paths (recursion)."""
    best = math.inf

    def walk(i, j, acc):
        nonlocal best
        acc += abs(a[i] - b[j])
        if acc >= best:
            return
        if i == len(a) - 1 and j == len(b) - 1:
            best = acc
            return
        if i + 1 < len(a) and j + 1 < len(b):
            walk(i + 1, j + 1, acc)
        if i + 1 < len(a):
            walk(i + 1, j, acc)
        if j + 1 < len(b):
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best


def test_dtw_equals_exhaustive_minimum_small():
    sequences = []
    for length in range(1, 5):
        sequences.extend(itertools.product(range(3), repeat=length))
    rng = random.Random(6)
    pairs = [(rng.choice(sequences), rng.choice(sequences)) for _ in range(1500)]
    for a, b in pairs:
        assert dtw(list(a), list(b))[0] == brute_force_dtw(a, b)


def reference_dtw(a, b):
    """Full-matrix DTW: each cell is its cost plus the least predecessor;
    the backtrack prefers diagonal, then (i-1, j), then (i, j-1)."""
    A = [tuple(p) if isinstance(p, (tuple, list)) else (p,) for p in a]
    B = [tuple(p) if isinstance(p, (tuple, list)) else (p,) for p in b]
    n, m = len(A), len(B)
    D = [[math.inf] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            c = math.hypot(*(x - y for x, y in zip(A[i], B[j])))
            if i == 0 and j == 0:
                D[i][j] = c
            else:
                diag = D[i - 1][j - 1] if i and j else math.inf
                up = D[i - 1][j] if i else math.inf
                left = D[i][j - 1] if j else math.inf
                D[i][j] = c + min(diag, up, left)
    i, j = n - 1, m - 1
    path = [(i, j)]
    while i or j:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = D[i - 1][j - 1], D[i - 1][j], D[i][j - 1]
            if diag <= up and diag <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    return D[n - 1][m - 1], path[::-1]


def test_dtw_full_path_and_tie_order_match_reference():
    # integer values make many equal-cost predecessors, so the tie order
    # decides the path; the degenerate shapes (1 x 1, 1 x n, n x 1) have
    # one-cell anti-diagonals and a single path
    rng = random.Random(11)
    shapes = [(n, m) for n in range(1, 9) for m in range(1, 9)] * 4
    shapes += [(rng.randint(40, 120), rng.randint(40, 120)) for _ in range(12)]
    shapes += [(120, 120), (1, 60), (60, 2), (30, 400)]
    shapes += [(1, 1), (1, 200), (200, 1)]
    for n, m in shapes:
        for dim in (1, 2):
            if dim == 1:
                a = [rng.randrange(3) for _ in range(n)]
                b = [rng.randrange(3) for _ in range(m)]
            else:
                a = [(rng.randrange(3), rng.randrange(3)) for _ in range(n)]
                b = [(rng.randrange(3), rng.randrange(3)) for _ in range(m)]
            assert dtw(a, b) == reference_dtw(a, b), (n, m, dim)


def test_dtw_noisy_circle_is_bit_identical_to_reference():
    rng = np.random.default_rng(13)
    t = np.linspace(0.0, 2 * np.pi, 300)
    a = np.stack([np.cos(t), np.sin(t)], axis=1) + rng.normal(0.0, 0.05, (300, 2))
    b = np.stack([np.cos(t - 0.2), np.sin(t - 0.2)], axis=1)
    distance, path = dtw(a, b)
    ref_distance, ref_path = reference_dtw(a.tolist(), b.tolist())
    assert distance == ref_distance  # bit-identical, not approximate
    assert path == ref_path


def test_dtw_memory_is_one_byte_per_cell():
    # 2000 x 2000 cells: 4 MB of backtrack moves; a float64 cost matrix
    # alone would be 32 MB
    a, b = np.random.default_rng(14).normal(size=(2, 2000, 2))
    tracemalloc.start()
    try:
        dtw(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def in_sync_circles(n, lag=0, turns=10, noise=0.02, dim=2, scale=1.0, seed=0):
    """A noisy circle and a clean copy of it ``lag`` samples behind, as
    (n, dim) arrays; dim 1 keeps the cosine, dim 3 adds cos(2t)."""
    t = np.linspace(0.0, 2 * np.pi * turns, n + lag)
    clean = np.stack([np.cos(t), np.sin(t), np.cos(2 * t)][:dim], axis=1)
    noisy = clean[lag:] + np.random.default_rng(seed).normal(0.0, noise, (n, dim))
    return noisy * scale, clean[:n] * scale


def count_hypot(monkeypatch):
    """Patch math.hypot to count its calls: one per computed DTW cell,
    plus max(n, m) for the bounding path."""
    calls = [0]
    hypot = math.hypot

    def counting(*args):
        calls[0] += 1
        return hypot(*args)

    monkeypatch.setattr(math, "hypot", counting)
    return calls


def test_pruned_dtw_matches_reference_where_pruning_bites(monkeypatch):
    rng = random.Random(15)
    # (a, b, whether the bounds must skip cells)
    cases = [(*in_sync_circles(160, lag=lag, turns=2, seed=lag), True) for lag in range(6)]
    # integer periodic sequences: many equal costs, so the tie order decides
    for period, shift, n, m in [(5, 0, 150, 150), (5, 2, 150, 170), (7, 3, 200, 140)]:
        cases.append(([k % period for k in range(n)], [(k + shift) % period for k in range(m)], False))
        cases.append(([(k % period, k % 3) for k in range(n)],
                      [((k + shift) % period, k % 3) for k in range(m)], False))
    cases += [(*in_sync_circles(150, lag=2, turns=2, dim=dim), True) for dim in (1, 3)]
    a, b = in_sync_circles(210, lag=1, turns=3)
    cases += [(a, b[:170], False), (a[:130], b, False)]
    cases += [(*in_sync_circles(150, lag=3, turns=2, scale=scale, seed=rng.randrange(100)), True)
              for scale in (1e-200, 1e150, 1e200)]
    cases = [(np.asarray(a, dtype=float), np.asarray(b, dtype=float), prunes) for a, b, prunes in cases]
    expected = [reference_dtw(a.tolist(), b.tolist()) for a, b, _ in cases]
    calls = count_hypot(monkeypatch)
    for (a, b, prunes), (ref_distance, ref_path) in zip(cases, expected):
        calls[0] = 0
        distance, path = dtw(a, b)
        assert distance == ref_distance  # bit-identical, not approximate
        assert path == ref_path
        if prunes:
            assert calls[0] < 0.6 * len(a) * len(b)


def test_pruned_dtw_prunes_alike_at_any_scale(monkeypatch):
    # near-concentric circles, as normalized human and drone paths are,
    # where the distance from the origin gives most of the bound; a power
    # of two scales every float operation exactly, so the same cells must
    # be computed, however large or small the squares of the coordinates
    a, b = in_sync_circles(150, lag=2, turns=2)
    b = b * 0.85
    expected = dtw(a, b)
    calls = count_hypot(monkeypatch)
    counts = []
    for scale in (1.0, 2.0**660, 2.0**-660):
        calls[0] = 0
        distance, path = dtw(a * scale, b * scale)
        assert (distance, path) == (expected[0] * scale, expected[1])
        counts.append(calls[0])
    assert counts[0] < 0.3 * 150 * 150
    assert counts == counts[:1] * 3


def test_pruned_dtw_computes_few_cells_of_an_in_sync_pair(monkeypatch):
    a, b = in_sync_circles(2000, lag=1)
    calls = count_hypot(monkeypatch)
    dtw(a, b)
    assert calls[0] < 0.05 * 2000 * 2000


def test_pruned_dtw_memory_grows_with_cells_computed():
    # 4000 x 4000 cells: one byte each would be 16 MB of moves alone
    a, b = in_sync_circles(4000, lag=1)
    tracemalloc.start()
    try:
        dtw(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def bound_cases():
    """(A, B) point pairs, as (n, d) arrays, that stress the pruning bounds."""
    rng = np.random.default_rng(16)
    cases = []
    for d in (1, 2, 3):
        for scale in (1e-300, 1e-150, 1e-10, 1.0, 1e10, 1e150, 1e300):
            n, m = rng.integers(1, 40, size=2)
            cases.append((rng.normal(size=(n, d)) * scale, rng.normal(size=(m, d)) * scale))
        # subnormal coordinates: small multiples of the least subnormal
        cases.append((rng.integers(-40, 40, size=(30, d)) * math.ulp(0.0),
                      rng.integers(-40, 40, size=(25, d)) * math.ulp(0.0)))
        # duplicate points, within each side and across them
        a = rng.normal(size=(20, d))
        cases.append((np.concatenate([a, a[:5]]), np.concatenate([a[3:12], a[3:6]])))
        # near the float maximum: differences across the sign overflow (but
        # not on the bounding path, which pairs equal signs), and from d = 2
        # on the radius of 1.5e308 does
        for big in (1e308, 1.5e308):
            near = big + rng.normal(size=(20, d)) * 1e300
            cases.append((np.concatenate([near[:10], -near]),
                          np.concatenate([near[::2] * (1 + 2**-40), -near[1::2]])))
        if d > 1:
            # nearly equal radius: the same rays, a few ulps longer or
            # shorter, or turned by a few ulps
            for scale in (1e-300, 1.0, 1e300):
                rays = rng.normal(size=(30, d)) * scale
                longer = rays[rng.permutation(30)[:20]] * (1 + rng.integers(-4, 5, size=(20, 1)) * 2.0**-52)
                turned = rays + rays[:, ::-1] * np.array([1.0, -1.0, 1.0][:d]) * 2.0**-50
                cases += [(rays, longer), (rays, turned)]
    return cases


def kernel_costs(A, B):
    """Every cell's cost as the DTW kernel computes it."""
    return np.array([[math.hypot(*(x - y for x, y in zip(p, q))) for q in B.tolist()]
                     for p in A.tolist()]).reshape(len(A), len(B))


def test_pruning_bounds_never_exceed_the_kernels_costs(monkeypatch):
    monkeypatch.setattr(evaluation, "_BOUND_MIN_CELLS", 0)
    u, tiny = math.ulp(1.0), math.ulp(0.0)
    for A, B in bound_cases():
        d = A.shape[1]
        costs = kernel_costs(A, B)
        n, m = costs.shape
        row_min, col_min = costs.min(axis=1), costs.min(axis=0)
        # the per-point values, with the margin their derivation states
        for bounds, mins in ((evaluation._nearest_bounds(A, B), row_min),
                             (evaluation._nearest_bounds(B, A), col_min)):
            assert (bounds * (1 - 4 * d * u) - (4 * d + 2) * tiny <= mins).all(), (A, B)
        # the suffix sums the kernel reads, against exact sums of the minima
        _, row_rest, col_rest = evaluation._prune_bounds(A, B)
        assert all(row_rest[r] <= math.fsum(row_min[r:]) for r in range(n + 1)), (A, B)
        assert all(col_rest[t] <= math.fsum(col_min[m - t:]) for t in range(m + 1)), (A, B)


def test_pruning_bounds_are_skipped_on_small_inputs():
    a, b = in_sync_circles(128, lag=1, turns=1)  # 16,384 cells, the least that get bounds
    _, row_rest, col_rest = evaluation._prune_bounds(a[:6], b[:5])
    assert not row_rest.any() and not col_rest.any()
    _, row_rest, col_rest = evaluation._prune_bounds(a, b)
    assert row_rest[0] > 0 and col_rest[-1] > 0


def test_pruning_bounds_of_a_long_pair_take_little_time():
    # 200,000 x 200,000 cells: a pass over every cell takes minutes
    a, b = in_sync_circles(200_000, lag=1, turns=100)
    start = time.perf_counter()
    _, row_rest, col_rest = evaluation._prune_bounds(a, b)
    assert time.perf_counter() - start < 20.0
    assert row_rest[0] > 0 and col_rest[-1] > 0


def circle_trajectories(n=32, rotate_by=1):
    times = tuple(k / 10.0 for k in range(n))
    angles = [2 * math.pi * k / n for k in range(n)]
    points = [(math.cos(t), math.sin(t)) for t in angles]
    rotated = points[rotate_by:] + points[:rotate_by]
    return (
        Trajectory(times, tuple(points), label="a"),
        Trajectory(times, tuple(rotated), label="b"),
    )


def test_similarity_identical_is_one():
    a, _ = circle_trajectories()
    assert similarity(a, a) == 1.0


def test_similarity_rotated_circle_regression():
    a, b = circle_trajectories()
    assert similarity(a, b) == pytest.approx(ROTATED_CIRCLE_SIMILARITY, abs=1e-9)
    report = sync_report(a, b)
    assert report.dtw_distance == pytest.approx(ROTATED_CIRCLE_DISTANCE, abs=1e-9)
    assert report.path_length == ROTATED_CIRCLE_PATH_LEN


def test_similarity_constant_trajectories():
    a = Trajectory((0.0, 1.0, 2.0), ((4.0, 4.0),) * 3)
    b = Trajectory((0.0, 1.0, 2.0), ((-100.0, 250.0),) * 3)
    # constants normalize onto the origin, so they are perfectly similar
    assert similarity(a, b) == 1.0


def test_similarity_single_points():
    a = Trajectory((0.0,), ((1.0, 2.0),))
    b = Trajectory((0.0,), ((5.0, -3.0),))
    assert similarity(a, b) == 1.0


def test_similarity_translation_and_common_scale_invariance():
    rng = random.Random(7)
    times = tuple(k / 10.0 for k in range(40))
    points = []
    x = z = 0.0
    for _ in times:
        x += rng.uniform(-0.5, 0.5)
        z += rng.uniform(-0.5, 0.5)
        points.append((x, z))
    half = [(px + 0.11 * i, pz - 0.07 * i) for i, (px, pz) in enumerate(points)]
    a = Trajectory(times, tuple(points))
    b = Trajectory(times, tuple(half))
    base = sync_report(a, b)

    shift = Trajectory(times, tuple((px + 13.0, pz - 4.0) for px, pz in points))
    report = sync_report(shift, b)
    assert report.similarity == pytest.approx(base.similarity, abs=1e-9)
    assert report.dtw_distance == pytest.approx(base.dtw_distance, abs=1e-9)
    assert report.path_length == base.path_length
    assert report.lag_estimate == pytest.approx(base.lag_estimate, abs=1e-9)

    scaled_a = Trajectory(times, tuple((3.5 * px, 3.5 * pz) for px, pz in points))
    scaled_b = Trajectory(times, tuple((3.5 * px, 3.5 * pz) for px, pz in half))
    report = sync_report(scaled_a, scaled_b)
    assert report.similarity == pytest.approx(base.similarity, abs=1e-9)
    assert report.dtw_distance == pytest.approx(base.dtw_distance, abs=1e-9)


def test_similarity_detects_shape_difference():
    times = tuple(float(k) for k in range(20))
    ramp = tuple((float(k), float(k) ** 1.5) for k in range(20))
    a = Trajectory(times, ramp)
    b = Trajectory(times, tuple(reversed(ramp)))
    assert similarity(a, b) < 1.0


def test_disjoint_time_ranges_error():
    a = Trajectory((0.0, 1.0), ((0, 0), (1, 1)))
    b = Trajectory((5.0, 6.0), ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        similarity(a, b)


def random_walk_trajectory(n, seed, dt=0.1):
    rng = random.Random(seed)
    times = []
    points = []
    x = z = 0.0
    for k in range(n):
        times.append(k * dt)
        x += rng.uniform(-0.5, 0.5)
        z += rng.uniform(-0.5, 0.5)
        points.append((x, z))
    return times, points


def test_sync_report_identical():
    times, points = random_walk_trajectory(50, seed=8)
    a = Trajectory(tuple(times), tuple(points))
    report = sync_report(a, a)
    assert report.similarity == 1.0
    assert report.lag_estimate == 0.0
    assert report.path_length >= 50


def test_sync_report_lag_of_delayed_copy():
    # b shows a's value five samples late on the same clock (10 Hz)
    times, points = random_walk_trajectory(41, seed=9)
    delayed = [points[max(k - 5, 0)] for k in range(41)]
    a = Trajectory(tuple(times), tuple(points))
    b = Trajectory(tuple(times), tuple(delayed))
    report = sync_report(a, b)
    assert report.lag_estimate == pytest.approx(0.5, abs=1e-6)


def test_sync_report_invariants():
    times, points = random_walk_trajectory(30, seed=10)
    other = [(pz, px) for px, pz in points]
    a = Trajectory(tuple(times), tuple(points))
    b = Trajectory(tuple(times), tuple(other))
    report = sync_report(a, b)
    assert 0.0 < report.similarity <= 1.0
    assert report.dtw_distance >= 0.0
    assert report.path_length >= max(len(a), len(b))


def test_sync_report_of_a_huge_circle_against_a_still_point():
    # past about 1e154 the squares of the circle's centred points overflow,
    # below about 1e-154 they underflow; a drone that never moves must not
    # read as perfectly in sync
    times = tuple(k / 10 for k in range(40))
    still = Trajectory(times, ((0.0, 0.0),) * 40)
    reports = []
    for radius in (1.0, 1e150, 1e200, 1.7e308, 1e-160, 1e-170, 1e-200, 1e-300):
        circle = Trajectory(times, tuple((radius * math.cos(t), radius * math.sin(t)) for t in times))
        reports.append(sync_report(circle, still))
    assert reports[0].similarity < 0.6
    for report in reports[1:]:
        assert report.similarity == pytest.approx(reports[0].similarity, rel=1e-12)
        assert report.lag_estimate == reports[0].lag_estimate


def test_a_still_point_off_the_origin_reads_alike_at_any_radius():
    # the mean of 40 copies of 1e150 rounds off 1e150: the centred still
    # point must not be scaled up from that rounding error to a unit offset
    still = np.full((40, 2), (1e150, 0.0))
    assert not evaluation._normalize(still).any()
    times = tuple(k / 10 for k in range(40))
    reports = []
    for radius in (1.0, 1e150):
        arc = Trajectory(times, tuple((radius * math.cos(0.05 * k), radius * math.sin(0.05 * k)) for k in range(40)))
        reports.append(sync_report(arc, Trajectory(times, ((radius, 0.0),) * 40)))
    assert reports[1].lag_estimate == reports[0].lag_estimate
    assert reports[1].similarity == pytest.approx(reports[0].similarity, abs=1e-9)


def test_similarity_does_not_search_the_lag(monkeypatch):
    a, b = circle_trajectories()

    def no_lag_search(A, B):
        raise AssertionError("similarity() must not search the lag")

    monkeypatch.setattr(evaluation, "_lag_samples", no_lag_search)
    value = similarity(a, b)
    assert value == pytest.approx(ROTATED_CIRCLE_SIMILARITY, abs=1e-9)
    monkeypatch.undo()
    assert value == sync_report(a, b).similarity  # bit for bit


def reference_lag_samples(A, B):
    """The loop over every shift that the lag search first was, kept
    verbatim as the reference, plus a record of every shift's score."""
    n = len(A)
    best_shift = 0
    best_score = math.inf
    scores = {}
    for s in sorted(range(-(n // 2), n // 2 + 1), key=lambda v: (abs(v), v)):
        if s >= 0:
            diffs = A[: n - s] - B[s:]
        else:
            diffs = A[-s:] - B[: n + s]
        if len(diffs) == 0:
            continue
        score = float(np.linalg.norm(diffs, axis=1).mean())
        scores[s] = score
        if score < best_score:
            best_score = score
            best_shift = s
    return best_shift, scores


def searched_scores(A, B):
    """The lag search's shift and every score it computed, by shift."""
    scores = {}
    shift_score = evaluation._shift_score

    def recording(a, b, s):
        scores[s] = shift_score(a, b, s)
        return scores[s]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_shift_score", recording)
        shift = _lag_samples(A, B)
    return shift, scores


def assert_lag_matches_reference(A, B):
    shift, scores = reference_lag_samples(A, B)
    searched, computed = searched_scores(A, B)
    assert computed == {s: scores[s] for s in computed}  # bit for bit
    assert searched == shift
    return shift


def test_lag_search_matches_the_per_shift_loop():
    rng = np.random.default_rng(16)
    for n in (1, 2, 3, 4, 5, 64, 65, 1001):
        for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
            noisy, clean = in_sync_circles(n, lag=int(rng.integers(0, 8)), turns=3, scale=scale, seed=n)
            assert_lag_matches_reference(noisy, clean)
            assert_lag_matches_reference(*rng.normal(0.0, scale, (2, n, 2)))
        # every shift of two still points scores 0, and shift 0 wins the tie
        assert assert_lag_matches_reference(np.ones((n, 2)), np.ones((n, 2))) == 0


def tie_cases():
    """(A, B, the shifts whose scores tie exactly, their score, the pick)."""
    # an exact tie between s and -s: B is A one sample on, both alternate
    # between two points, and every aligned pair differs by exactly 0.5
    A = np.array([(1.0, 2.0), (3.0, -1.0)] * 20)
    yield A, np.roll(A, 1, axis=0) + (0.5, 0.0), (1, -1), 0.5, -1
    # the same with every odd shift at exactly 0, where the bounds are 0 too
    yield A, np.roll(A, 1, axis=0), (1, -1, 3, -3), 0.0, -1
    # a later revolution of a periodic path against an earlier one: B
    # trails A by one sample, so shifts 1 and 1 + 7 tie exactly
    ring = [(1.0, 0.0), (0.25, 1.0), (-0.75, 0.5), (-1.0, -0.5), (-0.25, -1.0), (0.5, -0.75), (0.75, 0.25)]
    A = np.array(ring * 6)
    yield A, np.roll(A, 1, axis=0) + (0.0, 0.5), (1, 8, 15), 0.5, 1


def test_lag_search_ties_keep_their_order():
    for A, B, tied, score, pick in tie_cases():
        assert assert_lag_matches_reference(A, B) == pick
        _, computed = searched_scores(A, B)
        assert [computed[s] for s in tied] == [score] * len(tied)  # every tied shift is scored


def lag_bound_cases():
    """Pairs of (n, 2) arrays for the lag bounds, and whether most of their
    bounds must be positive."""
    rng = np.random.default_rng(18)
    for scale in (1e-160, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e153):
        for n in (15, 16, 17, 200, 601):
            noisy, clean = in_sync_circles(n, lag=3, turns=2, scale=scale, seed=n)
            yield noisy, clean, n >= 200 and 1e-150 <= scale <= 1e150
            yield *rng.normal(0.0, scale, (2, n, 2)), False
            yield clean, clean, False  # shift 0 scores exactly 0
        for A, B, *_ in tie_cases():
            yield A * scale, B * scale, False


def test_lag_bounds_never_exceed_the_scores():
    for A, B, bites in lag_bound_cases():
        _, scores = reference_lag_samples(A, B)
        half = len(A) // 2
        a, b = A.T.copy(), B.T.copy()
        # (shift, bound) for shifts 0 to half, then 0 to -half
        bounds = [(s, bound) for sign, fixed, shifted in ((1, a, b), (-1, b, a))
                  for s, bound in zip(range(0, sign * (half + 1), sign),
                                      evaluation._lag_bounds(fixed, shifted, half).tolist())]
        assert all(bound <= scores[s] for s, bound in bounds), (A, B)
        if bites:
            assert sum(bound > 0 for _, bound in bounds) > 0.9 * len(bounds)


def test_lag_search_scores_few_shifts_of_an_in_sync_pair():
    noisy, clean = in_sync_circles(3000, lag=1)
    shift, computed = searched_scores(noisy, clean)
    assert len(computed) < 0.05 * 3001
    assert computed[shift] == min(computed.values())


def test_lag_search_memory_is_bounded():
    # 4000 x 4000 pairs: the blocks hold about 1 MB; a full distance
    # matrix would be 128 MB
    a, b = np.random.default_rng(17).normal(size=(2, 4000, 2))
    tracemalloc.start()
    try:
        _lag_samples(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory((), ())
    with pytest.raises(ValueError):
        Trajectory((0.0, 0.0), ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        Trajectory((0.0, 1.0), ((0, 0),))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="times"):
            Trajectory((0.0, bad), ((0, 0), (1, 1)))
        with pytest.raises(ValueError, match="points"):
            Trajectory((0.0, 1.0), ((0, 0), (1, bad)))


def write_annotations(path, rows):
    lines = ["frame,label,xmin,ymin,xmax,ymax"]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def test_load_annotations_box_center_example(tmp_path):
    path = tmp_path / "ann.csv"
    write_annotations(path, [(0, "head", 0, 0, 10, 20)])
    out = load_annotations(path)
    assert set(out) == {"head"}
    assert out["head"].times == (0.0,)
    assert out["head"].points == ((5.0, 10.0),)
    assert out["head"].units == "px"


def test_load_annotations_interleaved_labels_sorted(tmp_path):
    path = tmp_path / "ann.csv"
    write_annotations(
        path,
        [
            (2, "head", 0, 0, 2, 2),
            (0, "drone", 4, 4, 6, 6),
            (0, "head", 0, 0, 4, 4),
            (1, "drone", 0, 0, 2, 2),
        ],
    )
    out = load_annotations(path, fps=10.0)
    assert out["head"].times == (0.0, 0.2)
    assert out["head"].points == ((2.0, 2.0), (1.0, 1.0))
    assert out["drone"].times == (0.0, 0.1)


def test_load_annotations_header_only(tmp_path):
    path = tmp_path / "ann.csv"
    write_annotations(path, [])
    assert load_annotations(path) == {}


def test_load_annotations_errors(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("frame,label,x1,y1,x2,y2\n")
    with pytest.raises(AnnotationError, match="header"):
        load_annotations(path)

    write_annotations(path, [(0, "head", 0, 0, 10, 20), ("x", "head", 0, 0, 1, 1)])
    with pytest.raises(AnnotationError, match="line 3"):
        load_annotations(path)

    write_annotations(path, [(0, "head", 10, 0, 0, 20)])
    with pytest.raises(AnnotationError, match="xmax"):
        load_annotations(path)

    write_annotations(path, [(0, "head", 0, 20, 10, 0)])
    with pytest.raises(AnnotationError, match="ymax"):
        load_annotations(path)

    write_annotations(path, [(-1, "head", 0, 0, 10, 20)])
    with pytest.raises(AnnotationError, match="negative frame"):
        load_annotations(path)

    write_annotations(path, [(3, "head", 0, 0, 10, 20), (3, "head", 1, 1, 2, 2)])
    with pytest.raises(AnnotationError, match="duplicate frame"):
        load_annotations(path)

    with pytest.raises(ValueError):
        load_annotations(path, fps=0.0)

    for row in [(1, "a", "nan", 0, 1, 1), (1, "a", 0, 0, "inf", 1), (1, "a", 0, "-inf", 1, 1)]:
        write_annotations(path, [(0, "a", 0, 0, 1, 1), row])
        with pytest.raises(AnnotationError, match="line 3: non-finite"):
            load_annotations(path)
    write_annotations(path, [(0, "a", 0, 0, 1, 1)])
    for fps in (math.nan, math.inf, -1.0):
        with pytest.raises(AnnotationError, match="fps"):
            load_annotations(path, fps=fps)


def test_missing_frames_are_allowed(tmp_path):
    path = tmp_path / "ann.csv"
    write_annotations(path, [(0, "head", 0, 0, 2, 2), (10, "head", 4, 4, 6, 6)])
    out = load_annotations(path, fps=30.0)
    assert out["head"].times == pytest.approx((0.0, 10 / 30.0))
    assert len(out["head"].points) == 2  # no interpolation
