import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecover.geometry import (
    Ball,
    DeltaCube,
    first_hit_index,
    log_unit_ball_volume,
    min_distance_to_set,
    min_squared_distances,
    squared_distance,
    unit_ball_volume,
)


def volume_by_recurrence(d):
    """Independent oracle: V_1 = 2, V_2 = pi, V_d = (2 pi / d) V_{d-2}."""
    v = {1: 2.0, 2: math.pi}
    for k in range(3, d + 1):
        v[k] = 2.0 * math.pi / k * v[k - 2]
    return v[d]


class TestUnitBallVolume:
    def test_interval(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)

    def test_disk(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)

    def test_d10_against_recurrence(self):
        assert unit_ball_volume(10) == pytest.approx(volume_by_recurrence(10), rel=1e-12)
        assert unit_ball_volume(10) == pytest.approx(2.5501640, abs=5e-8)

    @pytest.mark.parametrize("d", range(3, 101))
    def test_recurrence_invariant(self, d):
        assert unit_ball_volume(d) == pytest.approx(
            2.0 * math.pi / d * unit_ball_volume(d - 2), rel=1e-10
        )

    def test_direct_gamma_formula_small_d(self):
        for d in range(1, 120):
            direct = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
            assert unit_ball_volume(d) == pytest.approx(direct, rel=1e-12)

    def test_no_overflow_large_d(self):
        v = unit_ball_volume(200)
        assert 0.0 < v < 1e-100
        assert math.isfinite(log_unit_ball_volume(1000))

    @pytest.mark.parametrize("d", [0, -1])
    def test_domain_error(self, d):
        with pytest.raises(ValueError):
            unit_ball_volume(d)


class TestSquaredDistance:
    def test_pythagorean(self):
        assert squared_distance([0, 0], [3, 4]) == 25.0

    def test_identity(self):
        p = np.linspace(0, 1, 7)
        assert squared_distance(p, p) == 0.0

    def test_constant_offset_d20(self):
        a = np.full(20, 0.5)
        b = np.full(20, 0.75)
        assert squared_distance(a, b) == pytest.approx(1.25, rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            squared_distance([1, 2], [1, 2, 3])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_subnormal=False), min_size=1, max_size=6))
    def test_symmetry_and_zero_iff_equal(self, coords):
        a = np.asarray(coords)
        b = a[::-1].copy()
        assert squared_distance(a, b) == pytest.approx(squared_distance(b, a), rel=1e-12)
        if np.all(a == b):
            assert squared_distance(a, b) == 0.0
        elif np.max(np.abs(a - b)) > 1e-150:  # below this, squaring underflows
            assert squared_distance(a, b) > 0.0


class TestMinDistance:
    def test_simple(self):
        assert min_distance_to_set([0, 0], [[1, 0], [0, 2]]) == pytest.approx(1.0)

    def test_coincident(self):
        assert min_distance_to_set([0.3, 0.7], [[0.1, 0.1], [0.3, 0.7]]) == 0.0

    def test_1d(self):
        assert min_distance_to_set([0.5], [[0.1], [0.9]]) == pytest.approx(0.4)

    def test_empty_design(self):
        with pytest.raises(ValueError):
            min_distance_to_set([0.5], np.empty((0, 1)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 12), st.integers(0, 10**6))
    def test_is_minimum_over_the_set(self, d, npts, seed):
        rng = np.random.default_rng(seed)
        u = rng.random(d)
        pts = rng.random((npts, d))
        got = min_distance_to_set(u, pts)
        per_point = [math.sqrt(squared_distance(u, p)) for p in pts]
        assert got <= min(per_point) + 1e-12
        assert any(abs(got - v) < 1e-9 for v in per_point)


class TestNearestDistanceEngines:
    def test_engines_agree(self):
        rng = np.random.default_rng(7)
        targets = rng.random((500, 6))
        points = rng.random((300, 6))
        a = min_squared_distances(targets, points, engine="kdtree")
        b = min_squared_distances(targets, points, engine="blas")
        assert np.allclose(a, b, atol=2e-6)

    def test_thread_count_does_not_change_result(self):
        rng = np.random.default_rng(8)
        targets = rng.random((3000, 25))
        points = rng.random((2000, 25))
        a = min_squared_distances(targets, points, threads=1, target_chunk=256)
        b = min_squared_distances(targets, points, threads=4, target_chunk=256)
        assert np.array_equal(a, b)

    def test_first_hit_matches_bruteforce(self):
        rng = np.random.default_rng(9)
        targets = rng.random((200, 3))
        points = rng.random((150, 3))
        r = 0.25
        got = first_hit_index(targets, points, r, point_chunk=32)
        d2 = ((targets[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        hit = d2 <= r * r
        expected = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, points.shape[0] + 1)
        assert np.array_equal(got, expected)

    def test_first_hit_thread_count_does_not_change_result(self):
        rng = np.random.default_rng(10)
        targets = rng.random((3000, 25))
        points = rng.random((2000, 25))
        a = first_hit_index(targets, points, 1.1, threads=1, target_chunk=256, point_chunk=512)
        b = first_hit_index(targets, points, 1.1, threads=2, target_chunk=256, point_chunk=512)
        assert 0 < np.count_nonzero(a <= 2000) < 3000
        assert np.array_equal(a, b)

    def test_first_hit_merges_over_prefixes(self):
        # growing designs rely on this: hits in P[:k], else k + hits in P[k:]
        rng = np.random.default_rng(11)
        targets = rng.random((2000, 20))
        points = rng.random((3000, 20))
        n, k, r = points.shape[0], 1234, 0.95
        whole = first_hit_index(targets, points, r, point_chunk=1024)
        head = first_hit_index(targets, points[:k], r, point_chunk=1024)
        tail = first_hit_index(targets, points[k:], r, point_chunk=1024)
        merged = np.where(head <= k, head, np.where(tail <= n - k, k + tail, n + 1))
        assert 0 < np.count_nonzero(head <= k) < np.count_nonzero(whole <= n) < targets.shape[0]
        assert np.array_equal(whole, merged)

    def test_blas_error_within_float32_bound_d50(self):
        d = 50
        rng = np.random.default_rng(12)
        targets = rng.random((200, d))
        points = rng.random((5000, d))
        got = min_squared_distances(targets, points, engine="blas")
        exact = np.array([np.min(((points - u) ** 2).sum(axis=1)) for u in targets])
        spread = ((targets - 0.5) ** 2).sum(axis=1) + ((points - 0.5) ** 2).sum(axis=1).max()
        bound = np.finfo(np.float32).eps * d * spread
        assert np.all(np.abs(got - exact) <= bound)

    def test_near_radius_decisions_d50(self):
        # targets at r(1 +- 1e-3) from one design point: a margin of about
        # 2e-3 r^2, far above the float32 error bound at d = 50
        d, r = 50, 0.5
        rng = np.random.default_rng(13)
        points = rng.random((2000, d))
        owner = rng.choice(points.shape[0], size=400, replace=False)
        direction = rng.standard_normal((400, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        scale = np.where(np.arange(400) % 2 == 0, 1 - 1e-3, 1 + 1e-3) * r
        targets = points[owner] + scale[:, None] * direction
        hit = np.array([((points - u) ** 2).sum(axis=1) <= r * r for u in targets])
        expected = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, points.shape[0] + 1)
        assert np.array_equal(expected <= points.shape[0], np.arange(400) % 2 == 0)
        assert np.array_equal(first_hit_index(targets, points, r), expected)
        assert np.array_equal(min_squared_distances(targets, points, engine="blas") <= r * r, hit.any(axis=1))


class TestCubesAndBalls:
    def test_delta_cube_bounds(self):
        c = DeltaCube(0.5, 3)
        assert c.lower == 0.25 and c.upper == 0.75
        assert c.contains([0.3, 0.5, 0.7])
        assert not c.contains([0.2, 0.5, 0.5])

    def test_delta_one_recovers_unit_cube(self):
        c = DeltaCube(1.0, 2)
        assert c.lower == 0.0 and c.upper == 1.0

    def test_farthest_corner(self):
        c = DeltaCube(1.0, 2)
        assert c.farthest_corner_distance([0.0, 0.0]) == pytest.approx(math.sqrt(2))

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            DeltaCube(0.0, 3)
        with pytest.raises(ValueError):
            DeltaCube(1.2, 3)

    def test_ball(self):
        b = Ball(np.array([0.5, 0.5]), 0.25)
        assert b.contains([0.5, 0.7])
        assert not b.contains([0.5, 0.8])
        with pytest.raises(ValueError):
            Ball(np.array([0.0]), -1.0)
