import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubecover.geometry as geometry_module
from cubecover.geometry import (
    first_hit_index,
    log_unit_ball_volume,
    min_squared_distances,
    unit_ball_volume,
)
from cubecover.sampling import IidRows, SamplingScheme
from cubecover.streams import SeededStream


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


class TestMinDistance:
    """Nearest distances to small point sets, on both engines, against float64."""

    ENGINES = ("kdtree", "blas")

    def test_simple(self):
        for engine in self.ENGINES:
            d2 = min_squared_distances([[0, 0]], [[1, 0], [0, 2]], engine=engine)
            assert d2[0] == pytest.approx(1.0, abs=1e-6)

    def test_coincident(self):
        pts = [[0.1, 0.1], [0.3, 0.7]]
        assert min_squared_distances([[0.3, 0.7]], pts, engine="kdtree")[0] == 0.0
        assert min_squared_distances([[0.3, 0.7]], pts, engine="blas")[0] == pytest.approx(0.0, abs=1e-6)

    def test_1d(self):
        for engine in self.ENGINES:
            d2 = min_squared_distances([[0.5]], [[0.1], [0.9]], engine=engine)
            assert d2[0] == pytest.approx(0.16, abs=1e-6)

    def test_empty_design(self):
        for engine in self.ENGINES:
            with pytest.raises(ValueError, match="empty"):
                min_squared_distances([[0.5]], np.empty((0, 1)), engine=engine)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 12), st.integers(0, 10**6))
    def test_is_minimum_over_the_set(self, d, npts, seed):
        rng = np.random.default_rng(seed)
        u = rng.random((1, d))
        pts = rng.random((npts, d))
        exact = float(np.min(np.sum((pts - u) ** 2, axis=1)))
        assert min_squared_distances(u, pts, engine="kdtree")[0] == pytest.approx(exact, abs=1e-12)
        # float32 error bound eps32 * d * (||u'||^2 + max ||x'||^2) <= 2**-23 * 5 * 2.5
        assert min_squared_distances(u, pts, engine="blas")[0] == pytest.approx(exact, abs=2e-6)


class TestNonFiniteTargets:
    """A NaN or infinite target is refused up front by both engines and by
    first_hit_index, instead of coming back as NaN or as "never hit"."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("engine", ["blas", "kdtree"])
    def test_min_squared_distances(self, engine, bad):
        targets = np.full((3, 4), 0.5)
        targets[1, 2] = bad
        with pytest.raises(ValueError, match="target coordinates must be finite"):
            min_squared_distances(targets, np.random.default_rng(1).random((50, 4)), engine=engine)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_first_hit_index(self, bad):
        targets = np.full((3, 12), 0.5)
        targets[2, 0] = bad
        rows = IidRows(SamplingScheme.uniform(12), SeededStream(2), 0, 100)
        with pytest.raises(ValueError, match="target coordinates must be finite"):
            first_hit_index(targets, rows, 0.5)


class TestNonFinitePoints:
    """A NaN or infinite point in an array is refused up front by both engines
    and by first_hit_index, instead of coming back as NaN on one engine and as
    scipy's error on the other."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("engine", ["blas", "kdtree"])
    def test_min_squared_distances(self, engine, bad):
        points = np.random.default_rng(1).random((50, 4))
        points[7, 3] = bad
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            min_squared_distances(np.full((3, 4), 0.5), points, engine=engine)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_hit_index(self, bad):
        points = np.random.default_rng(2).random((100, 12))
        points[99, 0] = bad
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            first_hit_index(np.full((3, 12), 0.5), points, 0.5)


class TestFirstHitRadius:
    """first_hit_index refuses a negative or non-finite radius, which it would
    otherwise square into the hits of |radius| or into no hit at all."""

    POINTS = np.random.default_rng(3).random((200, 5))

    @pytest.mark.parametrize("radius", [-0.3, -1e-300, math.nan, math.inf, -math.inf])
    def test_bad_radius_raises(self, radius):
        with pytest.raises(ValueError, match="radius"):
            first_hit_index(np.full((4, 5), 0.5), self.POINTS, radius)
        with pytest.raises(ValueError, match="radius"):
            first_hit_index(np.empty((0, 5)), self.POINTS, radius)

    @pytest.mark.parametrize("radius", [0.0, -0.0])
    def test_zero_radius_is_accepted(self, radius):
        got = first_hit_index(np.full((4, 5), 0.5), self.POINTS, radius)
        assert np.array_equal(got, [201] * 4)


class TestEmptyTargets:
    """No targets give an empty result on both engines and in first_hit_index;
    a target array with the wrong column count still raises."""

    POINTS = np.random.default_rng(6).random((100, 3))

    @pytest.mark.parametrize("engine", ["blas", "kdtree"])
    def test_min_squared_distances(self, engine):
        got = min_squared_distances(np.empty((0, 3)), self.POINTS, engine=engine)
        assert got.shape == (0,) and got.dtype == np.float64
        with pytest.raises(ValueError, match="dimension mismatch"):
            min_squared_distances(np.empty((0, 4)), self.POINTS, engine=engine)

    def test_first_hit_index(self):
        got = first_hit_index(np.empty((0, 3)), self.POINTS, 0.5)
        assert got.shape == (0,) and got.dtype == np.int64
        with pytest.raises(ValueError, match="dimension mismatch"):
            first_hit_index(np.empty((0, 2)), self.POINTS, 0.5)


class TestEmptyPoints:
    """An empty point set is refused by both kernels, as an array or a row source."""

    KERNELS = {
        "min_sq_blas": lambda t, p: min_squared_distances(t, p, engine="blas"),
        "min_sq_kdtree": lambda t, p: min_squared_distances(t, p, engine="kdtree"),
        "first_hit": lambda t, p: first_hit_index(t, p, 0.5),
    }

    @pytest.mark.parametrize("kernel", list(KERNELS))
    @pytest.mark.parametrize("source", ["array", "rows"])
    def test_raises(self, kernel, source):
        points = np.empty((0, 3)) if source == "array" else \
            IidRows(SamplingScheme.uniform(3), SeededStream(8), 16, 16)
        with pytest.raises(ValueError, match="point set is empty"):
            self.KERNELS[kernel](np.full((2, 3), 0.5), points)


class TestNearestDistanceEngines:
    def test_engines_agree(self):
        rng = np.random.default_rng(7)
        targets = rng.random((500, 6))
        points = rng.random((300, 6))
        a = min_squared_distances(targets, points, engine="kdtree")
        b = min_squared_distances(targets, points, engine="blas")
        assert np.allclose(a, b, atol=2e-6)

    def test_thread_count_does_not_change_result(self, monkeypatch):
        monkeypatch.setattr(geometry_module, "_TARGET_CHUNK", 256)
        rng = np.random.default_rng(8)
        targets = rng.random((3000, 25))
        points = rng.random((2000, 25))
        a = min_squared_distances(targets, points, threads=1)
        b = min_squared_distances(targets, points, threads=4)
        assert np.array_equal(a, b)

    def test_point_chunk_does_not_change_result(self, monkeypatch):
        # more than one 8192-row chunk of points, so the point rows are also
        # filled in the pool when threads > 1
        rng = np.random.default_rng(17)
        targets = rng.random((700, 50))
        points = rng.random((9000, 50))
        monkeypatch.setattr(geometry_module, "_POINT_CHUNK", 4096)
        ref = min_squared_distances(targets, points)
        for point_chunk in (512, 2048):
            monkeypatch.setattr(geometry_module, "_POINT_CHUNK", point_chunk)
            for threads in (1, 3):
                got = min_squared_distances(targets, points, threads=threads)
                assert np.array_equal(got, ref)

    def test_first_hit_matches_bruteforce(self, monkeypatch):
        monkeypatch.setattr(geometry_module, "_POINT_CHUNK", 32)
        rng = np.random.default_rng(9)
        targets = rng.random((200, 3))
        points = rng.random((150, 3))
        r = 0.25
        got = first_hit_index(targets, points, r)
        d2 = ((targets[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        hit = d2 <= r * r
        expected = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, points.shape[0] + 1)
        assert np.array_equal(got, expected)

    def test_first_hit_thread_count_does_not_change_result(self, monkeypatch):
        monkeypatch.setattr(geometry_module, "_TARGET_CHUNK", 256)
        monkeypatch.setattr(geometry_module, "_POINT_CHUNK", 512)
        rng = np.random.default_rng(10)
        targets = rng.random((3000, 25))
        points = rng.random((2000, 25))
        a = first_hit_index(targets, points, 1.1, threads=1)
        b = first_hit_index(targets, points, 1.1, threads=2)
        assert 0 < np.count_nonzero(a <= 2000) < 3000
        assert np.array_equal(a, b)

    def test_first_hit_merges_over_prefixes(self, monkeypatch):
        # growing designs rely on this: hits in P[:k], else k + hits in P[k:]
        monkeypatch.setattr(geometry_module, "_POINT_CHUNK", 1024)
        rng = np.random.default_rng(11)
        targets = rng.random((2000, 20))
        points = rng.random((3000, 20))
        n, k, r = points.shape[0], 1234, 0.95
        whole = first_hit_index(targets, points, r)
        head = first_hit_index(targets, points[:k], r)
        tail = first_hit_index(targets, points[k:], r)
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

    @pytest.mark.parametrize("d, seed", [(10, 14), (20, 15)])
    def test_blas_error_within_float32_bound(self, d, seed):
        rng = np.random.default_rng(seed)
        targets = rng.random((300, d))
        points = rng.random((5000, d))
        got = min_squared_distances(targets, points, engine="blas")
        exact = np.array([np.min(((points - u) ** 2).sum(axis=1)) for u in targets])
        spread = ((targets - 0.5) ** 2).sum(axis=1) + ((points - 0.5) ** 2).sum(axis=1).max()
        bound = np.finfo(np.float32).eps * d * spread
        assert np.all(np.abs(got - exact) <= bound)

    def test_thread_counts_mixed_in_one_process(self, monkeypatch):
        # worker pools outlive a call, so interleave counts and reuse each pool
        monkeypatch.setattr(geometry_module, "_TARGET_CHUNK", 256)
        monkeypatch.setattr(geometry_module, "_POINT_CHUNK", 512)
        rng = np.random.default_rng(16)
        targets = rng.random((2500, 30))
        points = rng.random((1500, 30))
        d2 = min_squared_distances(targets, points, threads=1)
        hit = first_hit_index(targets, points, 1.2, threads=1)
        assert 0 < np.count_nonzero(hit <= 1500) < 2500
        for threads in (2, 4, 1, 4, 2):
            assert np.array_equal(min_squared_distances(targets, points, threads=threads), d2)
            assert np.array_equal(first_hit_index(targets, points, 1.2, threads=threads), hit)

    def test_cli_import_defers_scipy_spatial(self):
        script = textwrap.dedent("""
            import sys
            import numpy as np
            import cubecover.cli
            from cubecover import geometry
            assert "scipy.spatial" not in sys.modules
            rng = np.random.default_rng(0)
            t, p = rng.random((50, 3)), rng.random((40, 3))
            got = geometry.min_squared_distances(t, p, engine="kdtree")
            assert "scipy.spatial" in sys.modules
            assert geometry.cKDTree is sys.modules["scipy.spatial"].cKDTree
            exact = ((t[:, None, :] - p[None, :, :]) ** 2).sum(axis=2).min(axis=1)
            assert np.allclose(got, exact, rtol=1e-12, atol=1e-15)
        """)
        _run_fresh(script)

    def test_cli_import_defers_scipy_special(self):
        script = textwrap.dedent("""
            import sys
            import numpy as np
            import cubecover.cli
            from cubecover import intersect, sampling
            assert "scipy.special" not in sys.modules
            u = np.linspace(0.1, 0.9, 5)
            x = sampling.beta_quantile(2.0, u)
            assert np.allclose(3 * x**2 - 2 * x**3, u)  # the Beta(2, 2) cdf
            assert 0.0 < intersect.clt_probability(np.full(4, 0.5), 1.0, 2.0, 0.5) < 1.0
            assert "scipy.special" in sys.modules
        """)
        _run_fresh(script)

    def test_uniform_coverage_bounds_never_load_scipy_special(self, tmp_path):
        # Phi comes from math.erfc, so the uniform law's Edgeworth and Jensen
        # values need no scipy.special
        out = tmp_path / "c.csv"
        script = textwrap.dedent(f"""
            import sys
            from cubecover.cli import main
            from cubecover.intersect import clt_probability, edgeworth_probability
            argv = ["coverage", "--dim", "12", "--n", "3000", "--r-grid", "0.5:0.6:0.05",
                    "--targets", "500", "--bounds", "--seed", "1", "--out", {str(out)!r}]
            assert main(argv) == 0
            assert 0.0 < clt_probability([0.3] * 12, 1.0, 1.0, 1.0) < 1.0
            assert 0.0 < edgeworth_probability([0.3] * 12, 0.8, 1.0, 0.9, order=2) < 1.0
            assert "scipy.special" not in sys.modules
        """)
        _run_fresh(script)
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert len(rows) == 3 and all(0.0 < float(row[-2]) < 1.0 for row in rows)

    def test_kdtree_engine_calls_rebound_name(self, monkeypatch):
        calls = []
        real = geometry_module.cKDTree

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(geometry_module, "cKDTree", counting)
        rng = np.random.default_rng(17)
        min_squared_distances(rng.random((20, 4)), rng.random((64, 4)), engine="kdtree")
        assert calls == [1]

    def test_kdtree_engine_uses_only_query(self, monkeypatch):
        # a stand-in tree that forwards only ``query``, as a tracing wrapper may
        real = geometry_module.cKDTree

        class QueryOnly:
            __slots__ = ("_tree",)

            def __init__(self, *args, **kwargs):
                self._tree = real(*args, **kwargs)

            def query(self, *args, **kwargs):
                return self._tree.query(*args, **kwargs)

        rng = np.random.default_rng(18)
        targets, points = rng.random((400, 4)), rng.random((3000, 4))
        full = min_squared_distances(targets, points, engine="kdtree")
        settle = float(np.quantile(full, 0.8))
        settled = min_squared_distances(targets, points, engine="kdtree", settle=settle)
        monkeypatch.setattr(geometry_module, "cKDTree", QueryOnly)
        for s, expected in ((0.0, full), (settle, settled)):
            got = min_squared_distances(targets, points, engine="kdtree", settle=s, threads=2)
            assert np.array_equal(got, expected)


class TestSettleBound:
    """``settle`` ends a target's scan early without changing any d2 <= r2 >= settle."""

    @pytest.mark.parametrize("engine, d, target_chunk", [
        *(pytest.param("blas", d, c, id=f"{c}-{d}")
          for d in (2, 3, 11, 20, 50) for c in (1024, 7, 2, 1)),
        *(pytest.param("kdtree", d, 1024, id=f"kdtree-{d}") for d in (2, 3, 4, 10)),
    ])
    def test_unsettled_targets_keep_their_bits(self, monkeypatch, engine, d, target_chunk):
        rng = np.random.default_rng(40 + d)
        targets = rng.random((240, d))
        points = rng.random((2500, d))
        # small point tiles, so BLAS targets settle after a few of many tiles
        monkeypatch.setattr(geometry_module, "_TARGET_CHUNK", target_chunk)
        monkeypatch.setattr(geometry_module, "_POINT_CHUNK", 200)
        for threads in (1, 2):
            ref = min_squared_distances(targets, points, threads=threads, engine=engine)
            for q in (0.05, 0.3, 0.7, 0.95, 0.999):
                settle = float(np.quantile(ref, q))
                got = min_squared_distances(targets, points, threads=threads, engine=engine,
                                            settle=settle)
                settled = got <= settle
                assert np.array_equal(settled, ref <= settle)
                assert np.array_equal(got[~settled], ref[~settled])
                assert np.all(got >= ref)

    def test_settled_targets_skip_later_tiles(self, monkeypatch):
        # a point copied into every target sits in the first tile, so every
        # target settles there and keeps the first tile's minimum
        monkeypatch.setattr(geometry_module, "_POINT_CHUNK", 512)
        rng = np.random.default_rng(47)
        points = rng.random((4000, 20))
        targets = points[:300] + 1e-3
        first_tile = min_squared_distances(targets, points[:512], engine="blas")
        got = min_squared_distances(targets, points, engine="blas", settle=0.01)
        assert np.array_equal(got, first_tile)

    def test_kdtree_settles_on_approximate_neighbours(self):
        # with settle above every minimum, every target keeps the neighbour
        # of the approximate query, a design point but often not the nearest
        rng = np.random.default_rng(48)
        targets, points = rng.random((400, 4)), rng.random((3000, 4))
        ref = min_squared_distances(targets, points, engine="kdtree")
        settle = float(ref.max())
        got = min_squared_distances(targets, points, engine="kdtree", settle=settle)
        assert np.all((ref <= got) & (got <= settle))
        assert np.any(got > ref)
        sq = ((targets[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        assert np.all(np.isclose(sq, got[:, None], rtol=1e-12, atol=0.0).any(axis=1))

    @pytest.mark.parametrize("engine", ["blas", "kdtree"])
    @pytest.mark.parametrize("settle", [math.nan, -1.0, -math.inf])
    def test_bad_settle_raises(self, engine, settle):
        rng = np.random.default_rng(46)
        targets, points = rng.random((10, 3)), rng.random((100, 3))
        with pytest.raises(ValueError, match="settle"):
            min_squared_distances(targets, points, engine=engine, settle=settle)

    @pytest.mark.parametrize("d", [20, 50])
    def test_first_hit_does_not_depend_on_hit_block_mates(self, monkeypatch, d):
        # block A pairs each target with far-away targets that are never hit;
        # block B with copies of first-tile points, hit at once, so the target
        # is left alone for every later tile; radii sit within float32
        # rounding of its nearest distance, where the tile's bits decide
        monkeypatch.setattr(geometry_module, "_TARGET_CHUNK", 16)
        monkeypatch.setattr(geometry_module, "_POINT_CHUNK", 64)
        rng = np.random.default_rng(49 + d)
        points = rng.random((2000, d))
        far = 5.0 + rng.random((15, d))
        targets = rng.random((40, d))
        exact = ((targets[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        later = np.argmin(exact, axis=1) >= 64  # nearest point beyond the first tile
        for u, dist in list(zip(targets[later], exact[later]))[:12]:
            block_a = np.vstack([u, far])
            block_b = np.vstack([u, points[:15]])
            for scale in 1.0 + 2e-7 * np.arange(-25, 26):
                r = math.sqrt(dist.min() * scale)
                a = first_hit_index(block_a, points, r)
                b = first_hit_index(block_b, points, r)
                assert np.all(a[1:] == 2001) and np.all(b[1:] <= 15)
                assert a[0] == b[0]


class TestStages:
    """The BLAS engine reads the points one stage at a time; neither the stage
    schedule nor the order of the points changes a value, and its memory does
    not grow with the number of points."""

    def test_settle_zero_values_are_invariant(self, monkeypatch):
        # with one thread a stage is 8192 rows: n spans three stages and a
        # lone last point
        n = 3 * geometry_module._ROW_CHUNK + 1
        rng = np.random.default_rng(31)
        targets, points = rng.random((256, 12)), rng.random((n, 12))
        ref = min_squared_distances(targets, points, engine="blas")
        shuffled = points[rng.permutation(n)]
        assert np.array_equal(min_squared_distances(targets, shuffled, engine="blas"), ref)
        for point_chunk in (512, 2048, n):
            monkeypatch.setattr(geometry_module, "_POINT_CHUNK", point_chunk)
            for threads in (1, 3):
                got = min_squared_distances(targets, points, engine="blas", threads=threads)
                assert np.array_equal(got, ref)

    def test_first_hits_are_invariant(self, monkeypatch):
        # three full stages on one thread, then a lone point; the last target
        # lies 0.45 from that point, away from the centre, and no other point
        # is within 0.5 of it
        d, r = 12, 0.5
        n = 3 * geometry_module._ROW_CHUNK + 1
        rows = IidRows(SamplingScheme.uniform(d), SeededStream(34), 0, n)
        x = rows.rows(n - 1, n)[0]
        away = x + 0.45 * (x - 0.5) / np.linalg.norm(x - 0.5)
        targets = np.vstack([np.random.default_rng(35).random((255, d)), away])
        ref = first_hit_index(targets, rows, r)
        assert ref[-1] == n
        assert np.unique((ref[ref <= n] - 1) // geometry_module._ROW_CHUNK).size == 4
        assert np.count_nonzero(ref == n + 1) > 0
        for point_chunk in (512, 2048, 4096, n):
            monkeypatch.setattr(geometry_module, "_POINT_CHUNK", point_chunk)
            for threads in (1, 3):
                got = first_hit_index(targets, rows, r, threads=threads)
                assert np.array_equal(got, ref)

    def test_peak_memory_does_not_grow_with_n(self):
        d = 50
        targets = np.random.default_rng(32).random((64, d))

        def peak(n: int) -> int:
            rows = IidRows(SamplingScheme.uniform(d), SeededStream(33), 0, n)
            tracemalloc.start()
            try:
                min_squared_distances(targets, rows, engine="blas")
                # a radius that no point reaches, so every stage is read
                assert np.all(first_hit_index(targets, rows, 0.5) == n + 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a design held whole as float32 rows would add 4 (d + 1) 180000 bytes, 35 MB
        assert peak(200_000) - peak(20_000) < 2**20
        # one thread holds two 8192-row stages, one tile of its 64 targets and
        # one float64 piece of about 512 KB; an 8192-row float64 piece, 3.3 MB,
        # does not fit the 2 MB left for it
        stages = 2 * (geometry_module._ROW_CHUNK + 1) * 4 * (d + 1)
        tile = 64 * geometry_module._POINT_CHUNK * 4
        assert peak(200_000) < stages + tile + 2**21

    @staticmethod
    def _panel_peak_bound(d: int, n: int, seed: int) -> tuple[int, int]:
        # the traced peak of both entry points for a full block of 1024
        # targets against n rows that no target is within 0.5 of, and its
        # bound: two stages, one 256-point panel of the block, one float64
        # piece of a row source and 1 MB for the rest
        targets = np.random.default_rng(seed).random((1024, d))
        rows = IidRows(SamplingScheme.uniform(d), SeededStream(seed + 1), 0, n)
        tracemalloc.start()
        try:
            min_squared_distances(targets, rows, engine="blas")
            assert np.all(first_hit_index(targets, rows, 0.5) == n + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stages = 2 * (geometry_module._ROW_CHUNK + 1) * 4 * (d + 1)
        panel = geometry_module._PANEL_POINTS * geometry_module._TARGET_CHUNK * 4
        piece = 2**19
        return peak, stages + panel + piece + 2**20

    def test_peak_memory_holds_one_panel_at_low_k(self):
        # at d = 20 a thread holds one 1 MB panel of 256 points by 1024
        # targets, not a 2 MB panel of 256 targets by 2048 points
        peak, bound = self._panel_peak_bound(20, 40_000, 37)
        assert peak < bound

    def test_peak_memory_holds_one_panel_at_d50(self):
        # the same 1 MB panel at d = 50, where a whole block's tile of 1024
        # targets by 2048 points would take 8 MB
        peak, bound = self._panel_peak_bound(50, 40_000, 39)
        assert peak < bound

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0])
    def test_pieces_fill_the_whole_array_rows(self, monkeypatch, alpha):
        # 5000 rows are three whole pieces of 1310 rows at d = 50 and a short
        # one, from a start offset like the growing designs' 1024-row blocks
        d, start, n = 50, 1024, 5000
        rows = IidRows(SamplingScheme.beta(d, alpha, 0.8), SeededStream(36), start, start + n)
        assert [x.shape[0] for x in rows.pieces(0, n)] == [1310, 1310, 1310, 1070]

        def filled(points) -> np.ndarray:
            pieces, shape, _ = geometry_module._as_points(points)
            ex = geometry_module._CentredExpansion(pieces, shape, 1)
            buf = np.empty((n + 1, d + 1), dtype=np.float32)
            ex._fill(buf, 0, 0, n)
            return buf[:n]

        ref = filled(rows.rows(0, n))
        seeks = []
        real = SeededStream.generator_at
        monkeypatch.setattr(SeededStream, "generator_at",
                            lambda stream, offset: seeks.append(offset) or real(stream, offset))
        assert np.array_equal(filled(rows), ref)
        assert seeks == [start * d]  # one generator for the whole fill


class TestRowSource:
    """A row source gives the kernels the bytes of the materialized design."""

    @pytest.mark.parametrize("engine", ["blas", "kdtree"])
    @pytest.mark.parametrize("d", [3, 12, 50])
    @pytest.mark.parametrize("n", [9000, 20000])
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_min_squared_distances_matches_the_array(self, engine, d, n, alpha):
        scheme, stream = SamplingScheme.beta(d, alpha, 0.8), SeededStream(21, d)
        targets = np.random.default_rng(d).random((150, d))
        rows = IidRows(scheme, stream, 0, n)
        assert rows.shape == (n, d)
        # the KD-tree gathers the source serially, whatever the thread count
        ref = min_squared_distances(targets, rows.rows(0, n), engine=engine)
        for threads in (1, 3):
            got = min_squared_distances(targets, rows, engine=engine, threads=threads)
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_first_hit_from_an_offset_matches_the_array(self, threads):
        d, start, stop, r = 20, 1024, 1024 + 9000, 1.0
        scheme, stream = SamplingScheme.uniform(d), SeededStream(22)
        targets = np.random.default_rng(3).random((1500, d))
        rows = IidRows(scheme, stream, start, stop)
        ref = first_hit_index(targets, rows.rows(0, stop - start), r)
        got = first_hit_index(targets, rows, r, threads=threads)
        assert 0 < np.count_nonzero(ref <= stop - start) < targets.shape[0]
        assert np.array_equal(got, ref)

    def test_bad_start_raises(self):
        scheme, stream = SamplingScheme.uniform(5), SeededStream(23)
        targets = np.random.default_rng(4).random((10, 5))
        rows = IidRows(scheme, stream, 1025, 2000)
        with pytest.raises(ValueError, match="multiple of 4"):
            first_hit_index(targets, rows, 0.5)
        for engine in ("blas", "kdtree"):
            with pytest.raises(ValueError, match="multiple of 4"):
                min_squared_distances(targets, rows, engine=engine)

    def test_kdtree_keeps_an_array_input_uncopied(self, monkeypatch):
        built = []
        real = geometry_module.cKDTree

        def recording(data, *args, **kwargs):
            built.append(data)
            return real(data, *args, **kwargs)

        monkeypatch.setattr(geometry_module, "cKDTree", recording)
        points = np.random.default_rng(5).random((9000, 4))
        min_squared_distances(points[:10], points, engine="kdtree", threads=2)
        assert built[0] is points

    @pytest.mark.parametrize("scheme", [SamplingScheme.sobol(5), SamplingScheme.vertex(5)])
    def test_non_iid_scheme_raises(self, scheme):
        with pytest.raises(ValueError, match="i.i.d. scheme"):
            IidRows(scheme, SeededStream(24), 0, 16)


def _run_fresh(script: str) -> None:
    """Run ``script`` in a new interpreter that imports this source tree."""
    src = str(Path(geometry_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestBlockShapeBits:
    """A target's float32 bits do not depend on the shape of its block, of its
    point panels or of the last point chunk: a lone last target row
    (m = 1025), a lone last point (n = 2049) and a short last panel get the
    values they get inside a full block."""

    @staticmethod
    def _sweep(points, t, done):
        # (rows, tile) of every point offset of targets t, as one block, with
        # the tile's point panels stacked in point order and turned to one
        # row per target; done(rows) is the visit's mask of finished rows
        read, shape, _ = geometry_module._as_points(points)
        ex = geometry_module._CentredExpansion(read, shape, 1)
        got = []

        def visit(j, rows, panels):
            panels = [(a, panel.copy()) for a, panel in panels]
            starts = np.cumsum([0] + [panel.shape[0] for _, panel in panels])[:-1]
            assert [a for a, _ in panels] == list(starts)
            got.append((rows.copy(), np.vstack([panel for _, panel in panels]).T))
            return done(rows)

        ex.sweep(t, lambda tnorm: visit)
        return got

    @classmethod
    def _tiles(cls, points, t):
        # every tile of the (never finished) rows of targets t, as one block
        return [tile for _, tile in cls._sweep(points, t, lambda rows: np.zeros(rows.size, bool))]

    @pytest.mark.parametrize("d", [3, 12, 50])
    def test_lone_row_and_lone_point_tiles(self, d):
        rng = np.random.default_rng(60 + d)
        targets, points = rng.random((1024, d)), rng.random((2049, d))
        full = self._tiles(points, targets)
        # a block of one row, against full and lone-point chunks alike
        for i in (0, 517, 1023):
            lone = self._tiles(points, targets[i:i + 1])
            assert all(np.array_equal(a[0], b[i]) for a, b in zip(lone, full))
        # the lone last point, against the same point first in a full chunk
        moved = self._tiles(np.vstack([points[2048:], points[:2047]]), targets)
        assert full[1].shape == (1024, 1)
        assert np.array_equal(full[1][:, 0], moved[0][:, 0])

    @pytest.mark.parametrize("d", [31, 50])
    def test_lone_row_against_a_short_last_chunk(self, d):
        # a last chunk of 16 points: with at least 32 columns, a lone row is
        # padded past 1200 outputs, out of OpenBLAS's small-matrix kernel
        rng = np.random.default_rng(65 + d)
        targets, points = rng.random((1024, d)), rng.random((2048 + 16, d))
        full = self._tiles(points, targets)
        assert full[1].shape == (1024, 16)
        for i in (0, 517, 1023):
            lone = self._tiles(points, targets[i:i + 1])
            assert all(np.array_equal(a[0], b[i]) for a, b in zip(lone, full))

    @pytest.mark.parametrize("d, rows", [(12, 16), (12, 32), (50, 8)])
    def test_blocks_of_8_16_32_rows(self, monkeypatch, d, rows):
        # a last block of 8, 16 or 32 targets, whose product with a full
        # 2048-point chunk has at most 1e6 multiply-adds, against the same
        # targets in one block of 1024 + rows
        rng = np.random.default_rng(75 + rows)
        targets, points = rng.random((1024 + rows, d)), rng.random((4096, d))
        got = min_squared_distances(targets, points, engine="blas")
        monkeypatch.setattr(geometry_module, "_TARGET_CHUNK", 2048)
        whole = min_squared_distances(targets, points, engine="blas")
        assert np.array_equal(got, whole)

    @pytest.mark.parametrize("d, rows", [(12, 16), (12, 32), (50, 8)])
    def test_block_compacted_to_8_16_32_rows(self, d, rows):
        # a full block whose live rows drop to 8, 16 or 32 after its first tile
        rng = np.random.default_rng(85 + rows)
        targets, points = rng.random((1024, d)), rng.random((4096, d))
        full = self._tiles(points, targets)
        kept = np.arange(3, 1024, 1024 // rows)[:rows]
        got = self._sweep(points, targets, lambda live: ~np.isin(live, kept))
        live, tile = got[1]
        assert np.array_equal(live, kept)
        assert np.array_equal(tile, full[1][kept])

    @pytest.mark.parametrize("d", [12, 20])
    @pytest.mark.parametrize("left", [257, 264, 272, 288])
    def test_panel_rows_do_not_change_results(self, monkeypatch, d, left):
        # a second point chunk of `left` points: with 64- or 256-point panels
        # its last panel has 1, 8, 16 or 32 point rows.  All but 40 targets
        # sit on points of the first chunk, so 40 are live at the second;
        # four of those sit on points of its last panel, and no other target
        # is within r
        rng = np.random.default_rng(100 + left)
        n = 2048 + left
        points, targets = rng.random((n, d)), rng.random((1024, d))
        order = rng.permutation(1024)
        targets[order[40:]] = points[rng.choice(2048, 1024 - 40)]
        targets[order[:4]] = points[2048 + 256 + rng.choice(left - 256, 4)]
        r = 0.05
        settle = float(np.quantile(min_squared_distances(targets, points, engine="blas"), 0.8))

        def results(panel_points):
            monkeypatch.setattr(geometry_module, "_PANEL_POINTS", panel_points)
            # and the tiles themselves, with the block compacted after its first chunk
            tiles = self._sweep(points, targets, lambda rows: np.isin(rows, order[40:]))
            return [min_squared_distances(targets, points, engine="blas"),
                    min_squared_distances(targets, points, engine="blas", settle=settle),
                    first_hit_index(targets, points, r),
                    *(array for pair in tiles for array in pair)]

        ref = results(2048)  # one panel per tile
        hits = ref[2]
        assert np.count_nonzero(hits <= 2048) == 1024 - 40
        assert np.count_nonzero(hits <= n) == 1024 - 40 + 4
        assert ref[6].shape == (40, left)  # live rows at the second chunk
        for panel_points in (64, 256):
            got = results(panel_points)
            assert len(got) == len(ref)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    @pytest.mark.parametrize("last", [1, 8, 16, 32])
    def test_few_live_rows_and_a_short_last_panel(self, monkeypatch, last):
        # at K = 51, block B holds live targets beside copies of first-chunk
        # points, so it falls to 1-6 live rows at the second chunk, whose
        # last panel has `last` points; block A holds the same live targets
        # beside far targets, so no row of it ever drops out.  Each live
        # target lies 0.3 from a point of that last panel, its nearest point
        monkeypatch.setattr(geometry_module, "_POINT_CHUNK", 512)
        d, n = 50, 512 + 256 + last
        rng = np.random.default_rng(110 + last)
        points = rng.random((n, d))
        step = rng.standard_normal((6, d))
        step *= 0.3 / np.linalg.norm(step, axis=1)[:, None]
        live = points[n - 1 - rng.choice(last, 6)] + step
        block_a = np.vstack([live, 5.0 + rng.random((1018, d))])
        block_b = np.vstack([live, points[rng.choice(512, 1018)]])
        full = self._tiles(points, block_a)
        full_d2 = min_squared_distances(block_a, points, engine="blas")
        radii = 0.3 * (1.0 + 1e-6 * np.arange(-10, 11))
        full_hits = [first_hit_index(block_a, points, r)[:6] for r in radii]
        decided = np.array(full_hits) == n + 1
        assert decided.any() and not decided.all()  # the radii straddle float32 decisions
        for k in range(1, 7):
            b = np.vstack([live[:k], block_b[6:]])
            got = self._sweep(points, b, lambda rows: rows >= k)
            assert np.array_equal(got[1][0], np.arange(k))
            assert np.array_equal(got[1][1], full[1][:k])
            d2 = min_squared_distances(b, points, engine="blas", settle=0.01)
            assert np.all(d2[k:] <= 0.01)
            assert np.array_equal(d2[:k], full_d2[:k])
            for r, hits in zip(radii, full_hits):
                assert np.array_equal(first_hit_index(b, points, r)[:k], hits[:k])

    @pytest.mark.parametrize("rows, w, k, padded", [
        (1, 2, 2, 2),          # K < 32: only gemv is avoided
        (16, 256, 13, 16),     # 8, 16 or 32 target rows are M, not padded
        (8, 256, 51, 8),       # 2048 outputs: blocked
        (16, 2048, 51, 16),    # M·N·K > 1e6: already blocked
        (1, 16, 51, 76),       # K >= 32: past 1200 outputs
        (3, 256, 51, 5),
        (6, 200, 51, 7),       # exactly 1200 outputs is still small
        (1, 2, 51, 601),       # a lone point and the row after it
        (1, 2, 1001, 500),     # K >= 32: past 1e6 multiply-adds before 1200 outputs
        (1024, 2048, 11, 1024),
    ])
    def test_blocked_rows(self, rows, w, k, padded):
        assert geometry_module._blocked_rows(rows, w, k) == padded

    @pytest.mark.parametrize("w, panels", [
        (2048, [(a, a + 256, 256) for a in range(0, 2048, 256)]),
        (257, [(0, 256, 256), (256, 257, 2)]),  # one point: no gemv
        (264, [(0, 256, 256), (256, 264, 9)]),  # 8, 16 or 32: no small kernel
        (16, [(0, 16, 17)]),
        (288, [(0, 256, 256), (256, 288, 33)]),
        (1, [(0, 1, 2)]),
        (33, [(0, 33, 33)]),
    ])
    def test_point_panels(self, w, panels):
        assert geometry_module._point_panels(w) == panels

    @pytest.mark.parametrize("d", [12, 50])
    def test_min_squared_distances_lone_row(self, d):
        rng = np.random.default_rng(70 + d)
        targets, points = rng.random((1024, d)), rng.random((3000, d))
        in_full = min_squared_distances(targets, points, engine="blas")
        for i in range(0, 1024, 73):
            # target i again, alone in the last block of 1025 targets
            lone = min_squared_distances(np.vstack([targets, targets[i]]), points, engine="blas")
            assert lone[1024] == in_full[i]

    @pytest.mark.parametrize("d", [12, 50])
    def test_min_squared_distances_lone_point(self, d):
        rng = np.random.default_rng(80 + d)
        points = rng.random((2049, d))
        # targets whose nearest point is the lone last one
        targets = points[2048] + 1e-2 * (rng.random((1024, d)) - 0.5)
        got = min_squared_distances(targets, points, engine="blas")
        in_full = min_squared_distances(targets, np.vstack([points[2048:], points[:2047]]),
                                        engine="blas")
        assert np.array_equal(got, in_full)

    @pytest.mark.parametrize("d", [12, 50])
    def test_first_hit_lone_row_and_lone_point(self, d):
        # targets on a sphere around one point, within float32 rounding of the
        # radius, where the tile's bits decide each hit; the other points are
        # far away and never hit
        rng = np.random.default_rng(90 + d)
        centre = rng.random(d)
        far = 5.0 + rng.random((2048, d))
        r = 0.3
        step = rng.standard_normal((1024, d))
        step *= r * (1.0 + 1e-5 * (rng.random((1024, 1)) - 0.5)) / np.linalg.norm(step, axis=1)[:, None]
        targets = centre + step
        # lone last point (index 2049) against the same point ending a full chunk
        lone_pt = first_hit_index(targets, np.vstack([far, centre]), r)
        full_pt = first_hit_index(targets, np.vstack([far[1:], centre]), r)
        assert np.array_equal(lone_pt == 2049, full_pt == 2048)
        assert 0 < np.count_nonzero(lone_pt == 2049) < 1024
        # lone last target row against the same target inside a full block
        in_full = first_hit_index(targets, np.vstack([centre, far]), r)
        for i in range(0, 1024, 73):
            lone = first_hit_index(np.vstack([targets, targets[i]]), np.vstack([centre, far]), r)
            assert lone[1024] == in_full[i]
