import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import beta as beta_fn

import cubecover.sampling as sampling_module
from cubecover.sampling import (
    IidRows,
    SamplingScheme,
    SchemeKind,
    TargetPrior,
    beta_quantile,
    draw_delta_cube,
    hamming_threshold,
    min_hamming_vertex_design,
    sample_design,
    sample_targets,
)
from cubecover.streams import SeededStream


def delta_cube_density(t, alpha, delta):
    """p_{alpha,delta} on ((1-delta)/2, (1+delta)/2)."""
    return (2.0 * (2.0 * delta) ** (1 - 2 * alpha) / beta_fn(alpha, alpha)
            * (delta**2 - (2 * t - 1) ** 2) ** (alpha - 1))


class TestUniformScheme:
    def test_coordinate_mean(self):
        des = sample_design(SamplingScheme.uniform(1, 1.0), 1_000_000, SeededStream(1))
        assert des.points.mean() == pytest.approx(0.5, abs=0.002)

    def test_support_is_exact(self):
        des = sample_design(SamplingScheme.uniform(4, 0.3), 20_000, SeededStream(2))
        assert des.points.min() >= 0.35
        assert des.points.max() <= 0.65

    def test_determinism_and_stream_separation(self):
        scheme = SamplingScheme.uniform(3, 0.7)
        a = sample_design(scheme, 100, SeededStream(5, 1)).points
        b = sample_design(scheme, 100, SeededStream(5, 1)).points
        c = sample_design(scheme, 100, SeededStream(5, 2)).points
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestChunkedDraw:
    @pytest.mark.parametrize("d", [1, 3, 50])
    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.5])
    def test_equals_the_serial_draw(self, d, alpha):
        n = 8192 + 77
        stream = SeededStream(7, d)
        scheme = SamplingScheme.beta(d, alpha, 0.8)
        serial = draw_delta_cube(stream.generator(), n, d, 0.8, alpha)
        assert np.array_equal(sample_design(scheme, n, stream).points, serial)

    def test_rows_from_an_offset(self):
        scheme, stream = SamplingScheme.uniform(5, 0.6), SeededStream(8)
        whole = draw_delta_cube(stream.generator(), 12_000, 5, 0.6)
        rows = IidRows(scheme, stream, 1024, 12_000)
        assert np.array_equal(rows.rows(0, 10_976), whole[1024:])
        assert np.array_equal(rows.rows(8192, 10_976), whole[9216:])
        with pytest.raises(ValueError, match="multiple of 4"):
            IidRows(scheme, stream, 1025, 2000).rows(0, 975)


class TestBetaScheme:
    def test_arcsine_variance(self):
        # var of Beta(1/2,1/2) on [0,1] is 1/8; cross-checked by quadrature
        var_quad = quad(lambda t: (t - 0.5) ** 2 * delta_cube_density(t, 0.5, 1.0), 0, 1)[0]
        assert var_quad == pytest.approx(1.0 / 8.0, rel=1e-8)
        des = sample_design(SamplingScheme.beta(1, 0.5, 1.0), 1_000_000, SeededStream(3))
        assert des.points.var() == pytest.approx(1.0 / 8.0, abs=0.001)

    def test_alpha_one_is_bitwise_uniform(self):
        b = sample_design(SamplingScheme.beta(2, 1.0, 0.6), 5000, SeededStream(4)).points
        u = sample_design(SamplingScheme.uniform(2, 0.6), 5000, SeededStream(4)).points
        assert np.array_equal(b, u)

    def test_alpha_one_is_the_uniform_scheme(self):
        assert SamplingScheme.beta(3, 1.0, 0.6) == SamplingScheme.uniform(3, 0.6)
        assert SamplingScheme.beta(3, 0.5, 0.6) != SamplingScheme.uniform(3, 0.6)

    def test_alpha_one_distribution_matches_uniform(self):
        b = sample_design(SamplingScheme.beta(1, 1.0, 1.0), 100_000, SeededStream(5)).points.ravel()
        u = sample_design(SamplingScheme.uniform(1, 1.0), 100_000, SeededStream(6)).points.ravel()
        assert stats.ks_2samp(b, u).pvalue > 0.001

    def test_general_alpha_matches_density(self):
        # cdf at a checkpoint from quadrature of p_{alpha,delta}
        alpha, delta, t0 = 2.5, 0.8, 0.45
        lo = (1 - delta) / 2
        cdf = quad(lambda t: delta_cube_density(t, alpha, delta), lo, t0)[0]
        des = sample_design(SamplingScheme.beta(1, alpha, delta), 400_000, SeededStream(7))
        assert (des.points < t0).mean() == pytest.approx(cdf, abs=0.003)

    def test_support_constraint(self):
        des = sample_design(SamplingScheme.beta(2, 0.5, 0.4), 50_000, SeededStream(8))
        assert des.points.min() >= 0.3
        assert des.points.max() <= 0.7

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            SamplingScheme.beta(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            SamplingScheme.beta(2, -1.0, 1.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("delta", [0.3, 1.0])
    def test_draw_is_bitwise_the_affine_map(self, delta, alpha):
        got = draw_delta_cube(np.random.default_rng(9), 3000, 7, delta, alpha)
        u = beta_quantile(alpha, np.random.default_rng(9).random((3000, 7)))
        assert np.array_equal(got, 0.5 + delta * (u - 0.5))


class TestTargetPriors:
    def test_uniform_support(self):
        x = sample_targets(TargetPrior.uniform(5), 1, SeededStream(9))
        assert x.shape == (1, 5)
        assert np.all((0 <= x) & (x <= 1))

    def test_arcsine_cdf_checkpoint(self):
        # P(x < 0.1) = (2/pi) asin(sqrt(0.1)) for the arcsine law
        expected = 2.0 / math.pi * math.asin(math.sqrt(0.1))
        xs = sample_targets(TargetPrior.product_beta(1, 0.5), 1_000_000, SeededStream(10))
        assert (xs < 0.1).mean() == pytest.approx(expected, abs=0.002)
        assert expected == pytest.approx(0.2048, abs=2e-4)

    def test_beta_one_is_the_uniform_prior(self):
        assert TargetPrior.product_beta(4, 1.0) == TargetPrior.uniform(4)
        a = sample_targets(TargetPrior.product_beta(4, 1.0), 500, SeededStream(11))
        assert np.array_equal(a, sample_targets(TargetPrior.uniform(4), 500, SeededStream(11)))

    def test_beta_one_is_uniform(self):
        a = sample_targets(TargetPrior.product_beta(1, 1.0), 100_000, SeededStream(11)).ravel()
        b = sample_targets(TargetPrior.uniform(1), 100_000, SeededStream(12)).ravel()
        assert stats.ks_2samp(a, b).pvalue > 0.001


class TestVertexDesign:
    def test_center_first_then_distinct_vertices(self):
        des = sample_design(SamplingScheme.vertex(20), 5, SeededStream(13))
        assert np.all(des.points[0] == 0.5)
        tail = des.points[1:]
        assert set(np.unique(tail)) == {0.25, 0.75}
        assert len({tuple(row) for row in tail}) == 4

    def test_without_replacement_exhausts_vertices(self):
        des = sample_design(SamplingScheme.vertex(3), 9, SeededStream(14))
        tail = {tuple(row) for row in des.points[1:]}
        assert len(tail) == 8  # all vertices of the 3-cube exactly once

    def test_infeasible_count(self):
        with pytest.raises(ValueError, match="infeasible"):
            sample_design(SamplingScheme.vertex(3), 10, SeededStream(15))

    @pytest.mark.parametrize("kind", [SchemeKind.SOBOL_DELTA_CUBE, SchemeKind.VERTEX_DESIGN])
    def test_alpha_only_for_iid(self, kind):
        with pytest.raises(ValueError, match="alpha applies only"):
            SamplingScheme(kind, 3, 0.5, alpha=0.5)

    def test_vertex_scheme_pins_delta(self):
        with pytest.raises(ValueError):
            SamplingScheme(kind=SchemeKind.VERTEX_DESIGN, dimension=3, delta=1.0)


class TestHammingDesign:
    def test_threshold_examples(self):
        assert hamming_threshold(4, 2) == 5
        assert hamming_threshold(20, 2**10) == 11

    def test_nmax_two_gives_center_plus_one_vertex(self):
        des = min_hamming_vertex_design(4, 2, SeededStream(16))
        assert des.n == 2
        assert not des.shortfall
        assert np.all(des.points[0] == 0.5)

    def test_pairwise_distances_respect_threshold(self):
        d, n_max = 20, 2**10
        des = min_hamming_vertex_design(d, n_max, SeededStream(17))
        thr = hamming_threshold(d, n_max)
        masks = [(row > 0.5).astype(int) for row in des.points[1:]]
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                assert int(np.sum(masks[i] != masks[j])) >= thr

    def test_same_seed_gives_the_same_design(self):
        a = min_hamming_vertex_design(10, 64, SeededStream(2))
        b = min_hamming_vertex_design(10, 64, SeededStream(2))
        c = min_hamming_vertex_design(10, 64, SeededStream(3))
        assert np.array_equal(a.points, b.points) and a.shortfall == b.shortfall
        assert not np.array_equal(a.points, c.points)

    def test_shortfall_flag_on_tiny_budget(self, monkeypatch):
        monkeypatch.setattr(sampling_module, "_hamming_max_draws", lambda n_max: 5)
        des = min_hamming_vertex_design(16, 2**10, SeededStream(18))
        assert des.shortfall
        assert des.n <= 6

    def test_nmax_validation(self):
        with pytest.raises(ValueError):
            min_hamming_vertex_design(4, 1, SeededStream(19))
        with pytest.raises(ValueError):
            min_hamming_vertex_design(3, 9, SeededStream(20))


class TestSobolScheme:
    def test_rescaled_into_delta_cube(self):
        des = sample_design(SamplingScheme.sobol(3, 0.5), 16, SeededStream(21))
        assert des.points.min() >= 0.25
        assert des.points.max() <= 0.75
        assert np.all(des.points[0] == 0.25)  # origin maps to the cube corner

    def test_stream_has_no_effect(self):
        a = sample_design(SamplingScheme.sobol(4), 64, SeededStream(1)).points
        b = sample_design(SamplingScheme.sobol(4), 64, SeededStream(2)).points
        assert np.array_equal(a, b)
