import math
import tracemalloc

import numpy as np
import pytest

import cubecover.sampling as sampling_module
from cubecover.coverage import (
    CoverageQuery,
    _inner_mc_probabilities,
    _paired_distance_sample,
    _product_form_estimate,
    coverage_design_averaged,
    coverage_design_conditional,
    coverage_product_form,
    jensen_bound_center,
    jensen_bound_refined,
    nearest_distance_sample,
    product_form_approximation,
)
from cubecover.estimates import CoverageEstimate
from cubecover.geometry import min_squared_distances, unit_ball_volume
from cubecover.sampling import Design, SamplingScheme, TargetPrior, sample_design, sample_targets
from cubecover.streams import SeededStream


def joint_se(*ests):
    return math.sqrt(sum(e.std_error**2 for e in ests))


def uniform_query(d, r, n, delta=1.0):
    return CoverageQuery(d, r, n, SamplingScheme.uniform(d, delta), TargetPrior.uniform(d))


class TestDesignConditional:
    def test_interval_coverage(self):
        q = uniform_query(1, 0.25, 1)
        design = Design(np.array([[0.5]]))
        est = coverage_design_conditional(q, design, 100_000, SeededStream(1))
        assert abs(est.value - 0.5) <= 3 * est.std_error

    def test_cube_diameter_covers_everything(self):
        d = 6
        q = uniform_query(d, math.sqrt(d), 3)
        design = sample_design(q.scheme, 3, SeededStream(2))
        est = coverage_design_conditional(q, design, 20_000, SeededStream(3))
        assert est.value == 1.0

    def test_supports_sobol_designs(self):
        q = CoverageQuery(5, 0.4, 64, SamplingScheme.sobol(5), TargetPrior.uniform(5))
        design = sample_design(q.scheme, 64, SeededStream(4))
        est = coverage_design_conditional(q, design, 20_000, SeededStream(5))
        assert 0.0 < est.value < 1.0

    def test_sobol_at_asymptotic_radius_falls_short_like_uniform(self):
        # at d=10 the asymptotic 90% radius delivers nowhere near 90%, and
        # Sobol placement does not rescue it: both estimates land together
        from cubecover.solvers import asymptotic_radius

        d, n = 10, 1024
        r = asymptotic_radius(d, n, 0.1)
        qS = CoverageQuery(d, r, n, SamplingScheme.sobol(d), TargetPrior.uniform(d))
        f_sobol = coverage_design_conditional(qS, sample_design(qS.scheme, n, SeededStream(31)),
                                              30_000, SeededStream(32))
        qU = CoverageQuery(d, r, n, SamplingScheme.uniform(d), TargetPrior.uniform(d))
        f_unif = coverage_design_averaged(qU, 4, 30_000, SeededStream(33))
        assert f_sobol.value < 0.75
        assert abs(f_sobol.value - f_unif.value) < 0.05

    def test_dimension_mismatch(self):
        q = uniform_query(3, 0.2, 4)
        with pytest.raises(ValueError):
            coverage_design_conditional(q, Design(np.zeros((4, 2))), 100, SeededStream(6))


class TestDesignAveraged:
    def test_single_point_interval_expectation(self):
        # E|[x-1/4, x+1/4] \cap [0,1]| = 7/16 for x uniform
        q = uniform_query(1, 0.25, 1)
        est = coverage_design_averaged(q, 400, 250, SeededStream(7))
        assert abs(est.value - 7.0 / 16.0) <= 3 * est.std_error
        assert est.method == "design_averaged"

    def test_zero_radius(self):
        q = uniform_query(4, 0.0, 10)
        est = coverage_design_averaged(q, 2, 5000, SeededStream(8))
        assert est.value == 0.0

    def test_rejects_sobol(self):
        q = CoverageQuery(3, 0.3, 16, SamplingScheme.sobol(3), TargetPrior.uniform(3))
        with pytest.raises(ValueError, match="Sobol"):
            coverage_design_averaged(q, 2, 100, SeededStream(9))

    def test_conditional_replicates_agree_with_averaged(self):
        q = uniform_query(3, 0.35, 20)
        vals = []
        for k in range(120):
            design = sample_design(q.scheme, 20, SeededStream(10).child(2 * k))
            vals.append(coverage_design_conditional(q, design, 300, SeededStream(10).child(2 * k + 1)).value)
        manual = float(np.mean(vals))
        se_manual = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        est = coverage_design_averaged(q, 120, 300, SeededStream(11))
        assert abs(manual - est.value) <= 3 * math.hypot(se_manual, est.std_error)


class TestProductForm:
    def test_single_point_reduces_to_mean_probability(self):
        q = uniform_query(2, 0.3, 1)
        pf = coverage_product_form(q, 30_000, 1, SeededStream(12))
        da = coverage_design_averaged(q, 300, 100, SeededStream(13))
        assert abs(pf.value - da.value) <= 3 * joint_se(pf, da)

    def test_saturated_region(self):
        d = 3
        q = uniform_query(d, math.sqrt(d) + 0.1, 5)
        pf = coverage_product_form(q, 2000, 50, SeededStream(14))
        assert pf.value == 1.0

    def test_inner_zero_rejected(self):
        with pytest.raises(ValueError):
            coverage_product_form(uniform_query(2, 0.3, 5), 100, 0, SeededStream(15))

    def test_edgeworth_order_outside_range_rejected(self):
        with pytest.raises(ValueError, match="orders are 0..2"):
            coverage_product_form(uniform_query(3, 0.4, 10), 50, 1, SeededStream(15),
                                  method="edgeworth", order=-1)

    def test_routes_agree_at_small_n(self):
        # (1-p)^n amplifies inner-probability error by n(1-p)^{n-1}, so the
        # analytic and inner-MC routes are comparable only for moderate n
        q = uniform_query(8, 0.9, 5)
        an = coverage_product_form(q, 30_000, 1, SeededStream(16), method="edgeworth")
        mc = coverage_product_form(q, 30_000, 2000, SeededStream(17), method="mc")
        da = coverage_design_averaged(q, 200, 300, SeededStream(30))
        assert abs(an.value - da.value) <= 0.01 + 3 * joint_se(an, da)
        assert abs(mc.value - da.value) <= 0.01 + 3 * joint_se(mc, da)

    def test_bias_flag_raised_for_noisy_inner(self):
        q = uniform_query(5, 0.45, 5000)
        pf = coverage_product_form(q, 500, 50, SeededStream(18), method="mc")
        assert pf.bias_flagged

    def test_inner_mc_memory_set_by_budget(self):
        # 128 targets x 2000 inner draws x 50 coordinates make a 102 MB
        # float64 block; drawn in sub-batches, the peak stays near the budget
        d, inner = 50, 2000
        targets = np.random.default_rng(31).random((128, d))
        tracemalloc.start()
        try:
            _inner_mc_probabilities(targets, 1.0, 1.0, 2.0, inner, SeededStream(32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * sampling_module._MC_BLOCK_BYTES

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0])
    def test_inner_mc_sub_batches_do_not_change_probabilities(self, monkeypatch, alpha):
        inner, d = 500, 6
        targets = np.random.default_rng(33).random((300, d))
        args = (targets, 0.8, alpha, 0.7, inner, SeededStream(34))
        monkeypatch.setattr(sampling_module, "_MC_BLOCK_BYTES", 1 << 40)  # one draw per chunk
        whole = _inner_mc_probabilities(*args)
        monkeypatch.setattr(sampling_module, "_MC_BLOCK_BYTES", 7 * inner * d * 8)  # 7 targets
        assert np.array_equal(_inner_mc_probabilities(*args), whole)


class TestJensenBounds:
    def test_center_exact_inside_ball_regime(self):
        # r <= 1/2: inner probability is exactly r^d V_d
        d, n, r = 10, 1000, 0.5
        p = r**d * unit_ball_volume(d)
        expected = 1.0 - (1.0 - p) ** n
        got = jensen_bound_center(uniform_query(d, r, n))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.917, abs=2e-3)

    def test_refined_below_center_on_grid(self):
        for d, n, radii in ((10, 1000, (0.55, 0.6, 0.7, 0.8, 0.9)),
                            (50, 10_000, (1.8, 1.9, 2.0, 2.1, 2.2, 2.3))):
            for r in radii:
                q = uniform_query(d, r, n)
                assert jensen_bound_refined(q) <= jensen_bound_center(q) + 1e-12

    def test_zero_radius(self):
        q = uniform_query(5, 0.0, 100)
        assert jensen_bound_refined(q) == 0.0

    def test_large_n_saturates(self):
        q = uniform_query(5, 0.3, 10**7)
        assert jensen_bound_center(q) == pytest.approx(1.0, abs=1e-9)

    def test_mc_route(self):
        q = uniform_query(6, 0.6, 500)
        auto = jensen_bound_center(q)
        mc = jensen_bound_center(q, method="mc", n_samples=400_000, stream=SeededStream(19))
        assert abs(auto - mc) < 0.02

    def test_alpha_one_beta_laws_are_uniform(self):
        q = CoverageQuery(4, 0.6, 10, SamplingScheme.beta(4, 1.0, 0.9), TargetPrior.product_beta(4, 1.0))
        ref = CoverageQuery.uniform(4, 0.6, 10, 0.9)
        assert jensen_bound_center(q) == jensen_bound_center(ref)
        assert jensen_bound_refined(q) == jensen_bound_refined(ref)

    @pytest.mark.parametrize("scheme, prior", [
        (SamplingScheme.sobol(4), TargetPrior.uniform(4)),
        (SamplingScheme.uniform(4), TargetPrior.product_beta(4, 0.5)),
    ], ids=["sobol-scheme", "beta-prior"])
    def test_rejects_non_uniform_laws(self, scheme, prior):
        with pytest.raises(ValueError, match="Jensen bounds"):
            jensen_bound_refined(CoverageQuery(4, 0.5, 10, scheme, prior))

    def test_requires_uniform_scheme(self):
        q = CoverageQuery(4, 0.5, 10, SamplingScheme.beta(4, 0.5), TargetPrior.uniform(4))
        with pytest.raises(ValueError):
            jensen_bound_center(q)


class TestProductFormApproximation:
    def test_n_one_equals_pbar(self):
        q = uniform_query(3, 0.4, 1)
        est = product_form_approximation(q, 200_000, SeededStream(20))
        da = coverage_design_averaged(q, 200, 500, SeededStream(21))
        assert abs(est.value - da.value) <= 3 * joint_se(est, da)

    def test_tracks_design_averaged(self):
        q = uniform_query(10, 0.5, 1000)
        est = product_form_approximation(q, 1_000_000, SeededStream(22))
        da = coverage_design_averaged(q, 4, 20_000, SeededStream(23))
        assert abs(est.value - da.value) < 0.05

    def test_one_sample_equals_per_radius_calls(self):
        q = CoverageQuery(6, 0.5, 300, SamplingScheme.beta(6, 0.5, 0.8), TargetPrior(6, 2.0))
        stream = SeededStream(27)
        pairs = _paired_distance_sample(q, 20_000, stream)
        for r in (0.0, 0.3, 0.5, 0.7, 0.9):
            per_radius = product_form_approximation(q.with_radius(r), 20_000, stream)
            assert _product_form_estimate(pairs, r, q.n_points) == per_radius

    @pytest.mark.parametrize("alphas", [(1.0, 1.0), (0.5, 2.0)])
    def test_blocks_do_not_change_the_sample(self, monkeypatch, alphas):
        d, inner = 7, 5000
        q = CoverageQuery(d, 0.5, 10, SamplingScheme.beta(d, alphas[0], 0.8), TargetPrior(d, alphas[1]))
        monkeypatch.setattr(sampling_module, "_MC_BLOCK_BYTES", 1 << 40)  # one block
        whole = _paired_distance_sample(q, inner, SeededStream(28))
        monkeypatch.setattr(sampling_module, "_MC_BLOCK_BYTES", 2 * 8 * d * 333)  # 333 pairs
        assert np.array_equal(_paired_distance_sample(q, inner, SeededStream(28)), whole)

    def test_paired_sample_memory_set_by_budget(self):
        # two 1e5 x 50 float64 arrays would take 80 MB
        q = uniform_query(50, 2.0, 10)
        tracemalloc.start()
        try:
            d2 = _paired_distance_sample(q, 100_000, SeededStream(26))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d2.shape == (100_000,)
        assert peak < 2 * sampling_module._MC_BLOCK_BYTES

    def test_overshoots_f_by_convexity(self):
        q = uniform_query(10, 0.55, 1000)
        est = product_form_approximation(q, 1_000_000, SeededStream(24))
        da = coverage_design_averaged(q, 4, 20_000, SeededStream(25))
        assert est.value >= da.value - 3 * joint_se(est, da)


class TestRecords:
    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            CoverageEstimate(1.2, 0.0, 10)
        with pytest.raises(ValueError):
            CoverageEstimate(0.5, -0.1, 10)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            uniform_query(3, -0.5, 10)
        with pytest.raises(ValueError):
            uniform_query(3, 0.5, 0)
        with pytest.raises(ValueError):
            CoverageQuery(3, 0.5, 10, SamplingScheme.uniform(4), TargetPrior.uniform(3))

    def test_nearest_distance_sample_shape(self):
        q = uniform_query(4, 0.3, 50)
        d2 = nearest_distance_sample(q, 3, 1000, SeededStream(29))
        assert d2.shape == (3, 1000)
        assert np.all(d2 >= 0)

    def test_nearest_distance_sample_holds_no_float64_design(self):
        # the kernel keeps 4 (d + 1) n bytes of float32 rows; the float64
        # design alone would take 8 d n
        d, n, m = 50, 50_000, 256
        q, stream = uniform_query(d, 2.0, n), SeededStream(30)
        tracemalloc.start()
        try:
            d2 = nearest_distance_sample(q, 1, m, stream, threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * d * n
        targets = sample_targets(q.prior, m, stream.child(1))
        design = sample_design(q.scheme, n, stream.child(0))
        assert np.array_equal(d2[0], min_squared_distances(targets, design.points))
