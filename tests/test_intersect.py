import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.hermite_e import HermiteE
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.stats import norm

import cubecover.intersect as intersect_module
import cubecover.sampling as sampling_module
from cubecover.geometry import unit_ball_volume
from cubecover.intersect import (
    ball_probability,
    ball_probability_batch,
    clt_probability,
    coordinate_cumulants,
    coordinate_moments,
    edgeworth_probability,
    kappa_density_sample,
    mc_intersection_oracle,
)
from cubecover.sampling import draw_delta_cube
from cubecover.streams import SeededStream


def quadrature_central_moments(u, delta, alpha, orders=(1, 2, 3, 4)):
    """Independent oracle: adaptive quadrature of (t-u)^2 central moments
    against the density p_{alpha,delta}."""
    import warnings

    from scipy.integrate import IntegrationWarning

    lo, hi = (1 - delta) / 2, (1 + delta) / 2
    const = 2.0 * (2.0 * delta) ** (1 - 2 * alpha) / beta_fn(alpha, alpha)

    def density(t):
        return const * (delta**2 - (2 * t - 1) ** 2) ** (alpha - 1)

    def integrate(f):
        with warnings.catch_warnings():
            # integrable endpoint singularities for alpha < 1 trip quad's
            # slow-convergence warning; the tolerances below are still met
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(lambda t: f(t) * density(t), lo, hi, limit=200, epsabs=1e-13, epsrel=1e-11)[0]

    m1 = integrate(lambda t: (t - u) ** 2)
    out = {1: m1}
    for k in orders:
        if k >= 2:
            out[k] = integrate(lambda t: ((t - u) ** 2 - m1) ** k)
    return out


class TestCoordinateMoments:
    def test_center_delta_one_exact_fractions(self):
        mu1, mu2, mu3 = coordinate_moments(0.5, 1.0)
        assert mu1 == pytest.approx(float(Fraction(1, 12)), rel=1e-14)
        assert mu2 == pytest.approx(float(Fraction(1, 180)), rel=1e-14)
        assert mu3 == pytest.approx(float(Fraction(1, 3780)), rel=1e-14)

    def test_off_center(self):
        mu1, mu2, mu3 = coordinate_moments(0.75, 1.0)
        assert mu1 == pytest.approx(0.0625 + 1.0 / 12.0, rel=1e-13)
        assert mu2 == pytest.approx((1.0 / 3.0) * (0.0625 + 1.0 / 60.0), rel=1e-13)
        assert mu3 == pytest.approx((1.0 / 15.0) * (0.0625 + 1.0 / 252.0), rel=1e-13)

    @pytest.mark.parametrize("u,delta", [(0.5, 1.0), (0.75, 1.0), (0.3, 0.6), (0.9, 0.25), (0.5, 0.05)])
    def test_against_quadrature_oracle(self, u, delta):
        mu1, mu2, mu3 = coordinate_moments(u, delta)
        ref = quadrature_central_moments(u, delta, 1.0)
        assert mu1 == pytest.approx(ref[1], rel=1e-9)
        assert mu2 == pytest.approx(ref[2], rel=1e-9)
        assert mu3 == pytest.approx(ref[3], rel=1e-9)

    def test_small_delta_limit(self):
        mu1, mu2, mu3 = coordinate_moments(0.8, 1e-8)
        assert mu1 == pytest.approx((0.8 - 0.5) ** 2, rel=1e-12)
        assert mu2 == pytest.approx(0.0, abs=1e-17)
        assert mu3 == pytest.approx(0.0, abs=1e-17)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            coordinate_moments(0.5, 0.0)


class TestCoordinateCumulants:
    @pytest.mark.parametrize("u,delta,alpha", [
        (0.5, 1.0, 1.0), (0.75, 1.0, 1.0), (0.4, 0.7, 0.5),
        (0.6, 0.9, 2.0), (0.25, 0.5, 0.25), (0.5, 1.0, 3.5),
    ])
    def test_all_orders_against_quadrature(self, u, delta, alpha):
        got = coordinate_cumulants(np.array([u]), delta, alpha, nu_max=4)[0]
        ref = quadrature_central_moments(u, delta, alpha)
        kappa4 = ref[4] - 3.0 * ref[2] ** 2
        assert got[0] == pytest.approx(ref[1], rel=1e-9)
        assert got[1] == pytest.approx(ref[2], rel=1e-9)
        assert got[2] == pytest.approx(ref[3], rel=1e-9)
        assert got[3] == pytest.approx(kappa4, rel=1e-7, abs=1e-14)

    def test_alpha_one_routes_agree(self):
        u = np.linspace(0.05, 0.95, 19)
        closed = coordinate_cumulants(u, 0.8, 1.0, nu_max=4)
        # force the quadrature route with an alpha that is numerically 1
        quadrature = coordinate_cumulants(u, 0.8, 1.0 + 1e-14, nu_max=4)
        assert np.allclose(closed, quadrature, rtol=1e-9, atol=1e-15)


class TestSumMoments:
    """Moments of ||U - X||^2: per-coordinate cumulants summed over coordinates."""

    def test_center_d10(self):
        mean, var = coordinate_cumulants(np.full(10, 0.5), 1.0).sum(axis=0)[:2]
        assert mean == pytest.approx(10.0 / 12.0, rel=1e-13)
        assert var == pytest.approx(10.0 / 180.0, rel=1e-13)

    def test_three_quarters_d20(self):
        mean = coordinate_cumulants(np.full(20, 0.75), 1.0).sum(axis=0)[0]
        assert mean == pytest.approx(20 * 0.1458333333, rel=1e-9)

    def test_mean_identity_for_uniform(self):
        rng = np.random.default_rng(0)
        u = rng.random(7)
        mean = coordinate_cumulants(u, 0.6).sum(axis=0)[0]
        expected = float(((u - 0.5) ** 2).sum()) + 7 * 0.36 / 12.0
        assert mean == pytest.approx(expected, rel=1e-12)

    def test_arcsine_alpha_half(self):
        mean = coordinate_cumulants(np.array([0.5]), 1.0, alpha=0.5).sum(axis=0)[0]
        assert mean == pytest.approx(1.0 / 8.0, rel=1e-10)


class TestEdgeworthTerms:
    """Orders 1 and 2 against the expansion written out with numpy's Hermite
    polynomials:

        P_1 = Phi(t) - phi(t) He_2(t) lambda_3/3!
        P_2 = P_1 - phi(t) [He_3(t) lambda_4/4! + He_5(t) lambda_3^2/(2! 3!^2)]
    """

    @staticmethod
    def reference(u, delta, alpha, r, order):
        k1, k2, k3, k4 = coordinate_cumulants(u, delta, alpha, 4).sum(axis=0)
        sigma = math.sqrt(k2)
        t = (r * r - k1) / sigma
        lam3, lam4 = k3 / sigma**3, k4 / sigma**4
        he = [HermiteE([0] * m + [1])(t) for m in range(6)]
        q = [he[2] * lam3 / 6, he[3] * lam4 / 24 + he[5] * lam3**2 / 72]
        return norm.cdf(t) - norm.pdf(t) * sum(q[:order])

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_reference(self, alpha, order):
        u = np.random.default_rng(11).random(10)
        mean, var = coordinate_cumulants(u, 0.7, alpha).sum(axis=0)[:2]
        for s in (-1.6, -0.7, 0.4, 1.3):
            r = math.sqrt(mean + s * math.sqrt(var))
            ref = self.reference(u, 0.7, alpha, r, order)
            # the term of this order is well above the tolerance
            assert abs(ref - self.reference(u, 0.7, alpha, r, order - 1)) > 1e-5
            got = edgeworth_probability(u, 0.7, alpha, r, order=order)
            assert got == pytest.approx(ref, rel=1e-12)

class TestCltProbability:
    def test_half_at_mean(self):
        u = np.full(10, 0.5)
        mu = coordinate_cumulants(u, 1.0).sum(axis=0)[0]
        assert clt_probability(u, 1.0, 1.0, math.sqrt(mu)) == pytest.approx(0.5, abs=1e-12)

    def test_lower_tail_shrinks_with_dimension(self):
        p5 = clt_probability(np.full(5, 0.5), 1.0, 1.0, 0.0)
        p50 = clt_probability(np.full(50, 0.5), 1.0, 1.0, 0.0)
        assert p50 < p5 < 0.5

    def test_monotone_in_r(self):
        u = np.full(8, 0.6)
        vals = [clt_probability(u, 1.0, 1.0, r) for r in np.linspace(0, 2, 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestEdgeworth:
    def test_order_zero_is_clt(self):
        u = np.array([0.42, 0.66, 0.5, 0.81])
        for r in np.linspace(0.1, 1.4, 14):
            assert edgeworth_probability(u, 0.8, 1.0, r, order=0) == pytest.approx(
                clt_probability(u, 0.8, 1.0, r), abs=1e-14
            )

    def test_correction_vanishes_at_unit_t(self):
        # He_2(+-1) = 0, so the order-1 value equals Phi(+-1) exactly
        u = np.full(12, 0.5)
        mean, var = coordinate_cumulants(u, 1.0).sum(axis=0)[:2]
        for sign in (+1.0, -1.0):
            r = math.sqrt(mean + sign * math.sqrt(var))
            got = edgeworth_probability(u, 1.0, 1.0, r, order=1)
            assert got == pytest.approx(norm.cdf(sign), abs=1e-12)

    def test_order_one_beats_clt_in_max_error(self):
        # pointwise the correction can lose near its He_2 zeros (|t| = 1);
        # the improvement claim is about the worst error over a radius grid
        u = np.full(10, 0.5)
        stream = SeededStream(123)
        errs_clt, errs_e1 = [], []
        for i, r in enumerate((0.55, 0.65, 0.75, 0.85, 0.95, 1.05)):
            oracle = mc_intersection_oracle(u, 1.0, 1.0, r, 2_000_000, stream.child(i)).value
            errs_clt.append(abs(clt_probability(u, 1.0, 1.0, r) - oracle))
            errs_e1.append(abs(edgeworth_probability(u, 1.0, 1.0, r) - oracle))
        assert max(errs_e1) < max(errs_clt)
        assert max(errs_e1) < 0.01

    def test_order_two_stays_in_range_when_clamped(self):
        u = np.full(10, 0.75)
        for r in np.linspace(0.05, 2.0, 30):
            v = edgeworth_probability(u, 1.0, 1.0, r, order=2)
            assert 0.0 <= v <= 1.0

    def test_monotone_in_r_over_working_range(self):
        u = np.full(10, 0.5)
        vals = [edgeworth_probability(u, 1.0, 1.0, r) for r in np.linspace(0.3, 1.3, 60)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            edgeworth_probability(np.full(3, 0.4), 1.0, 1.0, 0.5, order=3)

    def test_symmetry_under_permutation_and_reflection(self):
        u = np.array([0.2, 0.45, 0.7, 0.9])
        base = edgeworth_probability(u, 1.0, 1.0, 0.8)
        assert edgeworth_probability(u[::-1].copy(), 1.0, 1.0, 0.8) == pytest.approx(base, rel=1e-13)
        assert edgeworth_probability(1.0 - u, 1.0, 1.0, 0.8) == pytest.approx(base, rel=1e-13)


class TestBallProbabilityBatch:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_rows_match_scalar_routes(self, alpha):
        # random centers plus the cube centre; radii from 0 to past the support
        gen = np.random.default_rng(17)
        U = np.vstack([gen.random((40, 9)), np.full((1, 9), 0.5)])
        for r in (0.0, 0.4, 0.9, 1.3, 3.0):
            clt = np.array([clt_probability(u, 0.7, alpha, r) for u in U])
            assert np.array_equal(clt, ball_probability_batch(U, 0.7, alpha, r, order=0))
            for order in (0, 1, 2):
                scalar = np.array([edgeworth_probability(u, 0.7, alpha, r, order=order) for u in U])
                assert np.array_equal(scalar, ball_probability_batch(U, 0.7, alpha, r, order))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            ball_probability_batch(np.full((2, 3), 0.5), 1.0, 1.0, -0.1)

    @pytest.mark.parametrize("order", [-1, 3])
    def test_order_outside_range_rejected(self, order):
        with pytest.raises(ValueError, match="orders are 0..2"):
            ball_probability_batch(np.full((2, 3), 0.4), 1.0, 1.0, 0.5, order=order)


class TestMcOracle:
    def test_r_zero(self):
        est = mc_intersection_oracle(np.full(3, 0.5), 1.0, 1.0, 0.0, 10_000, SeededStream(1))
        assert est.value == 0.0

    def test_ball_contains_support(self):
        d = 4
        r = math.sqrt(d)  # cube diagonal dominates any |U - X|
        est = mc_intersection_oracle(np.full(d, 0.5), 1.0, 1.0, r, 10_000, SeededStream(2))
        assert est.value == 1.0

    def test_interval_length(self):
        est = mc_intersection_oracle(np.array([0.5]), 1.0, 1.0, 0.25, 100_000, SeededStream(3))
        assert abs(est.value - 0.5) <= 3 * est.std_error

    def test_symmetry_statistical(self):
        u = np.array([0.3, 0.7, 0.55])
        a = mc_intersection_oracle(u, 1.0, 1.0, 0.6, 200_000, SeededStream(4))
        b = mc_intersection_oracle(1.0 - u, 1.0, 1.0, 0.6, 200_000, SeededStream(5))
        assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)

    def test_monotone_in_r_with_shared_stream(self):
        u = np.full(5, 0.55)
        vals = [mc_intersection_oracle(u, 1.0, 1.0, r, 50_000, SeededStream(30)).value
                for r in np.linspace(0.1, 1.5, 15)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_chunks_draw_from_jumped_substreams(self, monkeypatch):
        # chunk c of _MC_CHUNK samples is drawn from stream.jumped(c): 150
        # samples in chunks of 64 are 64, 64 and 22 rows of three substreams
        u, r, stream = np.full(2, 0.4), 0.3, SeededStream(6)
        monkeypatch.setattr(intersect_module, "_MC_CHUNK", 64)
        hits = 0
        for c, m in enumerate((64, 64, 22)):
            x = draw_delta_cube(stream.jumped(c), m, u.size, 1.0, 1.0)
            x -= u
            hits += int(np.count_nonzero(np.einsum("ij,ij->i", x, x) <= r * r))
        assert mc_intersection_oracle(u, 1.0, 1.0, r, 150, stream).value == hits / 150

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_blocks_do_not_change_the_estimate(self, monkeypatch, alpha):
        # 2500 samples in chunks of 1000, each drawn whole or in 7-row blocks
        d = 5
        u = np.linspace(0.2, 0.9, d)
        args = (u, 0.8, alpha, 0.45, 2500, SeededStream(7))
        monkeypatch.setattr(intersect_module, "_MC_CHUNK", 1000)
        monkeypatch.setattr(sampling_module, "_MC_BLOCK_BYTES", 1 << 40)
        whole = mc_intersection_oracle(*args)
        monkeypatch.setattr(sampling_module, "_MC_BLOCK_BYTES", 7 * d * 8)
        assert mc_intersection_oracle(*args) == whole
        assert 0.0 < whole.value < 1.0

    def test_memory_set_by_budget(self):
        # 2e5 samples at d = 50 drawn at once would take 80 MB
        tracemalloc.start()
        try:
            mc_intersection_oracle(np.full(50, 0.5), 1.0, 1.0, 2.0, 200_000, SeededStream(8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * sampling_module._MC_BLOCK_BYTES


class TestHighDimensionConvergence:
    @pytest.mark.slow
    def test_both_approximations_near_oracle_at_d50(self):
        # for growing d both routes approach the truth; at d=50 they sit
        # within 0.02 of a 10^7-draw oracle wherever it is not degenerate
        d, delta = 50, 1.0
        u = np.full(d, 0.5)
        stream = SeededStream(777)
        parts = []
        from cubecover.sampling import draw_delta_cube

        for j in range(10):
            x = draw_delta_cube(stream.jumped(j), 1_000_000, d, delta, 1.0)
            diff = x - u
            parts.append(np.einsum("ij,ij->i", diff, diff))
        d2 = np.sort(np.concatenate(parts))
        checked = 0
        for r in np.arange(1.6, 2.4, 0.04):
            oracle = np.searchsorted(d2, r * r, side="right") / d2.size
            if not 0.05 <= oracle <= 0.95:
                continue
            checked += 1
            assert abs(clt_probability(u, delta, 1.0, r) - oracle) <= 0.02
            assert abs(edgeworth_probability(u, delta, 1.0, r) - oracle) <= 0.02
        assert checked >= 5


class TestExactPaths:
    def test_ball_inside_cube_is_exact(self):
        d, r = 10, 0.5
        expected = r**d * unit_ball_volume(d)
        got = ball_probability(np.full(d, 0.5), 1.0, 1.0, r)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_ball_swallows_cube(self):
        assert ball_probability(np.full(3, 0.5), 1.0, 1.0, 2.0) == 1.0

    def test_delta_rescaling(self):
        d, delta, r = 6, 0.5, 0.2
        expected = r**d * unit_ball_volume(d) / delta**d
        got = ball_probability(np.full(d, 0.5), delta, 1.0, r)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("u, alpha, r", [(0.6, 1.0, 0.8), (0.5, 0.5, 0.2)],
                             ids=["ball-leaves-cube", "inside-but-beta-law"])
    def test_edgeworth_order_one_elsewhere(self, u, alpha, r):
        point = np.full(6, u)
        assert ball_probability(point, 1.0, alpha, r) == edgeworth_probability(point, 1.0, alpha, r)


class TestKappa:
    def test_ball_inside_cube_gives_one(self):
        d, r, inner = 3, 0.2, 20_000
        vals = kappa_density_sample(d, r, 1.0, 12, inner, SeededStream(7))
        # kappa = 1 exactly for U deep inside; estimates carry binomial noise
        p_full = r**d * unit_ball_volume(d)
        se = math.sqrt((1.0 - p_full) / (p_full * inner))
        assert np.all(vals <= 1.0 + 4 * se)
        assert vals.max() > 1.0 - 4 * se  # some draw landed fully inside

    def test_concentrated_below_one(self):
        # d=10, r=0.5: the mass sits well below kappa = 1 (the delta-measure
        # assumption behind the asymptotic count is badly off here)
        vals = kappa_density_sample(10, 0.5, 1.0, 200, 3000, SeededStream(8))
        assert np.all(vals >= 0.0)
        assert np.quantile(vals, 0.9) < 1.0
        assert 0.1 < float(np.mean(vals)) < 0.6

    def test_overflow_guard(self):
        with pytest.raises(FloatingPointError):
            kappa_density_sample(200, 1e-3, 1.0, 2, 10, SeededStream(9))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kappa_density_sample(3, 0.0, 1.0, 2, 10, SeededStream(10))
