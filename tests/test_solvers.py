import math

import numpy as np
import pytest

import cubecover.solvers as solvers_module
from cubecover.coverage import CoverageQuery, coverage_design_averaged, nearest_distance_sample
from cubecover.geometry import unit_ball_volume
from cubecover.sampling import SamplingScheme, TargetPrior
from cubecover.solvers import (
    RadiusCell,
    _coverage_order_statistic,
    _exact_radius,
    _radius_hint,
    asymptotic_radius,
    default_delta_grid,
    delta_sweep,
    empirical_n_gamma,
    empirical_n_gamma_best_delta,
    empirical_radius_quantile,
    n_gamma_asymptotic,
    n_gamma_classical,
    radius_best_delta,
    radius_table_cell,
    worst_case_n_mixture,
)
from cubecover.streams import SeededStream


class TestGammaValidation:
    def test_solvers_reject_gamma_outside_unit_interval(self):
        uniform, prior, stream = SamplingScheme.uniform(3), TargetPrior.uniform(3), SeededStream(1)
        solvers = [
            lambda g: n_gamma_classical(0.01, g),
            lambda g: n_gamma_asymptotic(3, 0.1, g),
            lambda g: worst_case_n_mixture(3, 0.1, g),
            lambda g: asymptotic_radius(3, 100, g),
            lambda g: empirical_radius_quantile(3, 100, uniform, prior, g, stream, n_targets=50),
            lambda g: radius_best_delta(3, 100, g, [0.5, 1.0], stream, n_targets=50),
            lambda g: radius_table_cell(3, 100, g, [0.5, 1.0], stream, n_targets=50),
            lambda g: empirical_n_gamma(3, 0.3, uniform, g, stream, n_targets=50),
            lambda g: empirical_n_gamma_best_delta(3, 0.3, g, stream, n_targets=50),
        ]
        for solve in solvers:
            for bad in (0.0, 1.0, -0.2, 1.5, math.nan):
                with pytest.raises(ValueError, match="gamma must lie in"):
                    solve(bad)


class TestClassicalCount:
    def test_textbook_value(self):
        assert n_gamma_classical(0.01, 0.1) == 230

    def test_one_fair_trial(self):
        assert n_gamma_classical(0.5, 0.5) == 1

    def test_gamma_near_one(self):
        assert n_gamma_classical(0.3, 0.999999) == 1

    def test_validation(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                n_gamma_classical(p, 0.1)

    def test_sits_just_below_asymptotic_for_interior_ball(self):
        # -ln(1-p) > p, so the exact count never exceeds the asymptotic one
        # and trails it by at most (-ln gamma)/2 + 1 (the p/2 expansion term)
        gamma = 0.1
        for d, eps in ((3, 0.3), (5, 0.25), (10, 0.4)):
            p = eps**d * unit_ball_volume(d)
            exact = n_gamma_classical(p, gamma)
            asym = n_gamma_asymptotic(d, eps, gamma).value
            assert exact <= math.ceil(asym)
            assert exact >= asym - (-math.log(gamma)) / 2.0 - 1.0


class TestAsymptoticCount:
    def test_d20_unit_radius(self):
        got = n_gamma_asymptotic(20, 1.0, 0.1)
        assert got.value == pytest.approx(89.2237, abs=2e-3)
        assert round(got.value) == 89

    def test_table_row_d20(self):
        row = [round(n_gamma_asymptotic(20, r, 0.1).value) for r in (0.9, 0.95, 1.0, 1.05, 1.1, 1.15)]
        assert row == [734, 249, 89, 34, 13, 5]

    def test_small_ball_d10(self):
        assert n_gamma_asymptotic(10, 0.1, 0.1).value == pytest.approx(9.029e9, rel=1e-3)

    def test_unit_count_at_balance(self):
        # choose eps with eps^d V_d = -ln(gamma)
        d, gamma = 6, 0.1
        eps = (-math.log(gamma) / unit_ball_volume(d)) ** (1.0 / d)
        assert n_gamma_asymptotic(d, eps, gamma).value == pytest.approx(1.0, rel=1e-12)

    def test_overflow_goes_to_log10(self):
        big = n_gamma_asymptotic(100, 1e-4, 0.1)
        assert big.overflowed
        assert big.value == math.inf
        assert math.isfinite(big.log10)

    def test_validation(self):
        with pytest.raises(ValueError):
            n_gamma_asymptotic(5, 0.0, 0.1)


class TestWorstCaseCount:
    def test_d3_matches_reported_magnitude(self):
        assert 238.0 <= worst_case_n_mixture(3, 0.1, 0.1) <= 240.0

    def test_d10_exponent(self):
        assert worst_case_n_mixture(10, 0.1, 0.1) == pytest.approx(3.921e9, rel=1e-3)
        assert worst_case_n_mixture(10, 0.1, 0.1) > 1e9  # "larger than 10^1000000000"

    def test_bounded_when_ball_probability_large(self):
        # P_U(B) >= -ln(gamma) implies log10 n <= log10 e
        d, gamma = 2, 0.5
        eps = 0.6
        assert eps**d * unit_ball_volume(d) >= -math.log(gamma)
        assert worst_case_n_mixture(d, eps, gamma) <= math.log10(math.e) + 1e-12


class TestAsymptoticRadius:
    def test_d10_reference(self):
        assert asymptotic_radius(10, 1000, 0.1) == pytest.approx(0.4961, abs=1e-4)

    def test_unit_quantile(self):
        d = 7
        assert asymptotic_radius(d, 1, math.exp(-1.0)) == pytest.approx(
            unit_ball_volume(d) ** (-1.0 / d), rel=1e-12
        )

    def test_d1(self):
        assert asymptotic_radius(1, 10, 0.1) == pytest.approx(2.302585 / 20.0, rel=1e-6)

    def test_inverse_of_asymptotic_count(self):
        for d, n in ((3, 17), (10, 1000), (25, 4096), (50, 10**6)):
            r = asymptotic_radius(d, n, 0.1)
            assert n_gamma_asymptotic(d, r, 0.1).value == pytest.approx(n, rel=1e-12)


class TestEmpiricalRadius:
    def test_d1_large_n_near_asymptotic(self):
        # the radius scale here is ~ln(10)/(2n) ~ 6e-4; the order statistic
        # resolves it exactly, with no solver tolerance on top
        r = empirical_radius_quantile(1, 2000, SamplingScheme.uniform(1), TargetPrior.uniform(1),
                                      0.1, SeededStream(1), n_targets=100_000, n_designs=8)
        assert r == pytest.approx(asymptotic_radius(1, 2000, 0.1), rel=0.05)

    # the KD-tree engine at d=3; the float32 engine at d=12, where this seed's
    # sqrt(q) squares back below q
    @pytest.mark.parametrize("d,n,n_designs,n_targets,seed", [(3, 40, 1, 5000, 21),
                                                              (12, 300, 2, 3000, 26)])
    def test_exact_order_statistic(self, d, n, n_designs, n_targets, seed):
        scheme, prior = SamplingScheme.uniform(d), TargetPrior.uniform(d)
        r = empirical_radius_quantile(d, n, scheme, prior, 0.1, SeededStream(seed),
                                      n_targets=n_targets, n_designs=n_designs)
        d2 = nearest_distance_sample(CoverageQuery(d, 0.0, n, scheme, prior), n_designs, n_targets,
                                     SeededStream(seed))
        q = np.sort(d2, axis=None)[math.ceil(0.9 * d2.size) - 1]
        # sqrt(q), or one float above it where sqrt(q)**2 rounds below q
        assert r in (math.sqrt(q), math.nextafter(math.sqrt(q), math.inf))
        # smallest radius whose pooled design-averaged coverage reaches 0.9
        assert (d2 <= r * r).mean() >= 0.9
        below = np.nextafter(r, 0.0)
        assert (d2 <= below * below).mean() < 0.9

    def test_matches_direct_coverage_bisection(self):
        d, n = 4, 60
        scheme, prior = SamplingScheme.uniform(d), TargetPrior.uniform(d)
        r = empirical_radius_quantile(d, n, scheme, prior, 0.1, SeededStream(2),
                                      n_targets=30_000, n_designs=4)
        est = coverage_design_averaged(CoverageQuery(d, r, n, scheme, prior), 8, 30_000, SeededStream(3))
        assert abs(est.value - 0.9) <= 0.01 + 3 * est.std_error

    def test_nonincreasing_in_n(self):
        scheme, prior = SamplingScheme.uniform(5), TargetPrior.uniform(5)
        rs = [empirical_radius_quantile(5, n, scheme, prior, 0.1, SeededStream(4),
                                        n_targets=20_000, n_designs=2) for n in (50, 200, 800)]
        assert rs[0] >= rs[1] >= rs[2]

    def test_delta_effect_radius_never_worse(self):
        # min over a grid containing delta=1 cannot exceed the delta=1 radius
        # beyond solver noise; at d=20 the sub-cube should win outright
        d, n = 20, 2000
        prior = TargetPrior.uniform(d)
        r_by_delta = {
            delta: empirical_radius_quantile(d, n, SamplingScheme.uniform(d, delta), prior, 0.1,
                                             SeededStream(40 + int(10 * delta)),
                                             n_targets=10_000, n_designs=2)
            for delta in (0.6, 0.7, 0.8, 1.0)
        }
        assert min(r_by_delta.values()) <= r_by_delta[1.0] + 0.01
        assert min(r_by_delta, key=r_by_delta.get) < 1.0


class TestDeltaSweep:
    def test_single_cell_grid(self):
        res = delta_sweep(5, 100, 0.4, TargetPrior.uniform(5), 1.0, [0.7], SeededStream(5),
                          n_targets=4000)
        assert res.best_delta == 0.7
        assert len(res.grid) == 1

    def test_reference_cell_d20(self):
        res = delta_sweep(20, 10_000, 0.97, TargetPrior.uniform(20), 1.0,
                          [0.6, 0.7, 0.8, 0.9, 1.0], SeededStream(6), n_targets=5000)
        assert res.best_delta == pytest.approx(0.8, abs=0.1)
        assert res.best_coverage == pytest.approx(0.9, abs=0.03)

    def test_no_delta_effect_in_small_dimension(self):
        res = delta_sweep(5, 1000, 0.24, TargetPrior.uniform(5), 1.0,
                          [0.8, 0.9, 1.0], SeededStream(7), n_targets=20_000)
        assert res.best_delta == 1.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            delta_sweep(3, 10, 0.3, TargetPrior.uniform(3), 1.0, [], SeededStream(8))
        with pytest.raises(ValueError):
            delta_sweep(3, 10, 0.3, TargetPrior.uniform(3), 1.0, [0.0, 0.5], SeededStream(9))

    def test_default_grid(self):
        grid = default_delta_grid()
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(1.0)
        assert len(grid) == 20


class TestRadiusBestDelta:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            radius_best_delta(3, 10, 0.1, [], SeededStream(8))
        for bad in ([0.0, 0.5], [0.5, 1.2]):
            with pytest.raises(ValueError):
                radius_best_delta(3, 10, 0.1, bad, SeededStream(9))

    def test_argmin_of_coupled_radii(self):
        d, n, grid = 12, 500, [1.0, 0.6, 0.8]
        best_delta, best_r = radius_best_delta(d, n, 0.1, grid, SeededStream(22), n_targets=3000)
        radii = {delta: empirical_radius_quantile(d, n, SamplingScheme.uniform(d, delta),
                                                  TargetPrior.uniform(d), 0.1, SeededStream(22),
                                                  n_targets=3000, n_designs=1)
                 for delta in grid}
        assert best_r == min(radii.values())
        assert best_delta == max(delta for delta, r in radii.items() if r == best_r)


class TestEmpiricalNGamma:
    def test_matches_independent_coverage_scan(self):
        d, r = 2, 0.35
        scheme, prior = SamplingScheme.uniform(d), TargetPrior.uniform(d)
        res = empirical_n_gamma(d, r, scheme, 0.1, SeededStream(10), n_targets=30_000, n_designs=4)
        assert res.status == "ok"
        # independent oracle: direct design-averaged coverage on both sides
        below = coverage_design_averaged(CoverageQuery(d, r, max(res.n - 2, 1), scheme, prior),
                                         60, 4000, SeededStream(11))
        above = coverage_design_averaged(CoverageQuery(d, r, res.n + 2, scheme, prior),
                                         60, 4000, SeededStream(12))
        assert below.value <= 0.9 + 0.01 + 3 * below.std_error
        assert above.value >= 0.9 - 0.01 - 3 * above.std_error

    def test_monotone_in_radius(self):
        scheme = SamplingScheme.uniform(3)
        ns = [empirical_n_gamma(3, r, scheme, 0.1, SeededStream(13), n_targets=20_000, n_designs=2).n
              for r in (0.2, 0.3, 0.4)]
        assert ns[0] > ns[1] > ns[2]

    def test_infeasible_cap(self):
        res = empirical_n_gamma(10, 0.3, SamplingScheme.uniform(10, 0.2), 0.1, SeededStream(14),
                                n_targets=2000, n_designs=1, n_cap=64)
        assert res.status == "infeasible"
        assert res.csv_value() == "NA"

    def test_geometrically_unreachable_is_instant_na(self):
        res = empirical_n_gamma(30, 0.5, SamplingScheme.uniform(30, 0.05), 0.1, SeededStream(15),
                                n_targets=2000, n_designs=1)
        assert res.status == "infeasible"

    def test_degenerate_single_point_reports_na(self):
        best, per_delta = empirical_n_gamma_best_delta(
            50, 2.3, 0.1, SeededStream(16), deltas=[0.1, 0.2, 0.3],
            n_targets=3000, n_designs=1)
        assert best.status == "degenerate"
        assert best.csv_value() == "NA"
        assert any(res.status == "ok" for _, res in per_delta)

    @pytest.mark.parametrize("deltas", [[], [0.5, 1.2]], ids=["empty", "above-one"])
    def test_best_delta_grid_validation(self, deltas):
        with pytest.raises(ValueError, match="delta grid is empty|deltas must lie"):
            empirical_n_gamma_best_delta(3, 0.3, 0.1, SeededStream(18), deltas=deltas)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            empirical_n_gamma(3, 0.0, SamplingScheme.uniform(3), 0.1, SeededStream(17))

    @pytest.mark.parametrize("budget, message", [
        (dict(n_cap=0), "n_cap"), (dict(n_cap=-5), "n_cap"), (dict(n_designs=0), "n_designs"),
    ])
    def test_budget_validation(self, budget, message):
        with pytest.raises(ValueError, match=f"{message} must be >= 1"):
            empirical_n_gamma(3, 0.3, SamplingScheme.uniform(3), 0.1, SeededStream(17),
                              n_targets=200, **budget)


class TestRadiusHint:
    """A hint changes how far the kernel scans, never the radius."""

    D, N = 12, 3000  # BLAS engine, two point tiles

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        original = solvers_module.nearest_distance_sample

        def counted(*args, **kwargs):
            calls.append(kwargs.get("settle_radius", 0.0))
            return original(*args, **kwargs)

        monkeypatch.setattr(solvers_module, "nearest_distance_sample", counted)
        return calls

    def _radius(self, hint=0.0, d=D, threads=1):
        return empirical_radius_quantile(d, self.N, SamplingScheme.uniform(d), TargetPrior.uniform(d),
                                         0.1, SeededStream(31), n_targets=2500, n_designs=2,
                                         threads=threads, hint=hint)

    def _full_sample(self, d=D):
        query = CoverageQuery.uniform(d, 0.0, self.N)
        return nearest_distance_sample(query, 2, 2500, SeededStream(31))

    def test_hint_above_the_answer_falls_back(self, monkeypatch):
        ref = _exact_radius(self._full_sample(), 0.1)
        calls = self._counted(monkeypatch)
        assert self._radius(hint=2.0 * ref) == ref
        assert calls == [2.0 * ref, 0.0]

    def test_hint_at_the_order_statistic(self, monkeypatch):
        d2 = self._full_sample()
        ref, q = _exact_radius(d2, 0.1), float(_coverage_order_statistic(d2, 0.1))
        k = math.ceil(0.9 * d2.size)
        calls = self._counted(monkeypatch)
        for hint in (math.nextafter(math.sqrt(q), 0.0), math.sqrt(q),
                     math.nextafter(math.sqrt(q), math.inf)):
            calls.clear()
            assert self._radius(hint=hint) == ref
            # the fallback runs exactly when hint**2 does not lie below the k-th value
            fell_back = np.count_nonzero(d2 <= hint * hint) >= k
            assert calls == ([hint, 0.0] if fell_back else [hint])

    def test_hint_below_the_answer_draws_once(self, monkeypatch):
        d2 = self._full_sample()
        ref = _exact_radius(d2, 0.1)
        hint = math.sqrt(float(np.quantile(d2, 0.5)))
        calls = self._counted(monkeypatch)
        assert self._radius(hint=hint) == ref
        assert calls == [hint]

    def test_zero_hint_is_the_unhinted_solve(self, monkeypatch):
        calls = self._counted(monkeypatch)
        assert self._radius(hint=0.0) == _exact_radius(self._full_sample(), 0.1)
        assert calls == [0.0]

    @pytest.mark.parametrize("quantile", [0.2, 0.85, 0.95])
    def test_kdtree_engine(self, quantile):
        d2 = self._full_sample(d=5)
        ref = _exact_radius(d2, 0.1)
        assert self._radius(hint=math.sqrt(float(np.quantile(d2, quantile))), d=5) == ref

    def test_threads_do_not_change_the_radius(self):
        d2 = self._full_sample()
        ref = _exact_radius(d2, 0.1)
        hint = _radius_hint(d2, 0.1)
        assert 0.0 < hint < ref
        assert self._radius(hint=hint, threads=1) == self._radius(hint=hint, threads=3) == ref


class TestRadiusWalk:
    def test_ties_keep_the_larger_delta(self, monkeypatch):
        # fake samples whose radius is set per delta, so that deltas tie
        radii = {0.4: 0.5, 0.6: 0.5, 0.8: 0.5, 1.0: 0.75}

        def fake(query, n_designs, n_targets, stream, *, threads=1, settle_radius=0.0):
            return np.full((n_designs, n_targets), radii[query.scheme.delta] ** 2)

        monkeypatch.setattr(solvers_module, "nearest_distance_sample", fake)
        assert radius_best_delta(3, 10, 0.1, list(radii), SeededStream(1), n_targets=50) == (0.8, 0.5)
        radii[1.0] = 0.5
        assert radius_best_delta(3, 10, 0.1, list(radii), SeededStream(1), n_targets=50) == (1.0, 0.5)

    @pytest.mark.parametrize("d,n,grid", [(12, 3000, default_delta_grid(0.1)),
                                          (6, 200, [0.5, 0.75, 1.0]),
                                          (12, 2500, [0.7, 0.9])])
    def test_cell_matches_the_unhinted_calls(self, d, n, grid):
        stream = SeededStream(33)
        kwargs = dict(n_targets=3000, n_designs=2)
        cell = radius_table_cell(d, n, 0.1, grid, stream, sweep_targets=1500, threads=2, **kwargs)
        prior = TargetPrior.uniform(d)
        r_full = empirical_radius_quantile(d, n, SamplingScheme.uniform(d, 1.0), prior, 0.1,
                                           stream.child(0), **kwargs)
        # the ascending walk with <= that the radius table used before hints
        best_delta, best_r = None, math.inf
        for delta in sorted(grid):
            d2 = nearest_distance_sample(CoverageQuery.uniform(d, 0.0, n, delta), 1, 1500,
                                         stream.child(1))
            r = _exact_radius(d2, 0.1)
            if r <= best_r:
                best_delta, best_r = delta, r
        r_best = empirical_radius_quantile(d, n, SamplingScheme.uniform(d, best_delta), prior, 0.1,
                                           stream.child(2), **kwargs)
        assert cell == RadiusCell(r_full, r_best, best_delta)
        assert radius_best_delta(d, n, 0.1, grid, stream.child(1), n_targets=1500) == (best_delta, best_r)
