"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Budgets are sized for a 4-core desktop; the heavyweight cells
(the d=50, n=1e5 radius cell) stay inside their per-cell time caps.
"""

import math
import time

import numpy as np
import pytest

from cubecover.cli import main as cli_main
from cubecover.coverage import CoverageQuery, coverage_design_conditional, nearest_distance_sample
from cubecover.geometry import unit_ball_volume
from cubecover.intersect import (
    clt_probability,
    coordinate_moments,
    edgeworth_probability,
    mc_intersection_oracle,
)
from cubecover.sampling import SamplingScheme, TargetPrior, draw_delta_cube, sample_design, sample_targets
from cubecover.solvers import (
    empirical_n_gamma,
    empirical_n_gamma_best_delta,
    empirical_radius_quantile,
    n_gamma_asymptotic,
    radius_best_delta,
    worst_case_n_mixture,
)
from cubecover.streams import SeededStream

THREADS = 4


def report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {criterion}: {detail}"


class TestCriterion1RadiusTable:
    CELLS = [
        # d, n, expected r, r tolerance, expected delta*, delta grid, sweep/full targets
        (10, 1000, 0.61, 0.02, 0.9, [round(0.60 + 0.05 * k, 2) for k in range(9)], 8000, 20000),
        (20, 10000, 1.01, 0.03, 0.8, [round(0.55 + 0.05 * k, 2) for k in range(10)], 5000, 20000),
        (50, 100000, 1.96, 0.03, 0.6, [round(0.40 + 0.05 * k, 2) for k in range(11)], 3000, 10000),
    ]

    @pytest.mark.parametrize("d,n,r_ref,r_tol,delta_ref,grid,sweep_t,full_t", CELLS)
    def test_cell(self, d, n, r_ref, r_tol, delta_ref, grid, sweep_t, full_t):
        started = time.perf_counter()
        stream = SeededStream(1001, d)
        r_full = empirical_radius_quantile(d, n, SamplingScheme.uniform(d, 1.0),
                                           TargetPrior.uniform(d), 0.1, stream.child(0),
                                           n_targets=full_t, n_designs=2, threads=THREADS)
        best_delta, _ = radius_best_delta(d, n, 0.1, grid, stream.child(1), n_targets=sweep_t,
                                          threads=THREADS)
        elapsed = time.perf_counter() - started
        ok = abs(r_full - r_ref) <= r_tol and abs(best_delta - delta_ref) <= 0.1 + 1e-9 and elapsed < 300
        report("1 (radius table cell)", ok,
               f"d={d} n={n}: r(delta=1)={r_full:.3f} (ref {r_ref}+-{r_tol}), "
               f"delta*={best_delta:.2f} (ref {delta_ref}+-0.1), {elapsed:.0f}s")


class TestCriterion2AsymptoticRow:
    def test_exact_row(self):
        row = [round(n_gamma_asymptotic(20, r, 0.1).value) for r in (0.9, 0.95, 1.0, 1.05, 1.1, 1.15)]
        ok = row == [734, 249, 89, 34, 13, 5] and row[2] == 89
        report("2 (asymptotic n_gamma row)", ok, f"rounded row={row}, expected [734, 249, 89, 34, 13, 5]")


class TestCriterion3NGammaCells:
    def test_d20_full_cube(self):
        res = empirical_n_gamma(20, 1.0, SamplingScheme.uniform(20, 1.0), 0.1, SeededStream(1003, 20),
                                n_targets=8000, n_designs=2, threads=THREADS)
        ok = res.status == "ok" and abs(res.n - 10800) <= 0.15 * 10800
        report("3 (n_gamma, d=20 r=1.0)", ok, f"n_gamma={res.csv_value()} vs 10800 +-15%")

    def test_d50_full_cube(self):
        res = empirical_n_gamma(50, 2.1, SamplingScheme.uniform(50, 1.0), 0.1, SeededStream(1003, 50),
                                n_targets=6000, n_designs=2, threads=THREADS)
        ok = res.status == "ok" and abs(res.n - 10000) <= 0.15 * 10000
        report("3 (n_gamma, d=50 r=2.1)", ok, f"n_gamma={res.csv_value()} vs 10000 +-15%")

    def test_d50_delta_optimized(self):
        best, _ = empirical_n_gamma_best_delta(50, 2.1, 0.1, SeededStream(1003, 51),
                                               n_targets=6000, n_designs=2, threads=THREADS)
        ok = best.status == "ok" and 30 <= best.n <= 80 and abs(best.delta - 0.3) <= 0.1 + 1e-9
        report("3 (n_gamma, d=50 r=2.1, delta*)", ok,
               f"n_gamma={best.csv_value()} at delta*={best.delta:.2f} vs reference 50 (0.3), window [30, 80]")

    @pytest.mark.parametrize("r", [2.25, 2.3])
    def test_d50_na_cells(self, r):
        best, _ = empirical_n_gamma_best_delta(50, r, 0.1, SeededStream(1003, int(r * 100)),
                                               n_targets=4000, n_designs=1, threads=THREADS)
        ok = best.is_na and best.csv_value() == "NA"
        report("3 (n_gamma NA cells)", ok, f"d=50 r={r}: reported {best.csv_value()} ({best.status})")


class TestCriterion4Lemma1:
    def test_normalized_cdf_convergence(self):
        started = time.perf_counter()
        d, n, n_targets = 2, 100_000, 100_000
        q = CoverageQuery(d, 0.0, n, SamplingScheme.uniform(d), TargetPrior.uniform(d))
        d2 = nearest_distance_sample(q, 1, n_targets, SeededStream(1004), threads=THREADS)
        rho = np.sort(np.sqrt(d2[0]))
        scale = (n * unit_ball_volume(d)) ** (1.0 / d)
        t = np.arange(0.005, 3.0, 0.005)
        emp = np.searchsorted(rho, t / scale, side="right") / rho.size
        sup = float(np.max(np.abs(emp - (1.0 - np.exp(-(t**d))))))
        elapsed = time.perf_counter() - started
        ok = sup <= 0.01 and elapsed < 120
        report("4 (Lemma 1 convergence)", ok, f"sup_t deviation={sup:.4f} <= 0.01, {elapsed:.0f}s")


class TestCriterion5Edgeworth:
    def test_order_one_improves_on_clt(self):
        d, delta = 10, 1.0
        u = np.full(d, 0.5)
        stream = SeededStream(1005)
        n_oracle = 10_000_000
        parts = []
        for j in range(10):
            x = draw_delta_cube(stream.jumped(j), n_oracle // 10, d, delta, 1.0)
            diff = x - u
            parts.append(np.einsum("ij,ij->i", diff, diff))
        d2 = np.sort(np.concatenate(parts))
        errs0, errs1 = [], []
        for r in np.arange(0.30, 1.30, 0.02):
            oracle = np.searchsorted(d2, r * r, side="right") / n_oracle
            if not 0.01 <= oracle <= 0.99:
                continue
            errs0.append(abs(clt_probability(u, delta, 1.0, r) - oracle))
            errs1.append(abs(edgeworth_probability(u, delta, 1.0, r, order=1) - oracle))
        ok = max(errs1) <= max(errs0) and max(errs1) <= 0.01
        report("5 (Edgeworth accuracy)", ok,
               f"max|err| over {len(errs1)} radii: order-1 {max(errs1):.4f} vs order-0 {max(errs0):.4f} (cap 0.01)")


class TestCriterion6BoundOrdering:
    GRIDS = {10: ([0.45, 0.5, 0.55, 0.6, 0.65], 1000),
             20: ([0.9, 0.95, 1.0, 1.05, 1.1], 10000),
             50: ([1.9, 2.0, 2.1, 2.2, 2.3], 10000)}

    @pytest.mark.parametrize("d", [10, 20, pytest.param(50, marks=pytest.mark.slow)])
    def test_ordering_chain(self, d):
        radii, n = self.GRIDS[d]
        stream = SeededStream(1006, d)
        prior = TargetPrior.uniform(d)
        q0 = CoverageQuery(d, max(radii), n, SamplingScheme.uniform(d), prior)
        d2 = nearest_distance_sample(q0, 3, 10_000, stream.child(0), threads=THREADS)
        pairs_u = sample_targets(prior, 500_000, stream.child(1))
        pairs_x = draw_delta_cube(stream.child(2).generator(), 500_000, d, 1.0, 1.0)
        pair_d2 = np.einsum("ij,ij->i", pairs_u - pairs_x, pairs_u - pairs_x)
        n_mc = 2_000_000

        def bound(u_val, r, sub):
            est = mc_intersection_oracle(np.full(d, u_val), 1.0, 1.0, r, n_mc, sub)
            val = -math.expm1(n * math.log1p(-min(est.value, 1 - 1e-16)))
            return val, n * (1.0 - est.value) ** (n - 1) * est.std_error

        all_ok = True
        lines = []
        for i, r in enumerate(radii):
            per = (d2 <= r * r).mean(axis=1)
            f_val, f_se = float(per.mean()), float(per.std(ddof=1) / math.sqrt(per.size))
            jc, jc_se = bound(0.5, r, stream.child(10 + i))
            jr, jr_se = bound(0.75, r, stream.child(40 + i))
            p_bar = float((pair_d2 <= r * r).mean())
            pf = -math.expm1(n * math.log1p(-min(p_bar, 1 - 1e-16)))
            pf_se = n * (1 - p_bar) ** (n - 1) * math.sqrt(p_bar * (1 - p_bar) / pair_d2.size)
            ok = (f_val <= jr + 3 * math.hypot(f_se, jr_se)
                  and jr <= jc + 3 * math.hypot(jr_se, jc_se)
                  and f_val <= pf + 3 * math.hypot(f_se, pf_se))
            all_ok &= ok
            lines.append(f"r={r}: F={f_val:.3f} <= refined={jr:.3f} <= center={jc:.3f}, pf={pf:.3f}")
        report("6 (bound ordering)", all_ok, f"d={d}: " + "; ".join(lines))


class TestCriterion7SobolParity:
    def test_d20_ratio(self):
        d, n, r = 20, 1024, 1.17  # empirical 90%-coverage radius for d=20, n=1000
        stream = SeededStream(1007, 20)
        prior = TargetPrior.uniform(d)
        qU = CoverageQuery(d, r, n, SamplingScheme.uniform(d), prior)
        d2 = nearest_distance_sample(qU, 4, 25_000, stream.child(0), threads=THREADS)
        f_u = float((d2 <= r * r).mean())
        qS = CoverageQuery(d, r, n, SamplingScheme.sobol(d), prior)
        f_s = coverage_design_conditional(qS, sample_design(qS.scheme, n, stream.child(1)),
                                          25_000, stream.child(2), threads=THREADS).value
        ratio = f_u / f_s
        ok = abs(ratio - 1.0) <= 0.1
        report("7 (Sobol parity, d=20)", ok, f"F_unif={f_u:.4f} F_sobol={f_s:.4f} |ratio-1|={abs(ratio-1):.4f} <= 0.1")

    def test_d10_sobol_not_worse(self):
        d, n = 10, 1024
        stream = SeededStream(1007, 10)
        prior = TargetPrior.uniform(d)
        design = sample_design(SamplingScheme.sobol(d), n, stream.child(1))
        all_ok = True
        details = []
        for i, r in enumerate((0.42, 0.46, 0.50, 0.54)):  # mid-range coverage levels
            qU = CoverageQuery(d, r, n, SamplingScheme.uniform(d), prior)
            d2 = nearest_distance_sample(qU, 4, 25_000, stream.child(10 + i), threads=THREADS)
            per = (d2 <= r * r).mean(axis=1)
            f_u, se_u = float(per.mean()), float(per.std(ddof=1) / 2.0)
            qS = CoverageQuery(d, r, n, SamplingScheme.sobol(d), prior)
            f_s = coverage_design_conditional(qS, design, 25_000, stream.child(20 + i),
                                              threads=THREADS).value
            all_ok &= f_s >= f_u - se_u
            details.append(f"r={r}: sobol={f_s:.4f} unif={f_u:.4f}(se {se_u:.4f})")
        report("7 (Sobol parity, d=10)", all_ok, "; ".join(details))


class TestCriterion8Determinism:
    def test_cli_byte_identical_across_threads(self, tmp_path):
        cases = [
            ["coverage", "--dim", "8", "--n", "500", "--r-grid", "0.4:0.7:0.1",
             "--targets", "5000", "--designs", "2", "--seed", "99"],
            ["table1", "--cells", "6:200", "--targets", "3000", "--sweep-targets", "1500",
             "--delta-grid", "0.8,0.9,1.0", "--seed", "99"],
            ["ngamma", "--dim", "10", "--r-grid", "0.55", "--targets", "2000", "--designs", "1",
             "--delta-grid", "0.7,0.85,1.0", "--cap", "65536", "--seed", "99"],
        ]
        ok = True
        for i, case in enumerate(cases):
            out1, out2 = tmp_path / f"a{i}.csv", tmp_path / f"b{i}.csv"
            assert cli_main([*case, "--threads", "1", "--out", str(out1)]) == 0
            assert cli_main([*case, "--threads", "4", "--out", str(out2)]) == 0
            ok &= out1.read_bytes() == out2.read_bytes()
        report("8 (CLI determinism)", ok, f"{len(cases)} commands byte-identical with --threads 1 vs 4")


class TestCriterion9OracleEquivalence:
    @pytest.mark.slow
    def test_three_estimators_agree_at_n1(self):
        from cubecover.coverage import coverage_design_averaged, coverage_product_form

        rng_stream = SeededStream(1009, 1)
        all_ok = True
        worst = 0.0
        for k in range(20):
            qgen = rng_stream.child(k).generator()
            d = int(qgen.integers(1, 7))
            delta = float(qgen.uniform(0.3, 1.0))
            alpha = float(qgen.choice([0.5, 1.0, 2.0]))
            scheme = SamplingScheme.beta(d, alpha, delta)
            prior = TargetPrior.uniform(d)
            # pick r so coverage is non-degenerate: empirical mid-quantile of ||U-X||
            u0 = sample_targets(prior, 256, rng_stream.child(100 + k))
            x0 = draw_delta_cube(rng_stream.child(200 + k).generator(), 256, d, delta, alpha)
            r = float(np.quantile(np.linalg.norm(u0 - x0, axis=1), qgen.uniform(0.25, 0.75)))
            q = CoverageQuery(d, r, 1, scheme, prior)

            replicate = nearest_distance_sample(q, 300, 100, rng_stream.child(300 + k))
            per = (replicate <= r * r).mean(axis=1)
            cond_mean, cond_se = float(per.mean()), float(per.std(ddof=1) / math.sqrt(per.size))
            avg = coverage_design_averaged(q, 300, 100, rng_stream.child(400 + k))
            pf = coverage_product_form(q, 30_000, 1, rng_stream.child(500 + k), method="mc")
            for a_val, a_se, b_val, b_se in (
                (cond_mean, cond_se, avg.value, avg.std_error),
                (cond_mean, cond_se, pf.value, pf.std_error),
                (avg.value, avg.std_error, pf.value, pf.std_error),
            ):
                gap = abs(a_val - b_val) / max(3 * math.hypot(a_se, b_se), 1e-12)
                worst = max(worst, gap)
                all_ok &= gap <= 1.0
        report("9 (n=1 estimator agreement)", all_ok,
               f"20 random queries, worst |diff|/(3 joint se)={worst:.2f} (needs <= 1)")

    @pytest.mark.slow
    def test_closed_form_moments_match_mc(self):
        stream = SeededStream(1009, 2)
        base = stream.generator().random(10_000_000)
        gen = stream.child(1).generator()
        all_ok = True
        worst = 0.0
        for _ in range(100):
            u = float(gen.uniform(0.0, 1.0))
            delta = float(gen.uniform(0.05, 1.0))
            x = (0.5 - 0.5 * delta) + delta * base
            eta = np.square(x - u)
            m1 = float(eta.mean())
            c = eta - m1
            c2 = c * c
            m2 = float(c2.mean())
            m3 = float((c2 * c).mean())
            m4 = float((c2 * c2).mean())
            m6 = float((c2 * c2 * c2).mean())
            nn = eta.size
            se1 = math.sqrt(m2 / nn)
            se2 = math.sqrt(max(m4 - m2 * m2, 0.0) / nn)
            se3 = math.sqrt(max(m6 - m3 * m3 - 6.0 * m2 * m4 + 9.0 * m2**3, 0.0) / nn)
            mu1, mu2, mu3 = coordinate_moments(u, delta)
            for got, ref, se in ((mu1, m1, se1), (mu2, m2, se2), (mu3, m3, se3)):
                z = abs(float(got) - ref) / max(se, 1e-300)
                worst = max(worst, z)
                all_ok &= z <= 4.0
        report("9 (moment closed forms vs MC)", all_ok,
               f"100 random (u, delta) pairs x 3 moments, worst |z|={worst:.2f} (needs <= 4)")


class TestWorstCaseLogCounts:
    def test_log10_exponents(self):
        v3 = worst_case_n_mixture(3, 0.1, 0.1)
        v10 = worst_case_n_mixture(10, 0.1, 0.1)
        ok = 238.0 <= v3 <= 240.0 and v10 > 1e9
        report("2.3 (worst-case log10 counts)", ok,
               f"log10 n(3,0.1,0.1)={v3:.1f} in [238,240]; log10 n(10,0.1,0.1)={v10:.3e} > 1e9")
