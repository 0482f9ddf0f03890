"""How misleading the classical sample-size estimates are in high dimension.

The classical count n_gamma^as = -ln(gamma) / (eps^d V_d) assumes a target
ball's full volume is available, which only holds asymptotically.  Here we
fix the radius the asymptotic theory says should cover 90% of the cube and
measure what n = 1000 uniform points actually cover.
"""

from cubecover import (
    CoverageQuery,
    SamplingScheme,
    SeededStream,
    TargetPrior,
    asymptotic_radius,
    coverage_design_averaged,
    n_gamma_asymptotic,
    n_gamma_classical,
    unit_ball_volume,
    worst_case_n_mixture,
)

stream = SeededStream(2025)
n, gamma = 1000, 0.1

print(f"Radius from the asymptotic law vs actual coverage, n={n}, target 1-gamma=0.9\n")
print(f"{'d':>4} {'r_asym':>8} {'actual F':>9}")
for d in (5, 10, 15, 20, 30, 50):
    r = asymptotic_radius(d, n, gamma)
    q = CoverageQuery(d, r, n, SamplingScheme.uniform(d), TargetPrior.uniform(d))
    est = coverage_design_averaged(q, 2, 20_000, stream.child(d), threads=4)
    print(f"{d:>4} {r:>8.3f} {est.value:>9.3f}")

print("\nThe asymptotic promise of 0.9 collapses as d grows: the balls around")
print("interior points hang far outside the cube at these radii, so their")
print("effective volume is a fraction of eps^d V_d.")

print("\nClassical counts for hitting a ball of radius 0.1 with prob. 0.9:")
for d in (3, 5, 10):
    p = 0.1**d * unit_ball_volume(d)
    print(f"  d={d:>2}: exact n_gamma = {n_gamma_classical(p, gamma):,}  "
          f"(asymptotic {n_gamma_asymptotic(d, 0.1, gamma).value:,.0f})")

print("\nWorst case for decaying mixture weights alpha_j = 1/j (log10 scale):")
for d in (3, 10):
    print(f"  d={d:>2}: log10 n(gamma) = {worst_case_n_mixture(d, 0.1, gamma):,.1f}")
print("Even at d=3 that is ~10^239 points; at d=10 the exponent itself exceeds 10^9.")
