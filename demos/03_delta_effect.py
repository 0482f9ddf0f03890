"""The delta-effect: sampling a shrunken concentric cube covers more.

At fixed (n, r), i.i.d. uniform points in C_delta = [1/2-delta/2, 1/2+delta/2]^d
beat points spread over the whole cube once d is moderately large.  The gain
is invisible at d=5 and dramatic at d=50.
"""

from cubecover import (
    SamplingScheme,
    SeededStream,
    TargetPrior,
    delta_sweep,
    empirical_radius_quantile,
    radius_best_delta,
)

stream = SeededStream(2025, 3)

print("Coverage as a function of delta (d=20, n=10000, r=0.97):")
res = delta_sweep(20, 10_000, 0.97, TargetPrior.uniform(20), 1.0,
                  [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], stream.child(0),
                  n_targets=10_000, threads=4)
for delta, est in res.grid:
    marker = "  <-- best" if delta == res.best_delta else ""
    print(f"  delta={delta:.2f}: F = {est.value:.3f} +- {est.std_error:.3f}{marker}")
print(f"Optimal delta = {res.best_delta} with coverage {res.best_coverage:.3f}; the full")
print("cube (delta=1) is distinctly worse despite being asymptotically optimal.\n")

print("Radius needed for 90% coverage, full cube vs best delta:")
for d, n, deltas in ((10, 1000, (0.8, 0.9, 1.0)), (50, 10_000, (0.4, 0.5, 0.6, 1.0))):
    prior = TargetPrior.uniform(d)
    r_full = empirical_radius_quantile(d, n, SamplingScheme.uniform(d, 1.0), prior, 0.1,
                                       stream.child(10 + d), n_targets=10_000, n_designs=2,
                                       threads=4)
    best_delta, r_best = radius_best_delta(d, n, 0.1, deltas, stream.child(100 + d),
                                           n_targets=10_000, threads=4)
    print(f"  d={d:>2}, n={n:>6}: r(delta=1) = {r_full:.3f},  min over grid = {r_best:.3f} at delta={best_delta}")
