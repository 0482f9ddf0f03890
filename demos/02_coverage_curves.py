"""Coverage of [0,1]^10 by 1000 random balls, against its analytic companions.

Reproduces the layout behind the d=10, n=1000 coverage figure: the Monte
Carlo curve F_d(r, X_n), the asymptotic law 1 - exp(-n V_d r^d), both Jensen
bounds, and the product-form approximation 1 - (1 - p_bar)^n.
"""

import numpy as np

from cubecover import (
    CoverageQuery,
    SamplingScheme,
    SeededStream,
    TargetPrior,
    asymptotic_coverage,
    jensen_bound_center,
    jensen_bound_refined,
    nearest_distance_sample,
    product_form_approximation,
)

d, n = 10, 1000
stream = SeededStream(2025, 2)
prior = TargetPrior.uniform(d)
query = CoverageQuery(d, 1.0, n, SamplingScheme.uniform(d), prior)

# one pooled nearest-distance sample serves the whole radius grid
d2 = nearest_distance_sample(query, 2, 40_000, stream.child(0), threads=4)

print(f"{'r':>5} {'F_mc':>7} {'asym':>7} {'refined':>8} {'center':>7} {'prod-form':>9}")
for r in np.arange(0.30, 0.95, 0.05):
    f_mc = float((d2 <= r * r).mean())
    asym = asymptotic_coverage(d, n, r)
    qr = query.with_radius(float(r))
    jc = jensen_bound_center(qr)
    jr = jensen_bound_refined(qr)
    pf = product_form_approximation(qr, 100_000, stream.child(1)).value
    print(f"{r:>5.2f} {f_mc:>7.3f} {asym:>7.3f} {jr:>8.3f} {jc:>7.3f} {pf:>9.3f}")

print("\nReading the table: the asymptotic curve is far too optimistic at")
print("moderate r; the refined bound (ball centred at 3/4) is tighter than")
print("the centred one; the product-form approximation tracks F closely and")
print("overshoots slightly, as convexity of (1-p)^n dictates.")
