"""Estimators of the weak-covering proportion F_d(r, X_n).

F_d(r, X_n) is the probability that a prior-distributed target lies within
distance r of the design -- equivalently the expected fraction of the cube
covered by the union of radius-r balls around the design points.  Estimators:

* design-conditional: Monte Carlo over targets for one fixed design;
* design-averaged: the same, averaged over independent design draws;
* product-form: E_U[1 - (1 - p(U))^n] with p(U) = P_X{||U - X|| <= r}
  evaluated per target by Edgeworth order 1;
* Jensen bounds at U = (1/2,...,1/2) and U = (3/4,...,3/4), and the
  product-form approximation 1 - (1 - p_bar)^n with p_bar the average
  ball-cube intersection probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import CoverageEstimate, binomial_std_error
from .geometry import min_squared_distances
from .intersect import ball_probability, ball_probability_batch
from .sampling import (
    Design,
    IidRows,
    SamplingScheme,
    SchemeKind,
    TargetPrior,
    _mc_block_rows,
    beta_quantile,
    delta_cube_blocks,
    sample_design,
    sample_targets,
)
from .streams import SeededStream

__all__ = [
    "CoverageQuery",
    "coverage_design_averaged",
    "coverage_design_conditional",
    "coverage_product_form",
    "jensen_bound_center",
    "jensen_bound_refined",
    "nearest_distance_sample",
    "product_form_approximation",
]


@dataclass(frozen=True)
class CoverageQuery:
    """Arguments of F_d(r, X_n) bundled together."""

    dimension: int
    radius: float
    n_points: int
    scheme: SamplingScheme
    prior: TargetPrior

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")
        if self.scheme.dimension != self.dimension or self.prior.dimension != self.dimension:
            raise ValueError("scheme/prior dimension does not match the query dimension")

    def with_radius(self, r: float) -> "CoverageQuery":
        return CoverageQuery(self.dimension, r, self.n_points, self.scheme, self.prior)

    @classmethod
    def uniform(cls, dimension: int, radius: float, n_points: int, delta: float = 1.0) -> "CoverageQuery":
        return cls(dimension, radius, n_points,
                   SamplingScheme.uniform(dimension, delta), TargetPrior.uniform(dimension))


def coverage_design_conditional(query: CoverageQuery, design: Design, n_targets: int,
                                stream: SeededStream, *, threads: int = 1) -> CoverageEstimate:
    """Fraction of prior draws within ``query.radius`` of a fixed design."""
    if design.dimension != query.dimension:
        raise ValueError("design dimension does not match the query")
    targets = sample_targets(query.prior, n_targets, stream)
    r2 = query.radius**2
    d2 = min_squared_distances(targets, design.points, threads=threads, settle=r2)
    p = float(np.count_nonzero(d2 <= r2)) / n_targets
    return CoverageEstimate(p, binomial_std_error(p, n_targets))


def nearest_distance_sample(query: CoverageQuery, n_designs: int, n_targets: int,
                            stream: SeededStream, *, threads: int = 1,
                            settle_radius: float = 0.0, targets: list | None = None) -> np.ndarray:
    """Squared nearest-design-point distances, shape (n_designs, n_targets).

    The whole radius dependence of design-averaged coverage lives in one
    comparison against r^2, so solvers can draw this sample once, sweep r
    over it with common random numbers, and read radii off it as order
    statistics.  An i.i.d. design goes to the kernel as an :class:`IidRows`
    row source, so its rows are drawn one stage at a time into the kernel's
    float32 rows, and neither a float64 copy nor all of its float32 rows
    are ever held.  Design k's targets are drawn from ``stream.child(2k +
    1)``, unless a caller drew them already and passes them as ``targets[k]``.

    A caller that reads the sample only through ``d2 <= r * r`` for radii
    ``r >= settle_radius`` passes the smallest such radius: the kernel then
    stops looking for a target's nearest point once it has found one within
    ``settle_radius`` (``settle`` of
    :func:`cubecover.geometry.min_squared_distances`, on either engine).
    Such a target keeps a partial minimum ``<= settle_radius**2``, so every
    one of those comparisons decides as at ``settle_radius = 0``, and every
    value above ``settle_radius**2`` is bit for bit the full scan's; order
    statistics and maxima below ``settle_radius`` are not kept.  The radius
    solvers pass a hint below the order statistic they read and draw the
    sample again with ``settle_radius = 0`` when the hint turns out not to
    lie below it (see :func:`cubecover.solvers.empirical_radius_quantile`).
    """
    if n_designs < 1 or n_targets < 1:
        raise ValueError("n_designs and n_targets must be >= 1")
    if not settle_radius >= 0.0:
        raise ValueError(f"settle_radius must be >= 0, got {settle_radius}")
    scheme, n = query.scheme, query.n_points
    out = np.empty((n_designs, n_targets))
    for k in range(n_designs):
        design_stream = stream.child(2 * k)
        points = IidRows(scheme, design_stream, 0, n) if scheme.is_iid else \
            sample_design(scheme, n, design_stream).points
        rows = sample_targets(query.prior, n_targets, stream.child(2 * k + 1)) \
            if targets is None else targets[k]
        out[k] = min_squared_distances(rows, points, threads=threads,
                                       settle=settle_radius * settle_radius)
    return out


def _averaged_estimate(d2: np.ndarray, radius: float) -> CoverageEstimate:
    n_designs, n_targets = d2.shape
    per_design = (d2 <= radius * radius).mean(axis=1)
    value = float(per_design.mean())
    if n_designs > 1:
        se = float(per_design.std(ddof=1) / math.sqrt(n_designs))
    else:
        se = binomial_std_error(value, n_targets)
    return CoverageEstimate(value, se)


def coverage_design_averaged(query: CoverageQuery, n_designs: int, n_targets: int,
                             stream: SeededStream, *, threads: int = 1) -> CoverageEstimate:
    """Mean of the design-conditional estimate over independent design draws.

    Unbiased for E_{X_n} F_d(r, X_n).  Rejected for the Sobol scheme, which is
    deterministic (averaging would be meaningless); the standard error comes
    from the spread across design replicates.
    """
    if query.scheme.kind is SchemeKind.SOBOL_DELTA_CUBE:
        raise ValueError("design averaging over the deterministic Sobol scheme is meaningless")
    d2 = nearest_distance_sample(query, n_designs, n_targets, stream, threads=threads,
                                 settle_radius=query.radius)
    return _averaged_estimate(d2, query.radius)


def coverage_product_form(query: CoverageQuery, n_targets: int,
                          stream: SeededStream) -> CoverageEstimate:
    """Outer Monte Carlo over targets of 1 - (1 - p(U))^n.

    p(U) is the order-1 Edgeworth expansion of
    :func:`cubecover.intersect.ball_probability_batch`, so the only noise is
    that of the targets.  For an i.i.d. design this is the design-averaged
    coverage up to the error of p(U), and (1 - p)^n magnifies that error
    where coverage is decided, p(U) near 1/n: at d = 50, n = 1e5, r = 1.96,
    delta = 1 it reads 0.573 where the design-averaged coverage is 0.903.
    """
    if not query.scheme.is_iid:
        raise ValueError("the product form needs an i.i.d. scheme")
    targets = sample_targets(query.prior, n_targets, stream.child(0))
    p = ball_probability_batch(targets, query.scheme.delta, query.scheme.alpha,
                               query.radius, order=1)
    vals = -np.expm1(query.n_points * np.log1p(-np.minimum(p, 1.0 - 1e-16)))
    value = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_targets)) if n_targets > 1 else 0.0
    return CoverageEstimate(min(max(value, 0.0), 1.0), se)


def _bound(query: CoverageQuery, u_value: float) -> float:
    if not query.scheme.is_iid or query.scheme.alpha != 1.0:
        raise ValueError("Jensen bounds are defined for the i.i.d. uniform scheme")
    if query.prior.alpha != 1.0:
        raise ValueError("Jensen bounds are defined for the uniform target prior")
    u = np.full(query.dimension, u_value)
    p = ball_probability(u, query.scheme.delta, 1.0, query.radius)
    return float(-math.expm1(query.n_points * math.log1p(-min(p, 1.0 - 1e-16))))


def jensen_bound_center(query: CoverageQuery) -> float:
    """Upper bound 1 - (1 - P{||(1/2,...,1/2) - X|| <= r})^n on F_d(r, X_n).

    For r <= delta/2 the inner probability is exactly r^d V_d / delta^d (the
    ball sits inside the cube), so the bound coincides with the asymptotic
    one; otherwise it comes from :func:`cubecover.intersect.ball_probability`.
    """
    return _bound(query, 0.5)


def jensen_bound_refined(query: CoverageQuery) -> float:
    """Refined bound with the center moved to (3/4,...,3/4).

    The ball around 3/4 leaves the cube sooner, so its hit probability is
    smaller and this bound is tighter than the centered one.
    """
    return _bound(query, 0.75)


def _paired_distance_sample(query: CoverageQuery, n_pairs: int, stream: SeededStream) -> np.ndarray:
    """Squared distances ||U - X||^2 of ``n_pairs`` independent (target, point) pairs.

    U follows the prior and X the i.i.d. scheme; ``query.radius`` is not
    read, so a radius sweep draws this once and evaluates each radius with
    :func:`_product_form_estimate`, as :func:`product_form_approximation` does
    for one.

    The targets are the draw of ``sample_targets`` from ``stream.child(0)``
    and the points that of ``draw_delta_cube`` from ``stream.child(1)``.  The
    two generators advance in step, one block of pairs at a time, whose two
    float64 arrays together fit ``cubecover.sampling._MC_BLOCK_BYTES``; each
    distance is a function of its own pair, so the block size does not
    change the result.
    """
    if not query.scheme.is_iid:
        raise ValueError("the product-form approximation needs an i.i.d. scheme")
    if n_pairs < 1:
        raise ValueError("need at least one paired draw")
    d, scheme = query.dimension, query.scheme
    rows = _mc_block_rows(2 * d)  # a block of targets and one of points
    target_gen = stream.child(0).generator()
    points = delta_cube_blocks(stream.child(1).generator(), n_pairs, d, scheme.delta, scheme.alpha, rows)
    out = np.empty(n_pairs)
    for a, x in zip(range(0, n_pairs, rows), points):
        x -= beta_quantile(query.prior.alpha, target_gen.random(x.shape))
        out[a:a + x.shape[0]] = np.square(x, out=x).sum(axis=1)
        del x  # freed before the next block is drawn
    return out


def _product_form_estimate(d2: np.ndarray, radius: float, n_points: int) -> CoverageEstimate:
    n_pairs = d2.size
    p_bar = float(np.count_nonzero(d2 <= radius**2)) / n_pairs
    n = n_points
    value = -math.expm1(n * math.log1p(-min(p_bar, 1.0 - 1e-16)))
    slope = n * (1.0 - p_bar) ** (n - 1)
    se = slope * binomial_std_error(p_bar, n_pairs)
    return CoverageEstimate(min(max(value, 0.0), 1.0), se)


def product_form_approximation(query: CoverageQuery, n_pairs: int,
                               stream: SeededStream) -> CoverageEstimate:
    """1 - (1 - p_bar)^n with p_bar = P_{U,X}{||U - X|| <= r} from paired draws.

    Not a bound: by convexity of (1-p)^n it overshoots F, tracking it closely
    except deep in the high-coverage tail.  The standard error is the delta
    method applied to the binomial error of p_bar.
    """
    d2 = _paired_distance_sample(query, n_pairs, stream)
    return _product_form_estimate(d2, query.radius, query.n_points)
