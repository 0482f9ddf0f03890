"""Sample-size and radius solvers.

Closed forms: the classical hitting count n_gamma, its asymptotic version
(-ln gamma)/(eps^d V_d), the worst-case count for decaying mixture weights
alpha_j = 1/j (returned as log10 -- the values are astronomically large), and
the asymptotic covering radius r_{n,1-gamma}.  Monte Carlo solvers: the
empirical radius quantile, the coverage-vs-delta sweep, and the smallest n
reaching coverage 1-gamma, all driven by common random numbers so the curves
being bisected are monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coverage import CoverageQuery, _averaged_estimate, nearest_distance_sample
from .estimates import CoverageEstimate
from .geometry import first_hit_index, log_unit_ball_volume, min_squared_distances
from .sampling import SamplingScheme, TargetPrior, draw_delta_cube, sample_design, sample_targets
from .streams import SeededStream

__all__ = [
    "DeltaSweepResult",
    "GammaLevel",
    "LargeCount",
    "NGammaResult",
    "asymptotic_radius",
    "default_delta_grid",
    "delta_sweep",
    "empirical_n_gamma",
    "empirical_n_gamma_best_delta",
    "empirical_radius_quantile",
    "n_gamma_asymptotic",
    "n_gamma_classical",
    "worst_case_n_mixture",
]

_LOG10_MAX = math.log10(np.finfo(np.float64).max)


@dataclass(frozen=True)
class GammaLevel:
    """Miss level gamma in (0,1); coverage targets are 1 - gamma."""

    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")

    @property
    def one_minus(self) -> float:
        return 1.0 - self.gamma

    def normalized_quantile(self, d: int) -> float:
        """t_{1-gamma} = (-ln gamma)^(1/d), quantile of 1 - exp(-t^d)."""
        return (-math.log(self.gamma)) ** (1.0 / d)


def _as_gamma(gamma) -> GammaLevel:
    return gamma if isinstance(gamma, GammaLevel) else GammaLevel(float(gamma))


@dataclass(frozen=True)
class LargeCount:
    """A count kept in log10 because it may exceed the float range."""

    log10: float

    @property
    def overflowed(self) -> bool:
        return self.log10 > _LOG10_MAX

    @property
    def value(self) -> float:
        return math.inf if self.overflowed else 10.0**self.log10

    def __float__(self) -> float:
        return self.value


def n_gamma_classical(p: float, gamma) -> int:
    """ceil(ln gamma / ln(1 - p)): points needed so a p-probability set is hit
    with probability at least 1 - gamma."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"hit probability must lie strictly in (0, 1), got {p}")
    g = _as_gamma(gamma).gamma
    return max(1, math.ceil(math.log(g) / math.log1p(-p)))


def n_gamma_asymptotic(d: int, epsilon: float, gamma) -> LargeCount:
    """(-ln gamma) / (eps^d V_d), the classical asymptotic requirement.

    Computed in log space; use ``.value`` when it fits in a float and
    ``.log10`` always.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    g = _as_gamma(gamma).gamma
    log10_n = (math.log(-math.log(g)) - d * math.log(epsilon) - log_unit_ball_volume(d)) / math.log(10.0)
    return LargeCount(log10_n)


def worst_case_n_mixture(d: int, epsilon: float, gamma) -> float:
    """log10 of n(gamma) ~ exp(-ln gamma / (eps^d V_d)) for mixture weights 1/j.

    With alpha_j = 1/j, sum alpha_j ~ ln n must reach -ln(gamma)/P_U(B), so
    the worst-case count is exponential in the inverse ball volume.  Returned
    in log10 only; e.g. d=3, eps=0.1, gamma=0.1 gives ~ 10^238.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    g = _as_gamma(gamma).gamma
    log_pb = d * math.log(epsilon) + log_unit_ball_volume(d)
    return (-math.log(g)) * math.exp(-log_pb) / math.log(10.0)


def asymptotic_radius(d: int, n: int, gamma) -> float:
    """r_{n,1-gamma} = (nV_d)^(-1/d) t_{1-gamma}: the radius at which n balls
    asymptotically cover a 1-gamma volume fraction."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    g = _as_gamma(gamma)
    log_r = (math.log(-math.log(g.gamma)) - math.log(n) - log_unit_ball_volume(d)) / d
    return math.exp(log_r)


def empirical_radius_quantile(
    d: int,
    n: int,
    scheme: SamplingScheme,
    prior: TargetPrior,
    gamma,
    stream: SeededStream,
    *,
    n_targets: int = 100_000,
    n_designs: int = 2,
    r_tol: float = 0.005,
    threads: int = 1,
) -> float:
    """Radius at which design-averaged coverage reaches 1 - gamma.

    Bisection on r over the design-averaged estimate; the nearest-distance
    sample is drawn once, so the coverage curve is an exact empirical cdf
    (monotone under common random numbers) and the bracket shrinks to
    ``r_tol`` deterministically.
    """
    g = _as_gamma(gamma)
    query = CoverageQuery(d, 0.0, n, scheme, prior)
    d2 = nearest_distance_sample(query, n_designs, n_targets, stream, threads=threads)
    return _radius_from_sample(d2, g.one_minus, d, r_tol)


def _radius_from_sample(d2: np.ndarray, level: float, d: int, r_tol: float) -> float:
    def coverage(r: float) -> float:
        return float((d2 <= r * r).mean())

    lo, hi = 0.0, 1.0
    diameter = math.sqrt(d)
    while coverage(hi) < level:
        hi *= 2.0
        if hi > 2.0 * diameter:
            raise RuntimeError("coverage level not reachable at any radius (bad sample?)")
    while hi - lo > r_tol:
        mid = 0.5 * (lo + hi)
        if coverage(mid) >= level:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def default_delta_grid(step: float = 0.05) -> list[float]:
    """The delta grid [step, 2*step, ..., 1.0] used for delta optimization."""
    k = round(1.0 / step)
    return [i * step for i in range(1, k + 1)]


@dataclass(frozen=True)
class DeltaSweepResult:
    """Coverage across a delta grid and the best cell (ties go to larger delta)."""

    grid: list[tuple[float, CoverageEstimate]]
    best_delta: float
    best_coverage: float


def delta_sweep(
    d: int,
    n: int,
    r: float,
    prior: TargetPrior,
    alpha: float,
    deltas,
    stream: SeededStream,
    *,
    n_targets: int = 20_000,
    n_designs: int = 1,
    threads: int = 1,
) -> DeltaSweepResult:
    """Design-averaged coverage as a function of delta, at fixed (d, n, r).

    Target draws are shared across the grid (common random numbers), so the
    comparison between deltas is paired.  The scheme is uniform for alpha = 1
    and product-beta otherwise.
    """
    deltas = sorted(float(x) for x in deltas)
    if not deltas:
        raise ValueError("delta grid is empty")
    if any(not 0.0 < x <= 1.0 for x in deltas):
        raise ValueError("all deltas must lie in (0, 1]")

    targets = [sample_targets(prior, n_targets, stream.child(2 * k + 1)) for k in range(n_designs)]
    grid: list[tuple[float, CoverageEstimate]] = []
    best_delta, best_cov = deltas[0], -1.0
    for delta in deltas:
        scheme = SamplingScheme.uniform(d, delta) if alpha == 1.0 else SamplingScheme.beta(d, alpha, delta)
        d2 = np.empty((n_designs, n_targets))
        for k in range(n_designs):
            # same design substream at every delta: the grid is compared
            # on coupled draws, not refreshed ones
            design = sample_design(scheme, n, stream.child(2 * k))
            d2[k] = min_squared_distances(targets[k], design.points, threads=threads)
        est = _averaged_estimate(d2, r)
        grid.append((delta, est))
        if est.value >= best_cov:  # >= so ties break toward larger delta
            best_delta, best_cov = delta, est.value
    return DeltaSweepResult(grid, best_delta, best_cov)


@dataclass(frozen=True)
class NGammaResult:
    """Smallest design size reaching coverage 1 - gamma, or an NA marker.

    status: "ok", "infeasible" (coverage unreachable below n_cap), or
    "degenerate" (the delta-optimized search collapsed to n <= 1, where
    there is no design left to optimize -- reported NA either way).
    """

    n: int | None
    delta: float | None
    status: str = "ok"

    @property
    def is_na(self) -> bool:
        return self.status != "ok"

    def csv_value(self) -> str:
        return "NA" if self.is_na else str(self.n)


def empirical_n_gamma(
    d: int,
    r: float,
    scheme: SamplingScheme,
    gamma,
    stream: SeededStream,
    *,
    n_targets: int = 10_000,
    n_designs: int = 2,
    n_cap: int = 2**22,
    threads: int = 1,
) -> NGammaResult:
    """Smallest n with design-averaged coverage >= 1 - gamma at radius r.

    Uses nested prefix designs: each replicate draws one point sequence, and
    per target we record the first index whose point falls within r.  The
    pooled (1-gamma) quantile of those first-hit indices is precisely the
    integer the doubling-bracket bisection of the coverage curve converges
    to, with common random numbers in n by construction.  Coverage that
    cannot reach 1 - gamma by ``n_cap`` yields the infeasible marker.
    """
    if r <= 0:
        raise ValueError(f"radius must be > 0, got {r}")
    if not scheme.is_iid:
        raise ValueError("empirical_n_gamma needs an i.i.d. scheme")
    g = _as_gamma(gamma)
    prior = TargetPrior.uniform(d)

    hit_chunks: list[np.ndarray] = []
    for k in range(n_designs):
        targets = sample_targets(prior, n_targets, stream.child(2 * k + 1))
        hit_chunks.append(_first_hit_growing(scheme, targets, r, g, stream.child(2 * k), n_cap, threads))
    hits = np.concatenate(hit_chunks)

    # smallest n with pooled coverage >= 1-gamma: order statistic of first hits
    k = math.ceil(g.one_minus * hits.size)
    n_star = int(np.partition(hits, k - 1)[k - 1])
    if n_star > n_cap:
        return NGammaResult(None, scheme.delta, "infeasible")
    return NGammaResult(n_star, scheme.delta, "ok")


def _first_hit_growing(scheme: SamplingScheme, targets: np.ndarray, r: float, g: GammaLevel,
                       stream: SeededStream, n_cap: int, threads: int) -> np.ndarray:
    """First-hit design indices against one growing prefix design.

    Targets farther than r from the whole delta-cube can never be hit; they
    keep the sentinel without entering any distance computation, and if they
    alone exceed the allowed miss fraction the cell is infeasible outright.

    Blocks double from 1024 points up to 2**16 (26 MB of float64 at d = 50),
    so peak memory does not grow with ``n_cap``.  The generator is consumed
    in order and first hits are exact over prefixes, so the block schedule
    does not change the result.
    """
    gen = stream.generator()
    n_targets = targets.shape[0]
    allowed_misses = math.floor(g.gamma * n_targets)
    hits = np.full(n_targets, n_cap + 1, dtype=np.int64)

    half = 0.5 * scheme.delta
    gap = np.maximum(np.abs(targets - 0.5) - half, 0.0)
    reachable = np.einsum("ij,ij->i", gap, gap) <= r * r
    if int(np.count_nonzero(~reachable)) > allowed_misses:
        return hits  # coverage 1-gamma is unreachable at any design size

    unhit = np.flatnonzero(reachable)
    grown = 0
    block = 1024
    while grown < n_cap and unhit.size + (n_targets - int(np.count_nonzero(reachable))) > allowed_misses:
        m = min(block, n_cap - grown)
        pts = draw_delta_cube(gen, m, scheme.dimension, scheme.delta, scheme.effective_alpha)
        sub = first_hit_index(targets[unhit], pts, r, threads=threads)
        found = sub <= m
        if found.any():
            hits[unhit[found]] = grown + sub[found]
            unhit = unhit[~found]
        grown += m
        block = min(2 * block, 1 << 16)
    return hits


def empirical_n_gamma_best_delta(
    d: int,
    r: float,
    gamma,
    stream: SeededStream,
    *,
    alpha: float = 1.0,
    deltas=None,
    n_targets: int = 10_000,
    n_designs: int = 2,
    n_cap: int = 2**22,
    initial_cap: int | None = None,
    threads: int = 1,
) -> tuple[NGammaResult, list[tuple[float, NGammaResult]]]:
    """Minimize n_gamma over a delta grid; ties break toward larger delta.

    The grid is walked from delta = 1 downward and every cell searches only
    up to the incumbent best n (a cell that cannot beat the incumbent cannot
    be the argmin), which keeps hopeless cells from growing designs to
    ``n_cap``.  Cells cut off by the incumbent are listed as "pruned".

    A best cell with n <= 1 is reported as NA/"degenerate": one point already
    covers the required fraction, so there is no sampling scheme left to tune.
    """
    grid = sorted(deltas, reverse=True) if deltas is not None else sorted(default_delta_grid(), reverse=True)
    per_delta: list[tuple[float, NGammaResult]] = []
    best: NGammaResult | None = None
    cap = min(n_cap, initial_cap) if initial_cap else n_cap
    for j, delta in enumerate(grid):
        scheme = SamplingScheme.uniform(d, delta) if alpha == 1.0 else SamplingScheme.beta(d, alpha, delta)
        res = empirical_n_gamma(d, r, scheme, gamma, stream.child(j),
                                n_targets=n_targets, n_designs=n_designs, n_cap=cap, threads=threads)
        if res.status != "ok" and cap < n_cap:
            res = NGammaResult(None, delta, "pruned")
        per_delta.append((delta, res))
        if res.status == "ok" and (best is None or res.n < best.n):
            best = res
            cap = min(cap, res.n)
    per_delta.reverse()
    if best is None:
        best = NGammaResult(None, None, "infeasible")
    elif best.n <= 1:
        best = NGammaResult(best.n, best.delta, "degenerate")
    return best, per_delta
