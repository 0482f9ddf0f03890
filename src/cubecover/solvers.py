"""Sample-size and radius solvers.

Closed forms: the classical hitting count n_gamma, its asymptotic version
(-ln gamma)/(eps^d V_d), the worst-case count for decaying mixture weights
alpha_j = 1/j (returned as log10 -- the values are astronomically large), and
the asymptotic covering radius r_{n,1-gamma}.  Monte Carlo solvers: the
empirical radius quantile, the best-delta radius, the radius table's cell,
the coverage-vs-delta sweep, and the smallest n reaching coverage 1-gamma.
Each draws its sample once under common random numbers: the three delta
searches (radius, coverage sweep and n_gamma) read one stream at every delta,
so they compare deltas on paired draws.  The radius and n solvers read their
answer off the sample as an exact order statistic instead of bisecting for
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coverage import CoverageQuery, coverage_design_averaged, nearest_distance_sample
from .estimates import CoverageEstimate
from .geometry import first_hit_index, log_unit_ball_volume
from .sampling import IidRows, SamplingScheme, TargetPrior, sample_targets
from .streams import SeededStream

__all__ = [
    "DeltaSweepResult",
    "LargeCount",
    "NGammaResult",
    "RadiusCell",
    "asymptotic_coverage",
    "asymptotic_radius",
    "default_delta_grid",
    "delta_sweep",
    "empirical_n_gamma",
    "empirical_n_gamma_best_delta",
    "empirical_radius_quantile",
    "n_gamma_asymptotic",
    "n_gamma_classical",
    "radius_best_delta",
    "radius_table_cell",
    "worst_case_n_mixture",
]

_LOG10_MAX = math.log10(np.finfo(np.float64).max)


def _checked_gamma(gamma) -> float:
    """The miss level gamma as a float in (0, 1); coverage targets are 1 - gamma."""
    g = float(gamma)
    if not 0.0 < g < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {g}")
    return g


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
    g = _checked_gamma(gamma)
    return max(1, math.ceil(math.log(g) / math.log1p(-p)))


def n_gamma_asymptotic(d: int, epsilon: float, gamma) -> LargeCount:
    """(-ln gamma) / (eps^d V_d), the classical asymptotic requirement.

    Computed in log space; use ``.value`` when it fits in a float and
    ``.log10`` always.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    g = _checked_gamma(gamma)
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
    g = _checked_gamma(gamma)
    log_pb = d * math.log(epsilon) + log_unit_ball_volume(d)
    return (-math.log(g)) * math.exp(-log_pb) / math.log(10.0)


def asymptotic_radius(d: int, n: int, gamma) -> float:
    """r_{n,1-gamma} = (nV_d)^(-1/d) t_{1-gamma}: the radius at which n balls
    asymptotically cover a 1-gamma volume fraction."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    g = _checked_gamma(gamma)
    log_r = (math.log(-math.log(g)) - math.log(n) - log_unit_ball_volume(d)) / d
    return math.exp(log_r)


def asymptotic_coverage(d: int, n: int, r: float) -> float:
    """1 - exp(-n V_d r^d): the coverage n balls of radius r reach asymptotically,
    the limit law F(n^{1/d} V_d^{1/d} r) of the scaled nearest distance."""
    if r <= 0:
        return 0.0
    return -math.expm1(-n * math.exp(log_unit_ball_volume(d) + d * math.log(r)))


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
    threads: int = 1,
    hint: float = 0.0,
) -> float:
    """Smallest radius at which design-averaged coverage reaches 1 - gamma.

    The nearest-distance sample is drawn once, so the coverage curve is the
    empirical cdf of the pooled distances and the radius is its
    ceil((1-gamma) N)-th order statistic, exactly.

    ``hint`` is a guess at a radius below the answer; it changes the run
    time, never the result.  The sample is drawn with ``settle_radius=hint``,
    and if ``hint**2`` turns out not to lie below the order statistic it is
    drawn again in full (see :func:`_ranked_sample`).
    """
    g = _checked_gamma(gamma)
    query = CoverageQuery(d, 0.0, n, scheme, prior)
    return _exact_radius(_ranked_sample(query, n_designs, n_targets, stream, g, hint, threads), g)


def _ranked_sample(query: CoverageQuery, n_designs: int, n_targets: int, stream: SeededStream,
                   g: float, hint: float, threads: int) -> np.ndarray:
    """A nearest-distance sample whose ceil((1-gamma) N)-th value is the full scan's.

    The sample is drawn with ``settle_radius=hint``.  Targets within ``hint``
    of the design may then keep a partial minimum, but it stays
    ``<= hint**2`` and every value above ``hint**2`` is bit for bit the full
    scan's.  So the count of values ``<= hint**2`` is the full scan's, and
    when it is below the rank k, the k-th value lies above ``hint**2`` and
    is exact.  Otherwise the sample is drawn again with ``settle_radius=0``.
    """
    d2 = nearest_distance_sample(query, n_designs, n_targets, stream, threads=threads,
                                 settle_radius=hint)
    if hint > 0.0 and np.count_nonzero(d2 <= hint * hint) >= _coverage_rank(g, d2.size):
        d2 = nearest_distance_sample(query, n_designs, n_targets, stream, threads=threads)
    return d2


def _coverage_rank(g: float, size: int) -> int:
    return math.ceil((1.0 - g) * size)


def _coverage_order_statistic(values: np.ndarray, g: float):
    """Smallest v with a fraction >= 1 - gamma of ``values`` at most v."""
    k = _coverage_rank(g, values.size)
    return np.partition(values, k - 1, axis=None)[k - 1]


def _radius_hint(d2: np.ndarray, g: float) -> float:
    """sqrt of the ceil((1 - 2 gamma) N)-th value of ``d2``, or 0 if gamma >= 1/2.

    Read off one sample, it hints a radius solve of the same or a nearby
    cell: a 1 - 2 gamma quantile lies safely below the 1 - gamma one.
    """
    k = math.ceil((1.0 - 2.0 * g) * d2.size)
    return math.sqrt(float(np.partition(d2, k - 1, axis=None)[k - 1])) if k >= 1 else 0.0


def _exact_radius(d2: np.ndarray, g: float) -> float:
    """Smallest float r at which ``d2 <= r * r`` reaches coverage 1 - gamma.

    sqrt(q)**2 rounds below q for about a quarter of float32-valued q, which
    would drop q from the count; one float up restores it.
    """
    q = float(_coverage_order_statistic(d2, g))
    r = math.sqrt(q)
    return math.nextafter(r, math.inf) if r * r < q else r


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
    comparison between deltas is paired.  The scheme is i.i.d.
    p_{alpha,delta}, uniform for alpha = 1.
    """
    grid: list[tuple[float, CoverageEstimate]] = []
    best_delta, best_cov = None, -1.0
    for delta in _checked_delta_grid(deltas):
        scheme = SamplingScheme.beta(d, alpha, delta)
        # the same stream at every delta: the grid is compared on coupled
        # draws, not refreshed ones
        est = coverage_design_averaged(CoverageQuery(d, r, n, scheme, prior), n_designs,
                                       n_targets, stream, threads=threads)
        grid.append((delta, est))
        if est.value >= best_cov:  # >= so ties break toward larger delta
            best_delta, best_cov = delta, est.value
    return DeltaSweepResult(grid, best_delta, best_cov)


def _checked_delta_grid(deltas) -> list[float]:
    grid = sorted(float(x) for x in deltas)
    if not grid:
        raise ValueError("delta grid is empty")
    if any(not 0.0 < x <= 1.0 for x in grid):
        raise ValueError("all deltas must lie in (0, 1]")
    return grid


def radius_best_delta(d: int, n: int, gamma, deltas, stream: SeededStream, *,
                      n_targets: int = 20_000, threads: int = 1) -> tuple[float, float]:
    """(delta*, radius): the delta minimizing the empirical 1-gamma radius.

    One uniform design per delta, with the same stream at every delta so the
    grid is compared on coupled draws; ties go to the larger delta.  The grid
    is walked from the largest delta down, and each delta's sample is drawn
    with the previous delta's 1 - 2 gamma quantile as a hint (none for the
    first delta, or when gamma >= 1/2).  As in
    :func:`empirical_radius_quantile`, a hint that turns out not to lie below
    the order statistic makes the sample be drawn again in full, so every
    radius is the unhinted one.
    """
    delta, r, _, _ = _radius_walk(d, n, _checked_gamma(gamma), deltas, stream, n_targets, threads)
    return delta, r


def _radius_walk(d: int, n: int, g: float, deltas, stream: SeededStream, n_targets: int,
                 threads: int) -> tuple[float, float, np.ndarray, np.ndarray]:
    """:func:`radius_best_delta`, with the samples at the largest delta and at delta*."""
    best_delta, best_r, best, first = None, math.inf, None, None
    hint = 0.0
    for delta in reversed(_checked_delta_grid(deltas)):
        query = CoverageQuery.uniform(d, 0.0, n, delta)
        d2 = _ranked_sample(query, 1, n_targets, stream, g, hint, threads)
        r = _exact_radius(d2, g)
        if r < best_r:  # strict, walking down, so ties break toward larger delta
            best_delta, best_r, best = delta, r, d2
        if first is None:
            first = d2
        hint = _radius_hint(d2, g)
    return best_delta, best_r, first, best


@dataclass(frozen=True)
class RadiusCell:
    """One row of the radius table: the 1-gamma radius on [0,1]^d and on the
    best delta-cube, and that delta."""

    r_full_cube: float
    r_delta_cube: float
    delta_star: float


def radius_table_cell(d: int, n: int, gamma, deltas, stream: SeededStream, *,
                      n_targets: int = 20_000, n_designs: int = 2, sweep_targets: int = 5000,
                      threads: int = 1) -> RadiusCell:
    """The radius table's cell (d, n), on the children 0, 1 and 2 of ``stream``.

    delta* is :func:`radius_best_delta` with ``sweep_targets`` targets on
    child 1.  The two radii are :func:`empirical_radius_quantile` at the full
    budget, at delta = 1 on child 0 and at delta* on child 2.  The sweep runs
    first, so its samples at delta = 1 (when the grid has it) and at delta*
    hint the two radius solves; the hints change the run time only.
    """
    g = _checked_gamma(gamma)
    grid = _checked_delta_grid(deltas)
    best_delta, _, first, best = _radius_walk(d, n, g, grid, stream.child(1), sweep_targets,
                                              threads)
    prior = TargetPrior.uniform(d)
    full_hint = _radius_hint(first, g) if grid[-1] == 1.0 else 0.0
    r_full = empirical_radius_quantile(d, n, SamplingScheme.uniform(d, 1.0), prior, g,
                                       stream.child(0), n_targets=n_targets, n_designs=n_designs,
                                       threads=threads, hint=full_hint)
    r_best = empirical_radius_quantile(d, n, SamplingScheme.uniform(d, best_delta), prior, g,
                                       stream.child(2), n_targets=n_targets, n_designs=n_designs,
                                       threads=threads, hint=_radius_hint(best, g))
    return RadiusCell(r_full, r_best, best_delta)


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
    coverage of an n-point prefix is the fraction of first hits <= n, so the
    answer is the pooled ceil((1-gamma) N)-th smallest first hit, with common
    random numbers in n by construction.  Coverage that cannot reach
    1 - gamma by ``n_cap`` yields the infeasible marker.
    """
    if r <= 0:
        raise ValueError(f"radius must be > 0, got {r}")
    if not scheme.is_iid:
        raise ValueError("empirical_n_gamma needs an i.i.d. scheme")
    if n_cap < 1:
        raise ValueError(f"n_cap must be >= 1, got {n_cap}")
    if n_designs < 1:
        raise ValueError(f"n_designs must be >= 1, got {n_designs}")
    g = _checked_gamma(gamma)
    prior = TargetPrior.uniform(d)

    hit_chunks: list[np.ndarray] = []
    for k in range(n_designs):
        targets = sample_targets(prior, n_targets, stream.child(2 * k + 1))
        hit_chunks.append(_first_hit_growing(scheme, targets, r, g, stream.child(2 * k), n_cap, threads))
    hits = np.concatenate(hit_chunks)

    n_star = int(_coverage_order_statistic(hits, g))
    if n_star > n_cap:
        return NGammaResult(None, scheme.delta, "infeasible")
    return NGammaResult(n_star, scheme.delta, "ok")


def _first_hit_growing(scheme: SamplingScheme, targets: np.ndarray, r: float, g: float,
                       stream: SeededStream, n_cap: int, threads: int) -> np.ndarray:
    """First-hit design indices against one growing prefix design.

    Targets farther than r from the whole delta-cube can never be hit; they
    keep the sentinel without entering any distance computation, and if they
    alone exceed the allowed miss fraction the cell is infeasible outright.

    Blocks double from 1024 points up to 2**16, so peak memory does not grow
    with ``n_cap``.  Each block is the next rows of the stream's i.i.d.
    design (its offset is a multiple of 1024 rows), passed to the kernel as
    an :class:`IidRows` row source, so it is drawn one stage at a time into
    the kernel's float32 rows (two stages, 6.7 MB at d = 50 with two
    threads, for any block) with no float64 copy.  First hits are exact
    over prefixes, so the block schedule does not change the result.
    """
    n_targets = targets.shape[0]
    allowed_misses = math.floor(g * n_targets)
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
        sub = first_hit_index(targets[unhit], IidRows(scheme, stream, grown, grown + m), r,
                              threads=threads)
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
    deltas=None,
    n_targets: int = 10_000,
    n_designs: int = 2,
    n_cap: int = 2**22,
    threads: int = 1,
) -> tuple[NGammaResult, list[tuple[float, NGammaResult]]]:
    """Minimize n_gamma over a delta grid of uniform schemes; ties break toward larger delta.

    Every delta reads ``stream`` itself, so the grid is compared on common
    random numbers, and each "ok" cell is :func:`empirical_n_gamma` at that
    delta on ``stream``.  The grid is walked from the largest delta down.  The
    first cell searches up to ``n_cap``, and every later cell only up to the
    incumbent best n (a cell that cannot beat the incumbent cannot be the
    argmin), which keeps hopeless cells from growing designs to ``n_cap``.
    Cells cut off by the incumbent are listed as "pruned".

    A best cell with n <= 1 is reported as NA/"degenerate": one point already
    covers the required fraction, so there is no sampling scheme left to tune.
    """
    grid = _checked_delta_grid(default_delta_grid() if deltas is None else deltas)[::-1]
    per_delta: list[tuple[float, NGammaResult]] = []
    best: NGammaResult | None = None
    cap = n_cap
    for delta in grid:
        scheme = SamplingScheme.uniform(d, delta)
        res = empirical_n_gamma(d, r, scheme, gamma, stream,
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
