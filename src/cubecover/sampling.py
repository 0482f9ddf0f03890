"""Point-placement schemes and target priors.

Design points live in the delta-cube C_delta = [1/2-delta/2, 1/2+delta/2]^d.
Supported schemes: i.i.d. points with the product density p_{alpha,delta} on
C_delta, Sobol points rescaled into C_delta, and the vertex design (centre of
[0,1]^d plus random distinct vertices of [1/4, 3/4]^d).  Targets have i.i.d.
symmetric Beta(alpha, alpha) coordinates on [0,1]^d.  In both laws alpha = 1
*is* the uniform one (alpha < 1 is bowl-shaped), so an i.i.d. scheme is
described by (delta, alpha) alone and a prior by alpha alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .sobol import sobol_points
from .streams import SeededStream

# Largest float64 block of i.i.d. draws that a Monte Carlo loop holds at once:
# the ball-probability oracle and the paired (target, point) sample.  Their
# peak memory is set by this, not by the number of draws.
_MC_BLOCK_BYTES = 16 << 20

# Float64 piece of a row source: the distance kernels round each piece into
# float32 rows before the next is drawn, so a worker holds one piece of about
# this size.  At d = 50 a piece is 1310 rows, 524 KB.
_PIECE_BYTES = 512 << 10

__all__ = [
    "Design",
    "IidRows",
    "SamplingScheme",
    "SchemeKind",
    "TargetPrior",
    "hamming_threshold",
    "min_hamming_vertex_design",
    "sample_design",
    "sample_targets",
]


def _mc_block_rows(width: int) -> int:
    """Rows of ``width`` float64 values that fit ``_MC_BLOCK_BYTES``; at least one."""
    return max(1, _MC_BLOCK_BYTES // (8 * width))


class SchemeKind(enum.Enum):
    """How design points are placed; the i.i.d. law itself is ``alpha``."""

    IID_DELTA_CUBE = "iid"
    SOBOL_DELTA_CUBE = "sobol"
    VERTEX_DESIGN = "vertex"


@dataclass(frozen=True)
class SamplingScheme:
    """How design points are placed inside the delta-cube.

    ``alpha`` is the Beta(alpha, alpha) shape of the i.i.d. scheme, with
    alpha = 1 the uniform law; the Sobol and vertex designs take none.
    """

    kind: SchemeKind
    dimension: int
    delta: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.is_iid and self.alpha != 1.0:
            raise ValueError(f"alpha applies only to the i.i.d. scheme, got {self.kind.value} "
                             f"with alpha = {self.alpha}")
        if self.kind is SchemeKind.VERTEX_DESIGN and self.delta != 0.5:
            raise ValueError("the vertex design uses the fixed cube [1/4, 3/4]^d (delta = 1/2)")

    @classmethod
    def uniform(cls, dimension: int, delta: float = 1.0) -> "SamplingScheme":
        return cls(SchemeKind.IID_DELTA_CUBE, dimension, delta)

    @classmethod
    def beta(cls, dimension: int, alpha: float, delta: float = 1.0) -> "SamplingScheme":
        return cls(SchemeKind.IID_DELTA_CUBE, dimension, delta, alpha)

    @classmethod
    def sobol(cls, dimension: int, delta: float = 1.0) -> "SamplingScheme":
        return cls(SchemeKind.SOBOL_DELTA_CUBE, dimension, delta)

    @classmethod
    def vertex(cls, dimension: int) -> "SamplingScheme":
        return cls(SchemeKind.VERTEX_DESIGN, dimension, 0.5)

    @property
    def is_iid(self) -> bool:
        return self.kind is SchemeKind.IID_DELTA_CUBE


@dataclass(frozen=True)
class TargetPrior:
    """Distribution of the unknown target point on [0,1]^d: i.i.d.
    Beta(alpha, alpha) coordinates, with alpha = 1 the uniform prior."""

    dimension: int
    alpha: float = 1.0

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")

    @classmethod
    def uniform(cls, dimension: int) -> "TargetPrior":
        return cls(dimension)

    @classmethod
    def product_beta(cls, dimension: int, alpha: float) -> "TargetPrior":
        return cls(dimension, alpha)


@dataclass(frozen=True)
class Design:
    """An ordered point set, shape (n, d)."""

    points: np.ndarray
    shortfall: bool = False  # Hamming design could not reach n_max

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if pts.shape[0] < 1:
            raise ValueError("a design needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("design coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def beta_quantile(alpha: float, u: np.ndarray) -> np.ndarray:
    """Inverse cdf of the symmetric Beta(alpha, alpha) law on [0,1].

    alpha = 1 short-circuits to the identity and alpha = 1/2 to the arcsine
    closed form sin^2(pi u / 2); anything else goes through the regularized
    incomplete-beta inverse.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if alpha == 1.0:
        return u
    if alpha == 0.5:
        return np.square(np.sin(0.5 * np.pi * u))
    from scipy.special import betaincinv  # slow to import; most runs never get here

    return betaincinv(alpha, alpha, u)


def draw_delta_cube(gen: np.random.Generator, n: int, dimension: int, delta: float, alpha: float = 1.0) -> np.ndarray:
    """n i.i.d. points with density p_{alpha,delta} per coordinate.

    A Beta(alpha, alpha) variable mapped affinely onto C_delta has exactly
    that density; alpha = 1 degenerates to the uniform draw on C_delta.
    The map 0.5 + delta * (x - 0.5) runs in place on the fresh draw, with the
    same three roundings as the out-of-place expression.
    """
    x = beta_quantile(alpha, gen.random((n, dimension)))
    x -= 0.5
    x *= delta
    x += 0.5
    return x


def delta_cube_blocks(gen: np.random.Generator, n: int, dimension: int, delta: float,
                      alpha: float, rows: int):
    """``draw_delta_cube(gen, n, ...)`` as consecutive blocks of at most ``rows`` rows.

    Consecutive draws from one generator continue one sequence, and every
    value is a function of its own double, so the blocks stacked are bit for
    bit the single draw.
    """
    for a in range(0, n, rows):
        yield draw_delta_cube(gen, min(rows, n - a), dimension, delta, alpha)


@dataclass(frozen=True)
class IidRows:
    """Rows ``start..stop-1`` of the i.i.d. design that ``stream`` defines, drawn on demand.

    Row i takes doubles i*d .. (i+1)*d - 1 of ``stream.generator()``, so
    ``rows(a, b)`` is rows ``start+a .. start+b-1`` of
    ``draw_delta_cube(stream.generator(), stop, ...)``, drawn from its own
    counter offset.  The distance kernels accept this in place of a point
    array: they take rows a..b-1 from :meth:`pieces` and round each piece
    into float32 before the next is drawn, so the float64 design is never
    held whole.  ``(start + a) * d`` must be a multiple of 4 (see
    :meth:`SeededStream.generator_at`).
    """

    scheme: SamplingScheme
    stream: SeededStream
    start: int
    stop: int

    def __post_init__(self):
        if not self.scheme.is_iid:
            raise ValueError(f"row sources need an i.i.d. scheme, got {self.scheme.kind.value}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.stop - self.start, self.scheme.dimension

    def rows(self, a: int, b: int) -> np.ndarray:
        d = self.scheme.dimension
        return draw_delta_cube(self.stream.generator_at((self.start + a) * d), b - a, d,
                               self.scheme.delta, self.scheme.alpha)

    def pieces(self, a: int, b: int):
        """:meth:`rows` ``(a, b)`` as consecutive blocks of about ``_PIECE_BYTES``,
        drawn one after another from one generator."""
        d = self.scheme.dimension
        return delta_cube_blocks(self.stream.generator_at((self.start + a) * d), b - a, d,
                                 self.scheme.delta, self.scheme.alpha,
                                 max(1, _PIECE_BYTES // (8 * d)))


def _random_mask(gen: np.random.Generator, dimension: int) -> int:
    """One uniformly random vertex bitmask of the d-cube, bit j from draw j."""
    bits = gen.integers(0, 2, size=dimension)
    return sum(int(b) << j for j, b in enumerate(bits))


def _vertex_masks(gen: np.random.Generator, dimension: int, count: int) -> list[int]:
    """``count`` distinct vertex bitmasks of the d-cube, sampled without replacement."""
    total = 1 << dimension if dimension < 63 else None
    if total is not None and count > total:
        raise ValueError(f"cannot draw {count} distinct vertices of a {dimension}-cube ({total} exist)")
    if total is not None and (dimension <= 20 or 4 * count >= total):
        # Small vertex population: permute and slice, no rejection needed.
        return [int(v) for v in gen.permutation(total)[:count]]
    seen: set[int] = set()
    masks: list[int] = []
    while len(masks) < count:
        m = _random_mask(gen, dimension)
        if m not in seen:
            seen.add(m)
            masks.append(m)
    return masks


def _masks_to_points(masks: list[int], dimension: int) -> np.ndarray:
    bits = np.array([[(m >> j) & 1 for j in range(dimension)] for m in masks], dtype=np.float64)
    return 0.25 + 0.5 * bits  # vertices of [1/4, 3/4]^d


def sample_design(scheme: SamplingScheme, n: int, stream: SeededStream) -> Design:
    """Draw an n-point design according to ``scheme``.

    An i.i.d. design is ``draw_delta_cube(stream.generator(), n, ...)``,
    the rows of :class:`IidRows`.  Sobol designs ignore the
    stream (they are deterministic); the vertex design places the cube
    centre first and then n-1 distinct random vertices of [1/4, 3/4]^d.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 points, got {n}")
    d = scheme.dimension
    if scheme.is_iid:
        pts = IidRows(scheme, stream, 0, n).rows(0, n)
    elif scheme.kind is SchemeKind.SOBOL_DELTA_CUBE:
        pts = 0.5 + scheme.delta * (sobol_points(d, n) - 0.5)
    elif scheme.kind is SchemeKind.VERTEX_DESIGN:
        if d < 63 and n - 1 > (1 << d):
            raise ValueError(f"vertex design infeasible: {n - 1} > 2^{d} vertices")
        gen = stream.generator()
        pts = np.vstack([np.full((1, d), 0.5), _masks_to_points(_vertex_masks(gen, d, n - 1), d)]) \
            if n > 1 else np.full((1, d), 0.5)
    else:  # pragma: no cover
        raise ValueError(f"unknown scheme kind {scheme.kind}")
    return Design(pts)


def sample_targets(prior: TargetPrior, n: int, stream: SeededStream) -> np.ndarray:
    """n prior draws of the target, shape (n, d)."""
    if n < 1:
        raise ValueError(f"need n >= 1 targets, got {n}")
    return beta_quantile(prior.alpha, stream.generator().random((n, prior.dimension)))


def hamming_threshold(dimension: int, n_max: int) -> int:
    """Minimum pairwise Hamming separation floor(d - log2(n_max - 1)) + 1."""
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    return math.floor(dimension - math.log2(n_max - 1)) + 1


def _hamming_max_draws(n_max: int) -> int:
    """Vertex draws :func:`min_hamming_vertex_design` makes at most."""
    return 50 * n_max + 1000


def min_hamming_vertex_design(dimension: int, n_max: int, stream: SeededStream) -> Design:
    """Centre point plus vertices of [1/4, 3/4]^d kept at pairwise Hamming
    distance >= ``hamming_threshold(dimension, n_max)``.

    Vertices are rejection-sampled without replacement, at most
    ``50 n_max + 1000`` draws (``_hamming_max_draws``); when those run
    out before n_max - 1 vertices are found, the design is returned as-is
    with ``shortfall=True``.
    """
    if not 2 <= n_max <= 2**dimension:
        raise ValueError(f"n_max must lie in [2, 2^{dimension}], got {n_max}")
    threshold = hamming_threshold(dimension, n_max)
    budget = _hamming_max_draws(n_max)

    gen = stream.generator()
    accepted: list[int] = []
    tried: set[int] = set()
    draws = 0
    while len(accepted) < n_max - 1 and draws < budget:
        draws += 1
        m = _random_mask(gen, dimension)
        if m in tried:
            continue
        tried.add(m)
        if all(bin(m ^ other).count("1") >= threshold for other in accepted):
            accepted.append(m)

    pts = np.full((1, dimension), 0.5)
    if accepted:
        pts = np.vstack([pts, _masks_to_points(accepted, dimension)])
    return Design(pts, shortfall=len(accepted) < n_max - 1)
