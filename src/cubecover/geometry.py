"""Dimension-generic geometry: points, sub-cubes, balls and nearest distances.

Everything here works on plain float64 numpy arrays.  Distances are kept
squared internally; square roots are taken only where an API returns a radius.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "Ball",
    "DeltaCube",
    "as_point",
    "first_hit_index",
    "log_unit_ball_volume",
    "min_distance_to_set",
    "min_squared_distances",
    "squared_distance",
    "unit_ball_volume",
]

# Nearest-distance engine switches from a KD-tree to blocked BLAS products
# above this dimension (KD-trees degrade to brute force in high d).
_KDTREE_MAX_DIM = 10


def log_unit_ball_volume(d: int) -> float:
    """Natural log of V_d = pi^(d/2) / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)


def unit_ball_volume(d: int) -> float:
    """Volume of the unit Euclidean ball in R^d.

    Evaluated in log space: the Gamma function itself overflows double
    precision long before the volume underflows, so ``pi**(d/2)/gamma(...)``
    is unusable for large ``d`` while ``exp(log V_d)`` is fine.
    """
    return math.exp(log_unit_ball_volume(d))


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 coordinate vector."""
    p = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"a point must be a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    if dim is not None and p.size != dim:
        raise ValueError(f"point has dimension {p.size}, expected {dim}")
    return p


@dataclass(frozen=True)
class DeltaCube:
    """The cube C_delta = [1/2 - delta/2, 1/2 + delta/2]^d; delta=1 is [0,1]^d."""

    delta: float
    dimension: int

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")

    @property
    def lower(self) -> float:
        return 0.5 - 0.5 * self.delta

    @property
    def upper(self) -> float:
        return 0.5 + 0.5 * self.delta

    def contains(self, x) -> bool:
        p = as_point(x, self.dimension)
        return bool(np.all(p >= self.lower) and np.all(p <= self.upper))

    def farthest_corner_distance(self, x) -> float:
        """Distance from ``x`` to the corner of the cube farthest from it."""
        p = as_point(x, self.dimension)
        reach = np.maximum(np.abs(p - self.lower), np.abs(self.upper - p))
        return math.sqrt(float(np.dot(reach, reach)))


@dataclass(frozen=True)
class Ball:
    """Euclidean ball with a fixed center and nonnegative radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")

    def contains(self, x) -> bool:
        p = as_point(x, self.center.size)
        return squared_distance(p, self.center) <= self.radius**2


def squared_distance(a, b) -> float:
    """Sum of squared coordinate differences between two points."""
    pa, pb = as_point(a), as_point(b)
    if pa.size != pb.size:
        raise ValueError(f"dimension mismatch: {pa.size} vs {pb.size}")
    diff = pa - pb
    return float(np.dot(diff, diff))


def min_distance_to_set(u, points) -> float:
    """Distance from ``u`` to the nearest point of a nonempty point set.

    Single-query path, computed in float64 (the blocked float32 engine is for
    bulk queries).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] == 0:
        raise ValueError("point set is empty")
    diff = pts - as_point(u, pts.shape[1])
    return math.sqrt(float(np.min(np.einsum("ij,ij->i", diff, diff))))


def _map_chunks(fn, n_items: int, chunk: int, threads: int) -> list:
    """Apply ``fn(start, stop)`` over fixed chunks, optionally in threads.

    The chunk schedule is a pure function of (n_items, chunk), and results are
    combined in chunk order, so the output never depends on ``threads``.
    """
    spans = [(i, min(i + chunk, n_items)) for i in range(0, n_items, chunk)]
    if threads <= 1 or len(spans) == 1:
        return [fn(a, b) for a, b in spans]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda s: fn(*s), spans))


class _CentredExpansion:
    """Blocked float32 evaluation of ||u - x||^2 around the cube's centre.

    With u' = u - 1/2 and x' = x - 1/2 the squared distance expands as
    ||u'||^2 + (||x'||^2 - 2 u'.x').  Each tile is the bracket for a block of
    targets against ``point_chunk`` points: one GEMM against the points with
    the -2 folded in, plus ||x'||^2 added in place, so a tile costs a single
    float32 temporary.  Callers add ||u'||^2 after reducing over the points.

    Centring halves each coordinate's magnitude, and the rounding error of the
    expansion is of order eps32 * d * (||u'||^2 + ||x'||^2) (Higham, Accuracy
    and Stability of Numerical Algorithms, sec. 3.1), so it shrinks about
    four-fold against the uncentred form on [0, 1]^d.
    """

    def __init__(self, points: np.ndarray, point_chunk: int):
        self.pm2, self.pnorm = self.centre(points)
        self.pm2 *= np.float32(-2.0)
        self.n = points.shape[0]
        self.point_chunk = point_chunk

    @staticmethod
    def centre(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``x - 1/2`` as contiguous float32, with its squared row norms."""
        c = np.ascontiguousarray(x - 0.5, dtype=np.float32)
        return c, np.einsum("ij,ij->i", c, c)

    def tile(self, t: np.ndarray, j: int) -> np.ndarray:
        """||x'||^2 - 2 u'.x' for centred targets ``t`` and the chunk at point ``j``."""
        chunk = slice(j, j + self.point_chunk)
        out = t @ self.pm2[chunk].T
        out += self.pnorm[chunk]
        return out


def min_squared_distances(
    targets,
    points,
    *,
    threads: int = 1,
    target_chunk: int = 1024,
    point_chunk: int = 4096,
    engine: str = "auto",
) -> np.ndarray:
    """Squared distance from each target to its nearest point in ``points``.

    Parameters
    ----------
    targets, points : arrays of shape (m, d) and (n, d)
    threads : worker threads over target chunks; does not affect the result.
    engine : "auto", "kdtree" or "blas".  The BLAS engine expands
        ||u - x||^2 = ||u'||^2 - 2 u'.x' + ||x'||^2 about the cube's centre
        (u' = u - 1/2, x' = x - 1/2) in float32 tiles, which is the only
        practical option in high dimension; "auto" uses a KD-tree for d <= 10.
        Its error against float64 is of order
        eps32 * d * (||u'||^2 + max ||x'||^2), eps32 = 2**-23.

    Returns
    -------
    float64 array of shape (m,), clipped at zero.
    """
    T = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if P.shape[0] == 0:
        raise ValueError("point set is empty")
    if T.shape[1] != P.shape[1]:
        raise ValueError(f"dimension mismatch: {T.shape[1]} vs {P.shape[1]}")

    if engine == "auto":
        engine = "kdtree" if P.shape[1] <= _KDTREE_MAX_DIM and P.shape[0] >= 32 else "blas"

    if engine == "kdtree":
        dist, _ = cKDTree(P).query(T, k=1, workers=max(threads, 1))
        return np.asarray(dist, dtype=np.float64) ** 2
    if engine != "blas":
        raise ValueError(f"unknown engine {engine!r}")

    ex = _CentredExpansion(P, point_chunk)

    def block(a: int, b: int) -> np.ndarray:
        t, tnorm = ex.centre(T[a:b])
        best = np.full(b - a, np.inf, dtype=np.float32)
        for j in range(0, ex.n, point_chunk):
            np.minimum(best, ex.tile(t, j).min(axis=1), out=best)
        best += tnorm
        return best

    parts = _map_chunks(block, T.shape[0], target_chunk, threads)
    return np.maximum(np.concatenate(parts).astype(np.float64), 0.0)


def first_hit_index(
    targets,
    points,
    radius: float,
    *,
    threads: int = 1,
    target_chunk: int = 1024,
    point_chunk: int = 4096,
) -> np.ndarray:
    """1-based index of the first point within ``radius`` of each target.

    Targets never hit get the sentinel ``n + 1``.  Treating ``points`` as the
    prefix-ordered draw of a growing design, ``first_hit <= n`` is exactly
    "covered by the first n points", which makes coverage monotone in n under
    common random numbers.  Hit decisions are made in float32 with the
    centred expansion of ``min_squared_distances``, so a pair within its
    rounding error of ``radius`` may be decided either way.
    """
    T = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if T.shape[1] != P.shape[1]:
        raise ValueError(f"dimension mismatch: {T.shape[1]} vs {P.shape[1]}")
    ex = _CentredExpansion(P, point_chunk)
    r2 = np.float32(float(radius) ** 2)

    def block(a: int, b: int) -> np.ndarray:
        t, tnorm = ex.centre(T[a:b])
        slack = r2 - tnorm  # hit iff ||x'||^2 - 2 u'.x' <= r^2 - ||u'||^2
        hit = np.full(b - a, ex.n + 1, dtype=np.int64)
        active = np.arange(b - a)
        for j in range(0, ex.n, point_chunk):
            if active.size == 0:
                break
            hits = ex.tile(t[active], j) <= slack[active, None]
            got = hits.any(axis=1)
            if got.any():
                rows = active[got]
                hit[rows] = j + 1 + np.argmax(hits[got], axis=1)
                active = active[~got]
        return hit

    parts = _map_chunks(block, T.shape[0], target_chunk, threads)
    return np.concatenate(parts)
