"""Dimension-generic geometry: points, unit-ball volumes and nearest distances.

Everything here works on plain float64 numpy arrays; the bulk distance
kernels also take a *row source*, an object with ``.shape`` (n, d) and
``.pieces(a, b)`` yielding float64 rows a..b-1 as consecutive blocks, which
they read chunk by chunk.
Distances are kept squared internally; square roots are taken only where an
API returns a radius.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "as_point",
    "first_hit_index",
    "log_unit_ball_volume",
    "min_squared_distances",
    "unit_ball_volume",
]

# Nearest-distance engine switches from a KD-tree to blocked BLAS products
# above this dimension (KD-trees degrade to brute force in high d).
_KDTREE_MAX_DIM = 10

# ``eps`` of the KD-tree engine's settling query: the neighbour it returns is
# within (1 + eps) times the nearest distance (Arya, Mount et al., JACM 1998),
# and the targets it leaves above ``settle`` are queried again exactly, so eps
# sets run time only.  For 8000 targets against 1000 points at d = 10, settled
# at the 80% quantile on 2 threads, eps = 0.5 to 4 took 17-25 ms against 38 ms
# for one exact query, and the distance bound alone (eps = 0) took 44 ms.
_KDTREE_SETTLE_EPS = 1.0

# Row-chunk length in which the BLAS engine's workers fill a stage of point
# rows; fixed, so the chunk schedule depends only on the number of rows.
_ROW_CHUNK = 8192

# Tile shape of both BLAS entry points: blocks of _TARGET_CHUNK targets
# against _POINT_CHUNK points, each block visited (settle test, compaction)
# once per tile.  A tile is multiplied in panels of _PANEL_POINTS points
# against every live target of the block, so at every K = d + 1 a worker
# holds one float32 panel of 256 x 1024, 1 MB, and _POINT_CHUNK sets how
# often a block is visited, not the memory.  _POINT_CHUNK is a multiple of
# 4, so every stage of whole tiles starts at a row a row source can start
# from.
_TARGET_CHUNK = 1024
_POINT_CHUNK = 2048

# Points per panel of a tile.  Each panel's product, 256 x 1024 float32, is
# consumed before the next overwrites it, and a block is visited once
# per tile, so a panel adds only a minimum over its points.  Against whole
# tiles, `coverage --dim 50 --n 100000 --r-grid 1.9:2.0:0.02 --targets 4096
# --bounds --threads 2` peaked at 52.3 MB ru_maxrss against 66.6 MB, with a
# median CPU of 0.80 s against 0.90 s (10 alternating pairs), and
# `ngamma --dim 50 --r-grid 2.0,2.1,2.3 --targets 5000 --threads 2` at
# 58.0 MB against 82.6 MB, with a median CPU of 2.14 s against 1.98 s (5
# seed-matched pairs; 2-core Xeon, OpenBLAS 0.3.31 at one thread).  256-row
# panels of the targets instead cost 7-13% more CPU at d = 50.
_PANEL_POINTS = 256


def __getattr__(name: str):
    # Only the KD-tree engine needs scipy.spatial, which is slow to import, so
    # its class is imported on first use and cached as the module global
    # ``cKDTree``; the KD-tree engine calls whatever that name is bound to.
    if name != "cKDTree":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.spatial import cKDTree

    globals()["cKDTree"] = cKDTree
    return cKDTree


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


def as_point(x) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 coordinate vector."""
    p = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"a point must be a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


def _run(tasks: list, threads: int) -> list:
    """Results of the zero-argument callables ``tasks``, in order.

    With ``threads > 1`` they run in the shared worker pool, and the call
    returns once every one of them has.
    """
    if threads <= 1 or len(tasks) == 1:
        return [task() for task in tasks]
    return list(_pool(threads).map(lambda task: task(), tasks))


def _as_points(points):
    """``(pieces, (n, d), array)`` for ``points``; ``pieces(a, b)`` yields
    float64 rows a..b-1 as consecutive blocks.

    A row source is recognised by its ``.pieces`` method, which becomes
    ``pieces``, and ``array`` is None; this is the one place the module tells
    the two apart, and it needs no import of the types that provide one.
    Anything else is taken as a float64 ``(n, d)`` ``array``, read as one
    slice, and must be finite; a row source is drawn by the package and is
    not checked.
    """
    if hasattr(points, "pieces"):
        return points.pieces, points.shape, None
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not np.isfinite(P).all():
        raise ValueError("point coordinates must be finite")
    return (lambda a, b: (P[a:b],)), P.shape, P


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """One long-lived pool per worker count.

    A fresh pool per call would start new threads each time, and glibc gives
    new threads new malloc arenas, each of which keeps a freed tile resident.
    """
    return ThreadPoolExecutor(max_workers=threads)


def _blocked_rows(rows: int, w: int, k: int) -> int:
    """Fewest target rows, at least ``rows`` and 2, that keep the product of a
    panel of ``w`` points with a ``(rows, k)`` target block out of OpenBLAS's
    small-matrix kernel.

    numpy's ``panel @ block.T`` is OpenBLAS's TN case with M = rows, N = w and
    K = k.  OpenBLAS 0.3.31's SkylakeX permit sends it to the small kernel
    when M·N·K <= 1e6 and either N is 8, 16 or 32, or K >= 32 and
    M·N <= 1200.  :func:`_point_panels` never multiplies 8, 16 or 32 points,
    so only the second clause is padded away here.
    """
    if k >= 32:
        rows = max(rows, min(1200 // w, 1_000_000 // (w * k)) + 1)
    return max(rows, 2)


def _point_panels(w: int) -> list[tuple[int, int, int]]:
    """``(a, b, width)`` for each panel of a tile of ``w`` points: points
    a..b-1, multiplied as ``width`` point rows from row a.

    A panel of 1, 8, 16 or 32 points takes the point row after it along,
    the next point or the row of zeros that ends a stage: one point row would
    make the product a gemv, and 8, 16 or 32 are N values that OpenBLAS's
    SkylakeX permit sends to its small-matrix kernel whatever M and K, while
    M·N·K <= 1e6.
    """
    spans = [(a, min(a + _PANEL_POINTS, w)) for a in range(0, w, _PANEL_POINTS)]
    return [(a, b, b - a + (b - a in (1, 8, 16, 32))) for a, b in spans]


class _Walk:
    """One target block's walk over the point tiles, resumed stage by stage.

    ``t`` holds the block's augmented targets [u', 1] and ``visit`` is as in
    :meth:`_CentredExpansion.sweep`; ``widths`` are the panel widths the walk
    will multiply.  ``n_live`` counts the targets still active.
    """

    def __init__(self, t: np.ndarray, visit, widths: set[int]):
        m, k = t.shape
        self.t, self.visit = t, visit
        # the most rows a product reaches: padding grows as panels narrow,
        # and never falls as rows grow
        self.narrowest = min(widths)
        self.n_rows = _blocked_rows(m, self.narrowest, k)
        self.live = np.ones(m, dtype=bool)
        self.n_live = m
        self.sub = None  # live rows of t in order, then padding; None until rebuilt
        self.rows = None  # indices into the block of the live rows, in order

    def _products(self, points: np.ndarray, buf: np.ndarray):
        """``(a, panel)`` for each panel of the tile ``points``, in point order:
        ``panel`` is the product of its points, from point a, with the live
        targets, one row per point; each is overwritten by the next."""
        k = self.t.shape[1]
        for a, b, width in _point_panels(points.shape[0] - 1):
            size = _blocked_rows(self.n_live, width, k)
            panel = buf[:width * size].reshape(width, size)
            np.matmul(points[a:a + width], self.sub[:size].T, out=panel)
            yield a, panel[:b - a, :self.n_live]

    def __call__(self, tiles: list, panel_buffer) -> None:
        """Visit ``tiles``, each ``(j, points)`` with ``points`` the augmented
        rows from j to the tile's end and one row after it."""
        m, k = self.t.shape
        buf = panel_buffer()
        for j, points in tiles:
            if self.sub is None:
                # compacted rows go to a fresh array of one fixed shape; one
                # kept for the whole sweep left table1's peak memory 8 MB
                # higher at most seeds
                reach = _blocked_rows(self.n_live, self.narrowest, k)
                order = np.argsort(~self.live, kind="stable")[:reach]
                self.rows = order[:self.n_live]
                packed = np.empty((self.n_rows, k), dtype=np.float32)
                packed[m:] = 0.0
                packed[m:, -1] = 1.0
                np.take(self.t, order, axis=0, out=packed[:order.size])
                self.sub = packed
            done = self.visit(j, self.rows, self._products(points, buf))
            if done.any():
                self.live[self.rows[done]] = False
                self.n_live -= int(np.count_nonzero(done))
                self.sub = None
                if self.n_live == 0:
                    return


class _CentredExpansion:
    """Blocked float32 evaluation of ||u - x||^2 around the cube's centre.

    With u' = u - 1/2 and x' = x - 1/2 the squared distance expands as
    ||u'||^2 + (||x'||^2 - 2 u'.x').  The points become augmented rows
    [-2 x', ||x'||^2] and a block of targets [u', 1], so each tile, the
    bracket for the block against ``_POINT_CHUNK`` points, is a single float32
    GEMM with no further pass over it.  Callers add ||u'||^2 after reducing
    over the points.

    :meth:`sweep` fills the point rows one *stage* at a time: whole
    ``_POINT_CHUNK`` tiles, about ``_ROW_CHUNK`` rows per worker thread, so
    every stage starts at a row a row source can start from (see
    :class:`cubecover.sampling.IidRows`).  A worker fills
    ``_ROW_CHUNK`` rows of a stage from the pieces that ``pieces`` (see
    :func:`_as_points`) yields for them, each rounded into float32 before the
    next is drawn, so a row source is never held whole in float64.  Peak
    memory is two stage buffers, and per worker one panel and one float64
    piece, whatever ``n``.  A panel is ``_PANEL_POINTS`` points by the
    ``_TARGET_CHUNK`` targets of a block, 1 MB, at every K = d + 1: see
    :meth:`sweep`.

    Centring halves each coordinate's magnitude, and the rounding error of the
    expansion is of order eps32 * d * (||u'||^2 + ||x'||^2) (Higham, Accuracy
    and Stability of Numerical Algorithms, sec. 3.1), so it shrinks about
    four-fold against the uncentred form on [0, 1]^d.
    """

    def __init__(self, pieces, shape: tuple[int, int], threads: int):
        self.pieces = pieces
        self.n, d = shape
        self.k = d + 1
        self.threads = threads
        self.stage = max(1, round(_ROW_CHUNK * threads / _POINT_CHUNK)) * _POINT_CHUNK

    @staticmethod
    def centre(x: np.ndarray, aug: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """float32 rows ``[x - 1/2, 1]``, with a view of their centred part.

        The subtraction runs in float64 and is rounded once into the float32
        buffer (``aug`` if given), without a float64 temporary of the block.
        Every value is a function of its own row alone.
        """
        if aug is None:
            aug = np.empty((x.shape[0], x.shape[1] + 1), dtype=np.float32)
        aug[:, -1] = 1.0
        c = aug[:, :-1]
        np.subtract(x, 0.5, out=c, casting="unsafe")
        return aug, c

    def targets(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Augmented centred targets ``[u - 1/2, 1]`` and their ||u'||^2."""
        t, c = self.centre(u)
        return t, np.einsum("ij,ij->i", c, c)

    def _fill(self, buf: np.ndarray, lo: int, a: int, b: int) -> None:
        """Point rows a..b-1 as [-2 x', ||x'||^2], into ``buf`` from its row a - lo."""
        for piece in self.pieces(a, b):
            rows = buf[a - lo:a - lo + piece.shape[0]]
            _, x = self.centre(piece, rows)
            rows[:, -1] = np.einsum("ij,ij->i", x, x)
            x *= np.float32(-2.0)
            a += piece.shape[0]
            del piece  # freed before the next piece is drawn

    def _stage(self, buf: np.ndarray, lo: int, hi: int) -> tuple[list, list]:
        """The tasks that fill points lo..hi-1 into ``buf``, and the tiles they make.

        After the points comes one row of zeros: see :meth:`sweep`.
        """
        buf[hi - lo] = 0.0
        fills = [functools.partial(self._fill, buf, lo, a, min(a + _ROW_CHUNK, hi))
                 for a in range(lo, hi, _ROW_CHUNK)]
        # each tile with the row after it, the next point or the row of zeros
        tiles = [(j, buf[j - lo:min(j + _POINT_CHUNK, hi) - lo + 1])
                 for j in range(lo, hi, _POINT_CHUNK)]
        return fills, tiles

    def sweep(self, targets: np.ndarray, start) -> None:
        """Walk the point tiles for every ``_TARGET_CHUNK``-row block of
        ``targets``, dropping finished rows.

        ``start(tnorm)`` is called once per block, in order, with the block's
        ||u'||^2, and returns the block's ``visit(j, rows, panels)``.  That
        gets the point offset ``j`` of a tile, the indices ``rows`` into the
        block of the targets still active, in order, and an iterator over the
        tile's panels, in point order: ``(a, panel)`` with ``panel`` the
        float32 ||x'||^2 - 2 u'.x' of points j + a, j + a + 1, ... (one row
        each) against the targets ``rows`` (one column each), valid until the
        next panel is drawn.  It returns a boolean mask over ``rows`` of the
        targets that need no later tile.  A block stops once none of its
        targets is active, and the sweep once no block is.

        Stages go in order.  Every active block walks the tiles of one stage
        while the next stage is filled into the other buffer, all as tasks of
        one batch in the worker pool; a worker reuses one panel buffer for
        all its panels.  A block walks its tiles in order, so the schedule
        never changes what a visit sees.

        A tile is multiplied in panels of ``_PANEL_POINTS`` points against
        all active rows of the block, in order; the block drops its finished
        rows after the visit, once per tile.  Each panel's product is padded
        with the target rows after the active ones (finished, then inert rows
        [0...0, 1]) to the row count of :func:`_blocked_rows`, and a panel of
        1, 8, 16 or 32 points with the point row after it, which is the next
        point or the row of zeros that ends each stage; the padding is not
        passed on.  Its rows are finite: the GEMM kernel multiplies the zeros
        it packs beyond the last target row with every point row, and an
        infinite point row would raise the invalid-operation flag.  BLAS
        sends one-row or one-column products to gemv and small products to
        OpenBLAS's small-matrix kernel; both round differently from the
        blocked GEMM, which gives a (target, point) pair the same bits
        whichever rows share its product.  So a target's values are bit for
        bit the ones it gets in a full block with no row dropped out, whatever
        the shape of its own block, of the panels, of the last point chunk or
        of the stages.
        """
        n, pc = self.n, _POINT_CHUNK
        widths = {width for j in range(0, n, pc)
                  for _, _, width in _point_panels(min(j + pc, n) - j)}
        walks = []
        for a in range(0, targets.shape[0], _TARGET_CHUNK):
            t, tnorm = self.targets(targets[a:a + _TARGET_CHUNK])
            walks.append(_Walk(t, start(tnorm), widths))
        if not walks:
            return
        # one buffer per worker for all its panels, sized for the largest
        # product of the first block, the largest: whole tiles allocated
        # afresh left about 8 MB more resident at d = 50, n = 1e5
        rows = walks[0].t.shape[0]
        size = max(w * _blocked_rows(rows, w, self.k) for w in widths)
        panel_buffers: dict[int, np.ndarray] = {}

        def panel_buffer() -> np.ndarray:
            buf = panel_buffers.get(threading.get_ident())
            if buf is None:
                buf = panel_buffers[threading.get_ident()] = np.empty(size, dtype=np.float32)
            return buf

        stages = [(lo, min(lo + self.stage, n)) for lo in range(0, n, self.stage)]
        buffers = [np.empty((min(self.stage, n) + 1, self.k), dtype=np.float32) for _ in stages[:2]]
        for s in range(len(stages) + 1):
            batch = []
            if s:  # walk the tiles of the stage filled last
                batch = [functools.partial(walk, tiles, panel_buffer) for walk in walks if walk.n_live]
                if not batch:
                    return
            if s < len(stages):
                fills, tiles = self._stage(buffers[s % 2], *stages[s])
                batch += fills
            _run(batch, self.threads)


def _as_targets(targets, d: int) -> np.ndarray:
    """``targets`` as a finite float64 ``(m, d)`` array."""
    T = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if T.shape[1] != d:
        raise ValueError(f"dimension mismatch: {T.shape[1]} vs {d}")
    if not np.isfinite(T).all():
        raise ValueError("target coordinates must be finite")
    return T


def min_squared_distances(
    targets,
    points,
    *,
    threads: int = 1,
    engine: str = "auto",
    settle: float = 0.0,
) -> np.ndarray:
    """Squared distance from each target to its nearest point in ``points``.

    Parameters
    ----------
    targets : array of shape (m, d), finite.
    points : array of shape (n, d), or a row source of that shape, such as
        :class:`cubecover.sampling.IidRows`.  The BLAS engine reads the
        points one stage at a time: whole tiles of ``_POINT_CHUNK`` (2048)
        points, about 8192 rows per thread, taken from a row source in
        float64 pieces of about 512 KB.  It holds two stages of float32 rows,
        ``4 (d + 1)`` bytes a row, so its memory does not grow with ``n``, and
        each worker holds one float32 panel of ``_PANEL_POINTS`` (256) points
        by ``_TARGET_CHUNK`` (1024) targets plus padding, 1 MB, at every d.
        The KD-tree engine gathers a row source into one float64 array.
        An array must be finite; a row source is not checked.
    threads : worker threads over point stages and target chunks; does not
        affect the result.
    engine : "auto", "kdtree" or "blas".  The BLAS engine expands
        ||u - x||^2 = ||u'||^2 - 2 u'.x' + ||x'||^2 about the cube's centre
        (u' = u - 1/2, x' = x - 1/2) in float32 tiles, which is the only
        practical option in high dimension; "auto" uses a KD-tree for d <= 10.
        Its error against float64 is of order
        eps32 * d * (||u'||^2 + max ||x'||^2), eps32 = 2**-23.
    settle : a squared distance below which the exact minimum is not needed.
        The BLAS engine stops scanning a target's later point tiles once its
        running minimum, as the float32 sum it would return, is ``<= settle``,
        and returns that partial minimum.  Every other target gets bit for
        bit the value of a ``settle=0`` call.  A later tile can only lower a
        value, so for every ``r2 >= settle`` the test ``d2 <= r2`` decides as
        the full scan does; order statistics and maxima below ``settle`` are
        not kept.  The KD-tree engine keeps the same contract with two
        queries of one tree.  The first is approximate (``eps`` of
        ``_KDTREE_SETTLE_EPS``) and looks no farther than ``sqrt(settle)``;
        a value it returns ``<= settle`` is kept, being the distance to some
        design point, so never below the minimum.  The other targets are
        queried again exactly and, since the tree answers each target on its
        own, get their ``settle=0`` bits.  ``settle`` must be ``>= 0`` (not
        NaN); 0 scans every target in full.

    Returns
    -------
    float64 array of shape (m,), clipped at zero; empty for no targets.
    """
    pieces, (n, d), array = _as_points(points)
    if n == 0:
        raise ValueError("point set is empty")
    T = _as_targets(targets, d)
    if not settle >= 0.0:
        raise ValueError(f"settle must be >= 0, got {settle}")

    if engine == "auto":
        engine = "kdtree" if d <= _KDTREE_MAX_DIM and n >= 32 else "blas"
    if engine not in ("kdtree", "blas"):
        raise ValueError(f"unknown engine {engine!r}")
    if T.shape[0] == 0:
        return np.empty(0)

    if engine == "kdtree":
        # a row source is gathered serially: the engine runs at d <= 10, where
        # even 1e5 rows take 8 MB
        tree = sys.modules[__name__].cKDTree(  # resolved now: see __getattr__
            np.concatenate(list(pieces(0, n))) if array is None else array)

        def query(x: np.ndarray, **approx) -> np.ndarray:
            dist, _ = tree.query(x, k=1, workers=max(threads, 1), **approx)
            return np.asarray(dist, dtype=np.float64) ** 2

        if settle == 0.0:
            return query(T)
        # a target with no point below the bound gets inf, so is queried again
        d2 = query(T, eps=_KDTREE_SETTLE_EPS,
                   distance_upper_bound=np.nextafter(math.sqrt(settle), np.inf))
        exact = ~(d2 <= settle)
        if exact.any():
            d2[exact] = query(T[exact])
        return d2

    parts = []

    def start(tnorm: np.ndarray):
        best = np.full(tnorm.size, np.inf, dtype=np.float32)
        parts.append((best, tnorm))

        def visit(j: int, rows: np.ndarray, panels) -> np.ndarray:
            low = best[rows]
            for _, panel in panels:
                np.minimum(low, panel.min(axis=0), out=low)
            best[rows] = low
            # the float32 sum the kernel returns, compared in float64
            return (low + tnorm[rows]).astype(np.float64) <= settle

        return visit

    _CentredExpansion(pieces, (n, d), threads).sweep(T, start)
    best = np.concatenate([best + tnorm for best, tnorm in parts])
    return np.maximum(best.astype(np.float64), 0.0)


def first_hit_index(
    targets,
    points,
    radius: float,
    *,
    threads: int = 1,
) -> np.ndarray:
    """1-based index of the first point within ``radius`` of each target.

    Targets never hit get the sentinel ``n + 1``, and no targets give an
    empty int64 array.  Treating ``points`` as the prefix-ordered draw of a
    growing design, ``first_hit <= n`` is exactly "covered by the first n
    points", which makes coverage monotone in n under common random numbers.
    Hit decisions are made in float32 with the centred expansion of
    ``min_squared_distances``, so a pair within its rounding error of
    ``radius`` may be decided either way, though never differently for
    having block-mates already hit (see ``_CentredExpansion.sweep``).
    ``targets`` must be finite, ``radius`` finite and ``>= 0``, and
    ``points`` is an ``(n, d)`` array or a row source, read one stage at a
    time as in ``min_squared_distances``; once every target is hit, no
    further stage is read.  Each worker holds one float32 panel of
    ``_PANEL_POINTS`` (256) points by ``_TARGET_CHUNK`` (1024) targets (plus
    padding), 1 MB, at every d, as in ``min_squared_distances``.
    """
    pieces, (n, d), _ = _as_points(points)
    if n == 0:
        raise ValueError("point set is empty")
    T = _as_targets(targets, d)
    radius = float(radius)
    if not 0.0 <= radius < math.inf:
        raise ValueError(f"radius must be finite and >= 0, got {radius}")
    if T.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    r2 = np.float32(radius ** 2)
    parts = []

    def start(tnorm: np.ndarray):
        slack = r2 - tnorm  # hit iff ||x'||^2 - 2 u'.x' <= r^2 - ||u'||^2
        hit = np.full(tnorm.size, n + 1, dtype=np.int64)
        parts.append(hit)

        def visit(j: int, rows: np.ndarray, panels) -> np.ndarray:
            s = slack[rows]
            got = np.zeros(rows.size, dtype=bool)
            for a, panel in panels:
                hits = panel <= s
                new = hits.any(axis=0) & ~got
                if new.any():
                    # the earliest hit of a target not hit in an earlier panel
                    hit[rows[new]] = j + a + 1 + np.argmax(hits[:, new], axis=0)
                    got |= new
            return got

        return visit

    _CentredExpansion(pieces, (n, d), threads).sweep(T, start)
    return np.concatenate(parts)
