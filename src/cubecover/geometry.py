"""Dimension-generic geometry: points, unit-ball volumes and nearest distances.

Everything here works on plain float64 numpy arrays; the bulk distance
kernels also take a *row source*, an object with ``.shape`` (n, d) and
``.rows(a, b)`` returning float64 rows a..b-1, which they read chunk by chunk.
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

# Row-chunk length for filling large point arrays in the worker pool; fixed,
# so the chunk schedule depends only on the number of rows.
_ROW_CHUNK = 8192

# Points per tile of both BLAS entry points; a float32 tile of 1024 target
# rows is 8 MB.  With 4096 in first_hit_index, its tiles set the peak memory
# of `ngamma --dim 50 --r-grid 2.0,2.1,2.3 --targets 5000 --threads 2`:
# 111.6 MB median ru_maxrss against 79.6 MB at 2048, with the same output
# (2-core Xeon, OpenBLAS at one thread).
_POINT_CHUNK = 2048


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


def _map_chunks(fn, n_items: int, chunk: int, threads: int) -> list:
    """Apply ``fn(start, stop)`` over fixed chunks, optionally in threads.

    The chunk schedule is a pure function of (n_items, chunk), and results are
    combined in chunk order, so the output never depends on ``threads``.
    """
    return _run([functools.partial(fn, a, min(a + chunk, n_items))
                 for a in range(0, n_items, chunk)], threads)


def _as_points(points):
    """``(read, (n, d), array)`` for ``points``; ``read(a, b)`` gives float64 rows a..b-1.

    A row source is recognised by its ``.rows`` method, which becomes
    ``read``, and ``array`` is None; this is the one place the module tells
    the two apart, and it needs no import of the types that provide one.
    Anything else is taken as a float64 ``(n, d)`` ``array``, read by slicing.
    """
    if hasattr(points, "rows"):
        return points.rows, points.shape, None
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return (lambda a, b: P[a:b]), P.shape, P


def _point_array(read, shape: tuple[int, int], threads: int = 1) -> np.ndarray:
    """All rows of an :func:`_as_points` reader as one float64 array.

    Rows are read in ``_ROW_CHUNK``-row chunks in the worker pool of
    ``_map_chunks``.
    """
    out = np.empty(shape)

    def fill(a: int, b: int) -> None:
        out[a:b] = read(a, b)

    _map_chunks(fill, shape[0], _ROW_CHUNK, threads)
    return out


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """One long-lived pool per worker count.

    A fresh pool per call would start new threads each time, and glibc gives
    new threads new malloc arenas, each of which keeps a freed tile resident.
    """
    return ThreadPoolExecutor(max_workers=threads)


def _blocked_rows(rows: int, w: int, k: int) -> int:
    """Fewest tile rows, at least ``rows`` and 2, that keep the product of a
    ``(rows, k)`` block with ``w`` points out of OpenBLAS's small-matrix kernel.

    numpy's ``block @ points.T`` is OpenBLAS's TN case with M = w, N = rows and
    K = k.  OpenBLAS 0.3.31's SkylakeX permit sends it to the small kernel
    when M·N·K <= 1e6, K >= 32 and M·N <= 1200.  Row counts of 8, 16 and
    32 are also padded while M·N·K <= 1e6, a margin for permits that send
    those N to it whatever K.
    """
    rows = max(rows, 2)
    while rows * w * k <= 1_000_000 and (rows in (8, 16, 32) or (k >= 32 and rows * w <= 1200)):
        rows += 1
    return rows


class _Walk:
    """One target block's walk over the point tiles, resumed stage by stage.

    ``t`` holds the block's augmented targets [u', 1] and ``visit`` is as in
    :meth:`_CentredExpansion.sweep`; ``widths`` are the tile widths the walk
    will meet.  ``n_live`` counts the targets still active.
    """

    def __init__(self, t: np.ndarray, visit, widths: set[int]):
        m, k = t.shape
        self.t, self.visit = t, visit
        # the most rows a tile takes: _blocked_rows never falls as rows grow
        self.n_rows = max(_blocked_rows(m, w, k) for w in widths)
        self.live = np.ones(m, dtype=bool)
        self.n_live = m
        self.sub = None  # live rows of t in order, then padding; None until rebuilt
        self.order = None

    def __call__(self, tiles: list, tile_buffer) -> None:
        """Visit ``tiles``, each ``(j, stop, points)`` with ``points`` the
        augmented rows j..stop-1 (and the inert row after a lone point)."""
        m, k = self.t.shape
        buf = tile_buffer()
        for j, stop, points in tiles:
            w = points.shape[0]
            size = _blocked_rows(self.n_live, w, k)
            if self.sub is None or self.sub.shape[0] != size:
                # compacted rows go to a fresh array of one fixed shape; one
                # kept for the whole sweep left table1's peak memory 8 MB
                # higher at most seeds
                self.order = np.argsort(~self.live, kind="stable")[:size]
                packed = np.empty((self.n_rows, k), dtype=np.float32)
                packed[m:] = 0.0
                packed[m:, -1] = 1.0
                np.take(self.t, self.order, axis=0, out=packed[:self.order.size])
                self.sub = packed[:size]
            rows = self.order[:self.n_live]
            tile = buf[:size * w].reshape(size, w)
            np.matmul(self.sub, points.T, out=tile)
            done = self.visit(j, rows, tile[:self.n_live, :stop - j])
            if done.any():
                self.live[rows[done]] = False
                self.n_live -= int(np.count_nonzero(done))
                self.sub = None
                if self.n_live == 0:
                    return


class _CentredExpansion:
    """Blocked float32 evaluation of ||u - x||^2 around the cube's centre.

    With u' = u - 1/2 and x' = x - 1/2 the squared distance expands as
    ||u'||^2 + (||x'||^2 - 2 u'.x').  The points become augmented rows
    [-2 x', ||x'||^2] and a block of targets [u', 1], so each tile, the
    bracket for the block against ``point_chunk`` points, is a single float32
    GEMM with no further pass over it.  Callers add ||u'||^2 after reducing
    over the points.

    :meth:`sweep` fills the point rows one *stage* at a time: whole
    ``point_chunk`` tiles, about ``_ROW_CHUNK`` rows per worker thread and a
    multiple of 4 rows, so every stage starts at a row a row source can
    start from (see :class:`cubecover.sampling.IidRows`).  Rows come from
    ``read`` (see :func:`_as_points`) in ``_ROW_CHUNK``-row pieces, so a row
    source is never held whole in float64.  Peak memory is two stage
    buffers and one tile per worker, whatever ``n``.

    Centring halves each coordinate's magnitude, and the rounding error of the
    expansion is of order eps32 * d * (||u'||^2 + ||x'||^2) (Higham, Accuracy
    and Stability of Numerical Algorithms, sec. 3.1), so it shrinks about
    four-fold against the uncentred form on [0, 1]^d.
    """

    def __init__(self, read, shape: tuple[int, int], point_chunk: int, threads: int):
        self.read = read
        self.n, d = shape
        self.k = d + 1
        self.point_chunk, self.threads = point_chunk, threads
        tiles = max(1, round(_ROW_CHUNK * threads / point_chunk))
        while tiles * point_chunk % 4:
            tiles += 1
        self.stage = tiles * point_chunk

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
        rows = buf[a - lo:b - lo]
        _, x = self.centre(self.read(a, b), rows)
        rows[:, -1] = np.einsum("ij,ij->i", x, x)
        x *= np.float32(-2.0)

    def _stage(self, buf: np.ndarray, lo: int, hi: int) -> tuple[list, list]:
        """The tasks that fill points lo..hi-1 into ``buf``, and the tiles they make.

        After the points comes one inert row [0...0, +inf]: see :meth:`sweep`.
        """
        buf[hi - lo] = 0.0
        buf[hi - lo, -1] = np.inf
        fills = [functools.partial(self._fill, buf, lo, a, min(a + _ROW_CHUNK, hi))
                 for a in range(lo, hi, _ROW_CHUNK)]
        tiles = []
        for j in range(lo, hi, self.point_chunk):
            stop = min(j + self.point_chunk, self.n)
            tiles.append((j, stop, buf[j - lo:j - lo + max(stop - j, 2)]))
        return fills, tiles

    def sweep(self, targets: np.ndarray, target_chunk: int, start) -> None:
        """Walk the point tiles for every ``target_chunk``-row block of
        ``targets``, dropping finished rows.

        ``start(tnorm)`` is called once per block, in order, with the block's
        ||u'||^2, and returns the block's ``visit(j, rows, tile)``.  That gets
        the point offset ``j``, the indices ``rows`` into the block of the
        targets still active, in order, and their tile ||x'||^2 - 2 u'.x'
        against the chunk at ``j``; it returns a boolean mask over ``rows`` of
        the targets that need no later tile.  A block stops once none of its
        targets is active, and the sweep once no block is.

        Stages go in order.  Every active block walks the tiles of one stage
        while the next stage is filled into the other buffer, all as tasks of
        one batch in the worker pool; a worker reuses one tile buffer for all
        its tiles.  A block walks its tiles in order, so the schedule never
        changes what a visit sees.

        Each tile is one product of the active rows of the block, padded with
        finished rows and then inert rows [0...0, 1] to the row count of
        :func:`_blocked_rows`; a lone last point is multiplied together with
        the inert point row [0...0, +inf], whose column is not passed on.
        BLAS sends one-row or one-column products to gemv and small products
        to OpenBLAS's small-matrix kernel; both round differently from the
        blocked GEMM, which gives a row the same bits whichever rows share its
        product.  So a target's tile is bit for bit the one it gets in a full
        block with no row dropped out, whatever the shape of its own block, of
        the last point chunk or of the stages.
        """
        n, pc = self.n, self.point_chunk
        # a lone point takes the inert row along
        widths = {max(min(j + pc, n) - j, 2) for j in range(0, n, pc)}
        walks = []
        for a in range(0, targets.shape[0], target_chunk):
            t, tnorm = self.targets(targets[a:a + target_chunk])
            walks.append(_Walk(t, start(tnorm), widths))
        if not walks:
            return
        # one buffer per worker for all its tiles, sized for the first block,
        # the largest: tiles allocated afresh left about 8 MB more resident
        # at d = 50, n = 1e5
        size = max(_blocked_rows(walks[0].t.shape[0], w, self.k) * w for w in widths)
        tile_buffers: dict[int, np.ndarray] = {}

        def tile_buffer() -> np.ndarray:
            buf = tile_buffers.get(threading.get_ident())
            if buf is None:
                buf = tile_buffers[threading.get_ident()] = np.empty(size, dtype=np.float32)
            return buf

        stages = [(lo, min(lo + self.stage, n)) for lo in range(0, n, self.stage)]
        buffers = [np.empty((min(self.stage, n) + 1, self.k), dtype=np.float32) for _ in stages[:2]]
        for s in range(len(stages) + 1):
            batch = []
            if s:  # walk the tiles of the stage filled last
                batch = [functools.partial(walk, tiles, tile_buffer) for walk in walks if walk.n_live]
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
    target_chunk: int = 1024,
    point_chunk: int = _POINT_CHUNK,
    engine: str = "auto",
    settle: float = 0.0,
) -> np.ndarray:
    """Squared distance from each target to its nearest point in ``points``.

    Parameters
    ----------
    targets : array of shape (m, d), finite.
    points : array of shape (n, d), or a row source of that shape, such as
        :class:`cubecover.sampling.IidRows`.  The BLAS engine reads the
        points one stage at a time: whole ``point_chunk`` tiles, about
        8192 rows per thread, taken from a row source in 8192-row float64
        pieces.  It holds two stages of float32 rows, ``4 (d + 1)`` bytes
        a row, so its memory does not grow with ``n``.  The KD-tree engine
        builds the float64 array once.
    threads : worker threads over point stages and target chunks; does not
        affect the result.
    target_chunk, point_chunk : tile shape; each worker holds one float32
        tile of ``target_chunk`` (plus padding) by ``point_chunk`` values
        (8 MB at the defaults).
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
    read, (n, d), array = _as_points(points)
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
        tree = sys.modules[__name__].cKDTree(  # resolved now: see __getattr__
            _point_array(read, (n, d), threads) if array is None else array)

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

        def visit(j: int, rows: np.ndarray, tile: np.ndarray) -> np.ndarray:
            low = np.minimum(best[rows], tile.min(axis=1))
            best[rows] = low
            # the float32 sum the kernel returns, compared in float64
            return (low + tnorm[rows]).astype(np.float64) <= settle

        return visit

    _CentredExpansion(read, (n, d), point_chunk, threads).sweep(T, target_chunk, start)
    best = np.concatenate([best + tnorm for best, tnorm in parts])
    return np.maximum(best.astype(np.float64), 0.0)


def first_hit_index(
    targets,
    points,
    radius: float,
    *,
    threads: int = 1,
    target_chunk: int = 1024,
    point_chunk: int = _POINT_CHUNK,
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
    ``targets`` must be finite, and ``points`` is an ``(n, d)`` array or a
    row source, read one stage at a time as in ``min_squared_distances``;
    once every target is hit, no further stage is read.  Each worker holds
    one float32 tile of ``target_chunk`` (plus padding) by ``point_chunk``
    values (8 MB at the defaults, as in ``min_squared_distances``).
    """
    read, (n, d), _ = _as_points(points)
    T = _as_targets(targets, d)
    if T.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    r2 = np.float32(float(radius) ** 2)
    parts = []

    def start(tnorm: np.ndarray):
        slack = r2 - tnorm  # hit iff ||x'||^2 - 2 u'.x' <= r^2 - ||u'||^2
        hit = np.full(tnorm.size, n + 1, dtype=np.int64)
        parts.append(hit)

        def visit(j: int, rows: np.ndarray, tile: np.ndarray) -> np.ndarray:
            hits = tile <= slack[rows, None]
            got = hits.any(axis=1)
            hit[rows[got]] = j + 1 + np.argmax(hits[got], axis=1)
            return got

        return visit

    _CentredExpansion(read, (n, d), point_chunk, threads).sweep(T, target_chunk, start)
    return np.concatenate(parts)
