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
# against _POINT_CHUNK points.  At K = d + 1 > _PANEL_MAX_K a block is
# multiplied whole, a float32 tile of 8 MB; at K <= _PANEL_MAX_K in row panels
# of _PANEL_ROWS, a tile of 2 MB.  With 4096 points in first_hit_index, its
# tiles set the peak memory of
# `ngamma --dim 50 --r-grid 2.0,2.1,2.3 --targets 5000 --threads 2`:
# 111.6 MB median ru_maxrss against 79.6 MB at 2048, with the same output
# (2-core Xeon, OpenBLAS at one thread).  _POINT_CHUNK is a multiple of 4, so
# every stage of whole tiles starts at a row a row source can start from.
_TARGET_CHUNK = 1024
_POINT_CHUNK = 2048

# Row panels of a block's product at K <= _PANEL_MAX_K: each panel's tile,
# 256 x 2048 float32 (2 MB, a core's L2 on the 2-core Xeon), is visited before
# the next panel is multiplied.  At low K the GEMM is bound by writing the
# tile, so the extra packing of the point block per panel is cheap.  One call
# of min_squared_distances, 4096 targets against 20000 i.i.d. rows settled at
# the 80% quantile on 2 threads, took 0.927 times the whole-block CPU at
# d = 20, 0.986 at d = 30 and 0.995 at d = 40, but 1.037 at d = 50 (medians
# of 16 alternating pairs, OpenBLAS 0.3.31 at one thread); so larger K keeps
# whole-block tiles.
_PANEL_ROWS = 256
_PANEL_MAX_K = 32


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
    slice.
    """
    if hasattr(points, "pieces"):
        return points.pieces, points.shape, None
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return (lambda a, b: (P[a:b],)), P.shape, P


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


def _panels(rows: int, w: int, k: int, panel: int) -> list[tuple[int, int, int]]:
    """``(a, b, size)`` for each row panel of a block's ``rows`` live rows
    against ``w`` points: rows a..b-1, multiplied as ``size`` rows from row a."""
    spans = [(a, min(a + panel, rows)) for a in range(0, rows, panel)]
    return [(a, b, _blocked_rows(b - a, w, k)) for a, b in spans]


class _Walk:
    """One target block's walk over the point tiles, resumed stage by stage.

    ``t`` holds the block's augmented targets [u', 1] and ``visit`` is as in
    :meth:`_CentredExpansion.sweep`; ``widths`` are the tile widths the walk
    will meet and ``panel`` the rows of one product.  ``n_live`` counts the
    targets still active.
    """

    def __init__(self, t: np.ndarray, visit, widths: set[int], panel: int):
        m, k = t.shape
        self.t, self.visit, self.panel = t, visit, panel
        # the most rows the panels of a tile reach: that never falls as rows grow
        self.n_rows = max(a + size for w in widths for a, _, size in _panels(m, w, k, panel))
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
            panels = _panels(self.n_live, w, k, self.panel)
            reach = max(a + size for a, _, size in panels)
            if self.sub is None or self.sub.shape[0] != reach:
                # compacted rows go to a fresh array of one fixed shape; one
                # kept for the whole sweep left table1's peak memory 8 MB
                # higher at most seeds
                self.order = np.argsort(~self.live, kind="stable")[:reach]
                packed = np.empty((self.n_rows, k), dtype=np.float32)
                packed[m:] = 0.0
                packed[m:, -1] = 1.0
                np.take(self.t, self.order, axis=0, out=packed[:self.order.size])
                self.sub = packed[:reach]
            rows = self.order[:self.n_live]
            # each panel's tile is visited before the next panel overwrites it;
            # the block compacts only after its last panel
            done = []
            for a, b, size in panels:
                tile = buf[:size * w].reshape(size, w)
                np.matmul(self.sub[a:a + size], points.T, out=tile)
                done.append(self.visit(j, rows[a:b], tile[:b - a, :stop - j]))
            done = np.concatenate(done)
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
    memory is two stage buffers, one tile and one float64 piece per worker,
    whatever ``n``.  A tile is ``_TARGET_CHUNK`` by ``_POINT_CHUNK`` (8 MB)
    at K = d + 1 > ``_PANEL_MAX_K`` (32), and one ``_PANEL_ROWS`` by
    ``_POINT_CHUNK`` panel (2 MB) at K <= 32: see :meth:`sweep`.

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

        After the points comes one inert row [0...0, +inf]: see :meth:`sweep`.
        """
        buf[hi - lo] = 0.0
        buf[hi - lo, -1] = np.inf
        fills = [functools.partial(self._fill, buf, lo, a, min(a + _ROW_CHUNK, hi))
                 for a in range(lo, hi, _ROW_CHUNK)]
        tiles = []
        for j in range(lo, hi, _POINT_CHUNK):
            stop = min(j + _POINT_CHUNK, self.n)
            tiles.append((j, stop, buf[j - lo:j - lo + max(stop - j, 2)]))
        return fills, tiles

    def sweep(self, targets: np.ndarray, start) -> None:
        """Walk the point tiles for every ``_TARGET_CHUNK``-row block of
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

        Each tile is one product of the active rows of the block, in order.
        At K = d + 1 <= ``_PANEL_MAX_K`` it is multiplied and visited in row
        panels of ``_PANEL_ROWS`` active rows, one panel after the other, and
        at larger K as one panel; the block drops its finished rows after its
        last panel.  Each panel's product is padded with the rows after it
        (active, finished, then inert rows [0...0, 1]) to the row count of
        :func:`_blocked_rows`; a lone last point is multiplied together with
        the inert point row [0...0, +inf], whose column is not passed on.
        BLAS sends one-row or one-column products to gemv and small products
        to OpenBLAS's small-matrix kernel; both round differently from the
        blocked GEMM, which gives a row the same bits whichever rows share its
        product.  So a target's tile is bit for bit the one it gets in a full
        block with no row dropped out, whatever the shape of its own block, of
        its panels, of the last point chunk or of the stages.
        """
        n, pc = self.n, _POINT_CHUNK
        # a lone point takes the inert row along
        widths = {max(min(j + pc, n) - j, 2) for j in range(0, n, pc)}
        # a whole block is one panel at larger K
        panel = _PANEL_ROWS if self.k <= _PANEL_MAX_K else _TARGET_CHUNK
        walks = []
        for a in range(0, targets.shape[0], _TARGET_CHUNK):
            t, tnorm = self.targets(targets[a:a + _TARGET_CHUNK])
            walks.append(_Walk(t, start(tnorm), widths, panel))
        if not walks:
            return
        # one buffer per worker for all its tiles, sized for a full panel of
        # the first block, the largest: tiles allocated afresh left about 8 MB
        # more resident at d = 50, n = 1e5
        rows = min(panel, walks[0].t.shape[0])
        size = max(_blocked_rows(rows, w, self.k) * w for w in widths)
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
        each worker holds one float32 tile of ``_POINT_CHUNK`` points by, at
        d + 1 > 32, ``_TARGET_CHUNK`` (1024) targets plus padding, 8 MB, and
        at d + 1 <= 32, a panel of ``_PANEL_ROWS`` (256) targets plus
        padding, 2 MB.  The KD-tree engine gathers a row source into one
        float64 array.
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

        def visit(j: int, rows: np.ndarray, tile: np.ndarray) -> np.ndarray:
            low = np.minimum(best[rows], tile.min(axis=1))
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
    ``targets`` must be finite, and ``points`` is an ``(n, d)`` array or a
    row source, read one stage at a time as in ``min_squared_distances``;
    once every target is hit, no further stage is read.  Each worker holds
    one float32 tile of ``_POINT_CHUNK`` points by ``_TARGET_CHUNK`` targets
    (plus padding), 8 MB, at d + 1 > 32, and by ``_PANEL_ROWS`` targets
    (plus padding), 2 MB, at d + 1 <= 32, as in ``min_squared_distances``.
    """
    pieces, (n, d), _ = _as_points(points)
    if n == 0:
        raise ValueError("point set is empty")
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

    _CentredExpansion(pieces, (n, d), threads).sweep(T, start)
    return np.concatenate(parts)
