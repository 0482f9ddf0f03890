"""Probability that a random design point lands within distance r of a fixed
point U: moments of ||U - X||^2, the normal (CLT) approximation, its
Edgeworth correction, a Monte Carlo oracle, and the normalized ball-cube
intersection variable kappa_U.

With X having i.i.d. coordinates on the delta-cube, ||U - X||^2 is a sum of d
independent terms (u_j - x_j)^2, so its distribution is asymptotically normal
and admits an Edgeworth-type expansion built from per-coordinate cumulants.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .estimates import CoverageEstimate
from .geometry import as_point, log_unit_ball_volume
from .sampling import TargetPrior, _mc_block_rows, delta_cube_blocks, sample_targets
from .streams import SeededStream

__all__ = [
    "ball_probability",
    "ball_probability_batch",
    "clt_probability",
    "coordinate_cumulants",
    "coordinate_moments",
    "edgeworth_probability",
    "kappa_density_sample",
    "mc_intersection_oracle",
]

# Samples per counter-jumped substream of mc_intersection_oracle; chunk c
# draws from ``stream.jumped(c)``, so this fixes which draws are made.
_MC_CHUNK = 1_000_000
_QUAD_NODES = 32  # exact for the polynomial integrands used here (degree <= 8)
# Phi(t) = erfc(-t / sqrt 2) / 2 from the C library: scipy.special's ndtr
# would cost about 23 MB and 0.2-0.3 s of import for this one function
_erfc = np.vectorize(math.erfc, otypes=[np.float64])


def coordinate_moments(u, delta: float):
    """First three central moments of (u - x)^2 for x uniform on
    [1/2 - delta/2, 1/2 + delta/2].

    With a = u - 1/2:

        mu1 = a^2 + delta^2/12
        mu2 = (delta^2/3)  * (a^2 + delta^2/60)
        mu3 = (delta^4/15) * (a^2 + delta^2/252)

    Vectorized over ``u``.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    a2 = np.square(np.asarray(u, dtype=np.float64) - 0.5)
    d2 = delta * delta
    mu1 = a2 + d2 / 12.0
    mu2 = (d2 / 3.0) * (a2 + d2 / 60.0)
    mu3 = (d2 * d2 / 15.0) * (a2 + d2 / 252.0)
    return mu1, mu2, mu3


def _uniform_coordinate_cumulants(u, delta: float, nu_max: int) -> np.ndarray:
    a2 = np.square(np.asarray(u, dtype=np.float64) - 0.5)
    d2 = delta * delta
    mu1, mu2, mu3 = coordinate_moments(u, delta)
    cols = [mu1, mu2, mu3]
    if nu_max >= 4:
        # kappa_4 = mu_4 - 3 mu_2^2 in closed form
        cols.append(-(2.0 / 15.0) * a2 * a2 * d2 * d2
                    + (2.0 / 315.0) * a2 * d2 * d2 * d2
                    - d2**4 / 37800.0)
    out = np.empty(a2.shape + (nu_max,), dtype=np.float64)
    for k in range(nu_max):
        out[..., k] = cols[k]
    return out


@functools.lru_cache(maxsize=32)
def _jacobi_rule(alpha: float):
    """Nodes on [0,1] and normalized weights for E[g(w)], w ~ Beta(alpha, alpha)."""
    from scipy.special import roots_jacobi  # slow to import; uniform runs never get here

    nodes, weights = roots_jacobi(_QUAD_NODES, alpha - 1.0, alpha - 1.0)
    w01 = 0.5 * (nodes + 1.0)
    return w01, weights / weights.sum()


def coordinate_cumulants(u, delta: float, alpha: float = 1.0, nu_max: int = 4) -> np.ndarray:
    """Cumulants of order 1..nu_max of (u - x)^2 with x ~ p_{alpha,delta}.

    Closed forms for alpha = 1; otherwise a fixed Gauss-Jacobi rule, which is
    exact here because the integrands are polynomials in the Beta variable.
    Output shape: u.shape + (nu_max,).
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not 1 <= nu_max <= 4:
        raise ValueError(f"cumulant orders 1..4 supported, got {nu_max}")
    if alpha == 1.0:
        return _uniform_coordinate_cumulants(u, delta, nu_max)

    w01, wts = _jacobi_rule(float(alpha))
    x = 0.5 + delta * (w01 - 0.5)  # quadrature nodes mapped onto the delta edge
    uu = np.asarray(u, dtype=np.float64)
    eta = np.square(uu[..., None] - x)
    m1 = eta @ wts
    c = eta - m1[..., None]
    out = np.empty(uu.shape + (nu_max,), dtype=np.float64)
    out[..., 0] = m1
    if nu_max >= 2:
        out[..., 1] = np.square(c) @ wts
    if nu_max >= 3:
        out[..., 2] = (c**3) @ wts
    if nu_max >= 4:
        out[..., 3] = (c**4) @ wts - 3.0 * np.square(out[..., 1])
    return out


def _edgeworth_cdf(t: np.ndarray, sigma: np.ndarray, cum_sums: np.ndarray, order: int) -> np.ndarray:
    """Phi(t) + Q_1(t) + ... + Q_order(t), order 0 to 2, row-vectorized, with

        Q_1(t) = -phi(t) He_2(t) lambda_3/3!
        Q_2(t) = -phi(t) [He_3(t) lambda_4/4! + He_5(t) (lambda_3/3!)^2/2!],

    He_k the probabilists' Hermite polynomials, lambda_nu = kappa_nu / sigma^nu
    and kappa_nu the summed cumulant of order nu.  This is the expansion in
    powers of d^(-1/2) with the powers of d cancelled (Petrov, Sums of
    Independent Random Variables, 1975, ch. VI).

    ``cum_sums[i, k]`` is the summed cumulant of order k+1 for row i.
    """
    total = 0.5 * _erfc(-t / math.sqrt(2.0))  # Phi(t)
    if order == 0:
        return total
    phi = np.exp(-0.5 * np.square(t)) / math.sqrt(2.0 * math.pi)
    # He_{k+1} = t He_k - k He_{k-1}, from He_0 = 1 and He_1 = t
    he2 = t * t - 1
    g3 = cum_sums[:, 2] / sigma**3 / 6  # lambda_3 / 3!
    total = total - phi * (he2 * g3)
    if order == 1:
        return total
    he3 = t * he2 - 2 * t
    he5 = t * (t * he3 - 3 * he2) - 4 * he3
    g4 = cum_sums[:, 3] / sigma**4 / 24  # lambda_4 / 4!
    return total - phi * (he3 * g4 + he5 * (g3**2 / 2))


def clt_probability(U, delta: float, alpha: float, r: float) -> float:
    """Normal approximation Phi((r^2 - mu)/sigma) of P{||U - X|| <= r}."""
    return float(ball_probability_batch(as_point(U)[None, :], delta, alpha, r, order=0)[0])


def edgeworth_probability(U, delta: float, alpha: float, r: float, *,
                          order: int = 1) -> float:
    """Edgeworth-corrected P{||U - X|| <= r}; order 0 reproduces the CLT value.

    ``order`` is that of :func:`ball_probability_batch`, and so is the clip
    into [0,1].
    """
    return float(ball_probability_batch(as_point(U)[None, :], delta, alpha, r, order=order)[0])


def ball_probability_batch(U_rows, delta: float, alpha: float, r: float,
                           order: int = 1) -> np.ndarray:
    """CLT/Edgeworth probability for many centers at once, shape (m,).

    ``order`` counts the Edgeworth correction terms, 0 (plain CLT) to 2.
    Expansions are not proper cdfs, so their raw values may leave [0,1]; the
    output is always clipped into [0,1].
    """
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    if not 0 <= order <= 2:
        raise ValueError(f"supported expansion orders are 0..2, got {order}")
    U = np.atleast_2d(np.asarray(U_rows, dtype=np.float64))
    cum = coordinate_cumulants(U, delta, alpha, nu_max=order + 2).sum(axis=1)
    mean, var = cum[:, 0], cum[:, 1]
    sigma = np.sqrt(var)
    ok = sigma > 0
    safe_sigma = np.where(ok, sigma, 1.0)
    t = (r * r - mean) / safe_sigma
    vals = _edgeworth_cdf(t, safe_sigma, cum, order)
    vals = np.where(ok, vals, (mean <= r * r).astype(np.float64))
    return np.clip(vals, 0.0, 1.0)


def ball_probability(U, delta: float, alpha: float, r: float) -> float:
    """P{||U - X|| <= r}, exact where geometry gives it, else Edgeworth order 1.

    Exact cases: the ball reaches past the delta-cube's farthest corner
    (probability 1), or, for alpha = 1, the ball sits inside the delta-cube
    (probability r^d V_d / delta^d).  Otherwise the value is that of
    :func:`ball_probability_batch` at ``order=1``.
    """
    u = as_point(U)
    d = u.size
    lo, hi = 0.5 - 0.5 * delta, 0.5 + 0.5 * delta
    reach = np.maximum(np.abs(u - lo), np.abs(hi - u))
    if r * r >= float(np.dot(reach, reach)):
        return 1.0  # ball swallows the whole delta-cube
    if alpha == 1.0 and r <= 0.5 * delta - float(np.max(np.abs(u - 0.5))):
        # ball fully inside the cube: uniform mass is vol(ball)/delta^d
        return math.exp(d * math.log(r) + log_unit_ball_volume(d) - d * math.log(delta)) if r > 0 else 0.0
    return float(ball_probability_batch(u[None, :], delta, alpha, r, order=1)[0])


def mc_intersection_oracle(U, delta: float, alpha: float, r: float,
                           n_samples: int, stream: SeededStream) -> CoverageEstimate:
    """Unbiased Monte Carlo estimate of P{||U - X|| <= r}.

    Chunk ``c`` of ``_MC_CHUNK`` samples draws from ``stream.jumped(c)``, so
    the result depends only on (stream, n_samples), not on thread count.
    Within a chunk the samples are drawn and scored in blocks that fit
    ``cubecover.sampling._MC_BLOCK_BYTES``; consecutive draws from one
    generator continue one sequence, so the block size does not change the
    result either.
    """
    if n_samples < 1:
        raise ValueError(f"need n_samples >= 1, got {n_samples}")
    u = as_point(U)
    r2 = float(r) * float(r)
    rows = _mc_block_rows(u.size)
    hits = 0
    for c, a in enumerate(range(0, n_samples, _MC_CHUNK)):
        m = min(_MC_CHUNK, n_samples - a)
        for x in delta_cube_blocks(stream.jumped(c), m, u.size, delta, alpha, rows):
            x -= u
            hits += int(np.count_nonzero(np.einsum("ij,ij->i", x, x) <= r2))
            del x  # freed before the next block is drawn
    p = hits / n_samples
    return CoverageEstimate(p, math.sqrt(p * (1.0 - p) / n_samples))


def kappa_density_sample(d: int, r: float, delta: float, n_outer: int, n_inner: int,
                         stream: SeededStream) -> np.ndarray:
    """Draws of kappa_U = P_X{||U - X|| <= r} / (r^d V_d) for U uniform on [0,1]^d.

    Each draw estimates the inner probability with ``n_inner`` Monte Carlo
    samples; the output is ready for a histogram or KDE.  The normalization
    is evaluated in log space; an overflow of kappa itself (tiny r^d V_d with
    a nonzero hit count) raises.
    """
    if r <= 0:
        raise ValueError(f"radius must be > 0, got {r}")
    if n_outer < 1 or n_inner < 1:
        raise ValueError("n_outer and n_inner must be >= 1")
    log_ball = d * math.log(r) + log_unit_ball_volume(d)
    if -log_ball >= math.log(np.finfo(np.float64).max):
        raise FloatingPointError(f"kappa normalization overflows: r^d V_d = exp({log_ball:.1f})")
    inv_ball = math.exp(-log_ball)

    targets = sample_targets(TargetPrior.uniform(d), n_outer, stream.child(0))
    inner = stream.child(1)
    out = np.empty(n_outer)
    for i in range(n_outer):
        est = mc_intersection_oracle(targets[i], delta, 1.0, r, n_inner, inner.child(i))
        out[i] = est.value * inv_ball
    return out
