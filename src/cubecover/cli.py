"""Command-line front end: coverage experiments, radius/count tables,
intersection approximations and design dumps, emitted as CSV or JSON lines.

Every command is a pure function of its parameters and the master seed:
reruns are byte-identical, and ``--threads`` changes wall time only.  Wall
times go to stderr, never into output files.  Exit codes: 0 success,
2 validation error, 3 numeric or infeasibility error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .coverage import (
    CoverageQuery,
    coverage_design_conditional,
    jensen_bound_center,
    jensen_bound_refined,
    nearest_distance_sample,
    product_form_approximation,
)
from .estimates import CoverageEstimate, binomial_std_error
from .geometry import log_unit_ball_volume, min_squared_distances
from .intersect import (
    EdgeworthConfig,
    clt_probability,
    edgeworth_probability,
    kappa_density_sample,
    mc_intersection_oracle,
)
from .sampling import (
    SamplingScheme,
    SchemeKind,
    TargetPrior,
    min_hamming_vertex_design,
    sample_design,
    sample_targets,
)
from .solvers import (
    asymptotic_radius,
    default_delta_grid,
    delta_sweep,
    empirical_n_gamma,
    empirical_n_gamma_best_delta,
    empirical_radius_quantile,
    n_gamma_asymptotic,
    _radius_from_sample,
)
from .streams import SeededStream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class CliError(Exception):
    """Validation failure; maps to exit code 2 with the field named."""


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: 'a,b,c' or 'start:stop:step' (stop inclusive to 1e-9)."""
    ranged = ":" in text
    parts = text.split(":") if ranged else [p for p in text.split(",") if p]
    if ranged and len(parts) != 3:
        raise CliError(f"grid {text!r} must be start:stop:step or a comma list")
    values = [float(p) for p in parts]
    if not all(map(math.isfinite, values)):
        raise CliError(f"grid {text!r} has a non-finite value")
    if not ranged:
        return values
    start, stop, step = values
    if step <= 0 or stop < start:
        raise CliError(f"grid {text!r} has a nonpositive step or stop < start")
    k = int(math.floor((stop - start) / step + 1e-9))
    return [start + i * step for i in range(k + 1)]


def _load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                for sep in ("=", ":"):
                    if sep in line:
                        key, val = line.split(sep, 1)
                        cfg[key.strip().replace("-", "_")] = val.strip()
                        break
                else:
                    raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    return cfg


class Params:
    """Flag/config/default resolution; flags always win over the file."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = _load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, default=None, kind=str):
        value = self._lookup(name, default, kind)
        if isinstance(value, float) and not math.isfinite(value):
            raise CliError(f"--{name.replace('_', '-')} must be finite, got {value}")
        return value

    def _lookup(self, name: str, default, kind):
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag
        if name in self.cfg:
            raw = self.cfg[name]
            if kind is bool or isinstance(default, bool):
                return raw.strip().lower() in ("1", "true", "yes", "on")
            try:
                return kind(raw)
            except ValueError as exc:
                raise CliError(f"config field {name}: cannot parse {raw!r}") from exc
        return default

    def require(self, name: str, kind=str):
        val = self.get(name, None, kind)
        if val is None:
            raise CliError(f"missing required field --{name.replace('_', '-')}")
        return val


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _emit(args, command: str, seed: int, columns: list[str], rows: list[list]) -> None:
    out = getattr(args, "out", None)
    jsonl = bool(out) and out.endswith(".jsonl")
    lines: list[str]
    if jsonl:
        lines = [json.dumps({"cubecover": __version__, "command": command, "seed": seed})]
        lines += [json.dumps(dict(zip(columns, row))) for row in rows]
    else:
        lines = [f"# cubecover={__version__} command={command} seed={seed}"]
        lines.append(",".join(columns))
        lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _scheme(p: Params, dimension: int) -> SamplingScheme:
    kind = p.get("scheme", "uniform")
    delta = p.get("delta", 1.0, float)
    alpha = p.get("alpha", 1.0, float)
    try:
        if kind == "uniform":
            return SamplingScheme.uniform(dimension, delta)
        if kind == "beta":
            return SamplingScheme.beta(dimension, alpha, delta)
        if kind == "sobol":
            return SamplingScheme.sobol(dimension, delta)
        if kind == "vertex":
            return SamplingScheme.vertex(dimension)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    raise CliError(f"unknown --scheme {kind!r} (uniform|beta|sobol|vertex)")


def _prior(p: Params, dimension: int) -> TargetPrior:
    kind = p.get("prior", "uniform")
    if kind == "uniform":
        return TargetPrior.uniform(dimension)
    if kind == "beta":
        return TargetPrior.product_beta(dimension, p.get("alpha", 0.5, float))
    raise CliError(f"unknown --prior {kind!r} (uniform|beta)")


def _r_grid(p: Params) -> list[float]:
    grid = p.get("r_grid")
    if grid is not None:
        return _parse_grid(grid) if isinstance(grid, str) else grid
    r = p.get("r", None, float)
    if r is None:
        raise CliError("missing required field --r or --r-grid")
    return [r]


def _delta_grid(p: Params, default=None) -> list[float]:
    grid = p.get("delta_grid")
    if grid is None:
        return default if default is not None else default_delta_grid()
    return _parse_grid(grid) if isinstance(grid, str) else grid


def _asymptotic_coverage(d: int, n: int, r: float) -> float:
    # F(n^{1/d} V_d^{1/d} r) = 1 - exp(-n V_d r^d)
    if r <= 0:
        return 0.0
    return -math.expm1(-n * math.exp(log_unit_ball_volume(d) + d * math.log(r)))


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_coverage(p: Params) -> tuple[list[str], list[list]]:
    d = p.require("dim", int)
    n = p.require("n", int)
    seed = p.require("seed", int)
    r_values = _r_grid(p)
    scheme = _scheme(p, d)
    prior = _prior(p, d)
    n_targets = p.get("targets", 20_000, int)
    n_designs = p.get("designs", 2, int)
    threads = p.get("threads", 1, int)
    with_bounds = p.get("bounds", False, bool)
    stream = SeededStream(seed)

    query = CoverageQuery(d, max(r_values), n, scheme, prior)
    if scheme.is_iid:
        d2 = nearest_distance_sample(query, n_designs, n_targets, stream, threads=threads)
        method = "design_averaged"
    else:
        design = sample_design(scheme, n, stream.child(0))
        targets = sample_targets(prior, n_targets, stream.child(1))
        d2 = min_squared_distances(targets, design.points, threads=threads)[None, :]
        method = "design_conditional"

    columns = ["r", "coverage", "std_error", "method", "asymptotic"]
    if with_bounds:
        columns += ["jensen_center", "jensen_refined", "product_form_approx"]
    rows = []
    for r in r_values:
        per_design = (d2 <= r * r).mean(axis=1)
        value = float(per_design.mean())
        se = float(per_design.std(ddof=1) / math.sqrt(len(per_design))) if len(per_design) > 1 \
            else binomial_std_error(value, n_targets)
        row = [r, value, se, method, _asymptotic_coverage(d, n, r)]
        if with_bounds:
            qr = query.with_radius(r)
            row += [jensen_bound_center(qr), jensen_bound_refined(qr),
                    product_form_approximation(qr, max(n_targets, 10_000), stream.child(7)).value]
        rows.append(row)
    return columns, rows


def cmd_radius(p: Params) -> tuple[list[str], list[list]]:
    d = p.require("dim", int)
    n = p.require("n", int)
    seed = p.require("seed", int)
    gamma = p.get("gamma", 0.1, float)
    scheme = _scheme(p, d)
    prior = _prior(p, d)
    r_emp = empirical_radius_quantile(
        d, n, scheme, prior, gamma, SeededStream(seed),
        n_targets=p.get("targets", 20_000, int),
        n_designs=p.get("designs", 2, int),
        threads=p.get("threads", 1, int),
    )
    return (["d", "n", "gamma", "r_empirical", "r_asymptotic"],
            [[d, n, gamma, r_emp, asymptotic_radius(d, n, gamma)]])


def cmd_table1(p: Params) -> tuple[list[str], list[list]]:
    seed = p.require("seed", int)
    gamma = p.get("gamma", 0.1, float)
    cells_text = p.get("cells", "10:1000,20:10000,50:100000")
    threads = p.get("threads", 1, int)
    n_targets = p.get("targets", 20_000, int)
    n_designs = p.get("designs", 2, int)
    sweep_targets = p.get("sweep_targets", max(2000, n_targets // 4), int)
    deltas = _delta_grid(p, default_delta_grid(0.05))
    stream = SeededStream(seed)

    cells = []
    for tok in cells_text.split(","):
        try:
            d_s, n_s = tok.split(":")
            cells.append((int(d_s), int(n_s)))
        except ValueError as exc:
            raise CliError(f"--cells entries must look like d:n, got {tok!r}") from exc

    columns = ["d", "n", "gamma", "r_full_cube", "r_delta_cube", "delta_star", "warning"]
    rows = []
    for idx, (d, n) in enumerate(cells):
        cell_stream = stream.child(idx)
        prior = TargetPrior.uniform(d)
        r_full = empirical_radius_quantile(d, n, SamplingScheme.uniform(d, 1.0), prior, gamma,
                                           cell_stream.child(0), n_targets=n_targets,
                                           n_designs=n_designs, threads=threads)
        best_delta, r_best = _optimal_delta_radius(d, n, gamma, deltas, cell_stream.child(1),
                                                   sweep_targets, threads)
        # refine the winning delta at the full budget
        r_best = empirical_radius_quantile(d, n, SamplingScheme.uniform(d, best_delta), prior, gamma,
                                           cell_stream.child(2), n_targets=n_targets,
                                           n_designs=n_designs, threads=threads)
        warning = "low-budget" if gamma * n_targets < 200 else ""
        rows.append([d, n, gamma, r_full, r_best, best_delta, warning])
    return columns, rows


def _optimal_delta_radius(d: int, n: int, gamma: float, deltas: list[float],
                          stream: SeededStream, n_targets: int, threads: int) -> tuple[float, float]:
    """argmin over delta of the empirical 1-gamma radius, shared targets."""
    prior = TargetPrior.uniform(d)
    best = (deltas[0], math.inf)
    for j, delta in enumerate(sorted(deltas)):
        query = CoverageQuery(d, 0.0, n, SamplingScheme.uniform(d, delta), prior)
        d2 = nearest_distance_sample(query, 1, n_targets, stream, threads=threads)
        r = _radius_from_sample(d2, 1.0 - gamma, d, 0.005)
        if r <= best[1]:  # <= so ties break toward larger delta
            best = (delta, r)
    return best


def cmd_ngamma(p: Params) -> tuple[list[str], list[list]]:
    d = p.get("dim", 20, int)
    seed = p.require("seed", int)
    gamma = p.get("gamma", 0.1, float)
    default_grid = "0.9:1.15:0.05" if d == 20 else ("2.0:2.3:0.05" if d == 50 else None)
    grid_text = p.get("r_grid", default_grid)
    if grid_text is None:
        raise CliError("missing required field --r-grid (no default for this --dim)")
    r_values = _parse_grid(grid_text) if isinstance(grid_text, str) else grid_text
    deltas = _delta_grid(p)
    n_targets = p.get("targets", 10_000, int)
    n_designs = p.get("designs", 2, int)
    n_cap = p.get("cap", 2**22, int)
    threads = p.get("threads", 1, int)
    stream = SeededStream(seed)

    columns = ["r", "n_full_cube", "n_delta_cube", "delta_star", "n_asym"]
    rows = []
    for j, r in enumerate(r_values):
        full = empirical_n_gamma(d, r, SamplingScheme.uniform(d, 1.0), gamma, stream.child(2 * j),
                                 n_targets=n_targets, n_designs=n_designs, n_cap=n_cap, threads=threads)
        best, _ = empirical_n_gamma_best_delta(d, r, gamma, stream.child(2 * j + 1), deltas=deltas,
                                               n_targets=n_targets, n_designs=n_designs, n_cap=n_cap,
                                               initial_cap=full.n if full.status == "ok" else None,
                                               threads=threads)
        asym = n_gamma_asymptotic(d, r, gamma)
        n_asym = "inf" if asym.overflowed else str(round(asym.value))
        rows.append([r, full.csv_value(), best.csv_value(),
                     "NA" if best.is_na else f"{best.delta:.10g}", n_asym])
    return columns, rows


def cmd_intersect(p: Params) -> tuple[list[str], list[list]]:
    d = p.require("dim", int)
    seed = p.require("seed", int)
    u_text = str(p.get("u", "0.5"))
    u_vals = [float(tok) for tok in u_text.split(",")]
    if len(u_vals) == 1:
        u = np.full(d, u_vals[0])
    elif len(u_vals) == d:
        u = np.array(u_vals)
    else:
        raise CliError(f"--u must be a scalar or {d} comma-separated coordinates")
    delta = p.get("delta", 1.0, float)
    alpha = p.get("alpha", 1.0, float)
    inner = p.get("inner", 100_000, int)
    stream = SeededStream(seed)

    columns = ["r", "mc_oracle", "mc_std_error", "clt", "edgeworth1", "err_clt", "err_edgeworth1"]
    rows = []
    for j, r in enumerate(_r_grid(p)):
        oracle = mc_intersection_oracle(u, delta, alpha, r, inner, stream.child(j))
        clt = clt_probability(u, delta, alpha, r)
        edg = edgeworth_probability(u, delta, alpha, r, EdgeworthConfig(order=1))
        rows.append([r, oracle.value, oracle.std_error, clt, edg,
                     abs(clt - oracle.value), abs(edg - oracle.value)])
    return columns, rows


def cmd_kappa(p: Params) -> tuple[list[str], list[list]]:
    d = p.require("dim", int)
    seed = p.require("seed", int)
    r = p.require("r", float)
    delta = p.get("delta", 1.0, float)
    n_outer = p.get("targets", 2000, int)
    n_inner = p.get("inner", 2000, int)
    bins = p.get("bins", 50, int)
    sample = kappa_density_sample(d, r, delta, n_outer, n_inner, SeededStream(seed))
    hist, edges = np.histogram(sample, bins=bins, range=(0.0, max(1.0, float(sample.max()))), density=True)
    rows = [[float(edges[i]), float(edges[i + 1]), float(hist[i])] for i in range(len(hist))]
    return ["bin_lo", "bin_hi", "density"], rows


def cmd_sobol_compare(p: Params) -> tuple[list[str], list[list]]:
    seed = p.require("seed", int)
    n = p.get("n", 1024, int)
    gamma = p.get("gamma", 0.1, float)
    dims = [int(t) for t in str(p.get("dims", "5,10,15,20")).split(",")]
    n_targets = p.get("targets", 20_000, int)
    n_designs = p.get("designs", 2, int)
    threads = p.get("threads", 1, int)
    deltas = _delta_grid(p, default_delta_grid(0.1))
    stream = SeededStream(seed)
    if n & (n - 1):
        print(f"[cubecover] note: n={n} is not a power of two; Sobol balance is best at n=2^m",
              file=sys.stderr)

    columns = ["d", "r", "f_uniform", "f_uniform_se", "f_sobol", "f_sobol_se",
               "delta_star", "f_uniform_dstar", "f_sobol_dstar", "ratio_dstar"]
    rows = []
    for j, d in enumerate(dims):
        sub = stream.child(j)
        r = p.get("r", None, float) or asymptotic_radius(d, n, gamma)
        prior = TargetPrior.uniform(d)
        f_u = _averaged_coverage(d, n, r, 1.0, prior, sub.child(0), n_designs, n_targets, threads)
        f_s = _sobol_coverage(d, n, r, 1.0, prior, sub.child(1), n_targets, threads)
        sweep = delta_sweep(d, n, r, prior, 1.0, deltas, sub.child(2),
                            n_targets=max(2000, n_targets // 4), n_designs=1, threads=threads)
        ds = sweep.best_delta
        f_ud = _averaged_coverage(d, n, r, ds, prior, sub.child(3), n_designs, n_targets, threads)
        f_sd = _sobol_coverage(d, n, r, ds, prior, sub.child(4), n_targets, threads)
        ratio = f_ud.value / f_sd.value if f_sd.value > 0 else math.inf
        rows.append([d, r, f_u.value, f_u.std_error, f_s.value, f_s.std_error,
                     ds, f_ud.value, f_sd.value, ratio])
    return columns, rows


def _averaged_coverage(d, n, r, delta, prior, stream, n_designs, n_targets, threads) -> CoverageEstimate:
    query = CoverageQuery(d, r, n, SamplingScheme.uniform(d, delta), prior)
    d2 = nearest_distance_sample(query, n_designs, n_targets, stream, threads=threads)
    per = (d2 <= r * r).mean(axis=1)
    value = float(per.mean())
    se = float(per.std(ddof=1) / math.sqrt(n_designs)) if n_designs > 1 else binomial_std_error(value, n_targets)
    return CoverageEstimate(value, se, n_targets, n_designs, "design_averaged")


def _sobol_coverage(d, n, r, delta, prior, stream, n_targets, threads) -> CoverageEstimate:
    query = CoverageQuery(d, r, n, SamplingScheme.sobol(d, delta), prior)
    design = sample_design(query.scheme, n, stream)
    return coverage_design_conditional(query, design, n_targets, stream.child(0), threads=threads)


def cmd_delta_sweep(p: Params) -> tuple[list[str], list[list]]:
    d = p.require("dim", int)
    n = p.require("n", int)
    r = p.require("r", float)
    seed = p.require("seed", int)
    res = delta_sweep(
        d, n, r, _prior(p, d), p.get("alpha", 1.0, float), _delta_grid(p), SeededStream(seed),
        n_targets=p.get("targets", 20_000, int),
        n_designs=p.get("designs", 1, int),
        threads=p.get("threads", 1, int),
    )
    rows = [[delta, est.value, est.std_error, int(delta == res.best_delta)]
            for delta, est in res.grid]
    return ["delta", "coverage", "std_error", "is_best"], rows


def cmd_design(p: Params) -> tuple[list[str], list[list]]:
    d = p.require("dim", int)
    n = p.require("n", int)
    seed = p.require("seed", int)
    scheme = _scheme(p, d)
    stream = SeededStream(seed)
    if scheme.kind is SchemeKind.VERTEX_DESIGN and p.get("hamming_nmax", None, int):
        design = min_hamming_vertex_design(d, p.get("hamming_nmax", None, int), stream)
        if design.shortfall:
            print(f"[cubecover] hamming design shortfall: only {design.n} points found", file=sys.stderr)
    else:
        design = sample_design(scheme, n, stream)
    columns = [f"x{j}" for j in range(d)]
    return columns, [list(map(float, row)) for row in design.points]


_COMMANDS = {
    "coverage": cmd_coverage,
    "table1": cmd_table1,
    "ngamma": cmd_ngamma,
    "intersect": cmd_intersect,
    "kappa": cmd_kappa,
    "sobol-compare": cmd_sobol_compare,
    "delta-sweep": cmd_delta_sweep,
    "radius": cmd_radius,
    "design": cmd_design,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cubecover",
                                     description="Weak-covering experiments on [0,1]^d")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--dim", type=int)
        sp.add_argument("--dims", type=str, help="comma list (sobol-compare)")
        sp.add_argument("--n", type=int)
        sp.add_argument("--r", type=float)
        sp.add_argument("--r-grid", dest="r_grid", type=str)
        sp.add_argument("--delta", type=float)
        sp.add_argument("--delta-grid", dest="delta_grid", type=str)
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--gamma", type=float)
        sp.add_argument("--scheme", type=str, choices=["uniform", "beta", "sobol", "vertex"])
        sp.add_argument("--prior", type=str, choices=["uniform", "beta"])
        sp.add_argument("--targets", type=int)
        sp.add_argument("--inner", type=int)
        sp.add_argument("--designs", type=int)
        sp.add_argument("--cells", type=str, help="d:n list (table1)")
        sp.add_argument("--cap", type=int, help="largest n searched (ngamma)")
        sp.add_argument("--bins", type=int)
        sp.add_argument("--u", type=str, help="ball center: scalar or comma vector (intersect)")
        sp.add_argument("--bounds", action="store_const", const=True, default=None,
                        help="add Jensen bound columns (coverage)")
        sp.add_argument("--hamming-nmax", dest="hamming_nmax", type=int)
        sp.add_argument("--sweep-targets", dest="sweep_targets", type=int)
        sp.add_argument("--seed", type=int, help="master seed (required; no wall-clock default)")
        sp.add_argument("--threads", type=int)
        sp.add_argument("--out", type=str)
        sp.add_argument("--config", type=str)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    params = Params(args)
    started = time.perf_counter()
    try:
        columns, rows = _COMMANDS[args.command](params)
        seed = params.require("seed", int)
    except CliError as exc:
        print(f"cubecover {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"cubecover {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FloatingPointError, OverflowError, RuntimeError) as exc:
        print(f"cubecover {args.command}: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(args, args.command, seed, columns, rows)
    print(f"[cubecover] {args.command} finished in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
