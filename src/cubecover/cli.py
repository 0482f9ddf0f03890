"""Command-line front end: coverage experiments, radius/count tables,
intersection approximations and design dumps, emitted as CSV or JSON lines.

Every command is a pure function of its parameters and the master seed:
reruns are byte-identical, and ``--threads``, which only the commands that run
the distance kernel take, changes wall time only.  Wall times go to stderr,
never into output files.  Exit codes: 0 success, 2 validation error,
3 numeric or infeasibility error.
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
    _averaged_estimate,
    _paired_distance_sample,
    _product_form_estimate,
    coverage_design_averaged,
    coverage_design_conditional,
    jensen_bound_center,
    jensen_bound_refined,
    nearest_distance_sample,
)
from .estimates import CoverageEstimate
from .geometry import log_unit_ball_volume
from .intersect import (
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
)
from .solvers import (
    asymptotic_radius,
    default_delta_grid,
    delta_sweep,
    empirical_n_gamma,
    empirical_n_gamma_best_delta,
    empirical_radius_quantile,
    n_gamma_asymptotic,
    radius_table_cell,
)
from .streams import SeededStream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class CliError(ValueError):
    """Validation failure; maps to exit code 2 with the field named."""


def _number(text: str) -> float:
    """Every other float the CLI reads (radii, alpha, gamma) is finite and >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise CliError(f"must be finite and >= 0, got {text!r}")
    return value


def _delta(text: str) -> float:
    """The side of C_delta lies in (0, 1], so the cube lies inside [0,1]^d."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise CliError(f"must lie in (0, 1], got {text!r}")
    return value


def _threads(text: str) -> int:
    value = int(text)
    if value < 1:
        raise CliError(f"must be >= 1, got {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


def _bool(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise CliError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")
    return word in ("1", "true", "yes", "on")


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: 'a,b,c' or 'start:stop:step' (stop inclusive to 1e-9)."""
    ranged = ":" in text
    parts = text.split(":") if ranged else [p for p in text.split(",") if p]
    if ranged and len(parts) != 3:
        raise CliError(f"grid {text!r} must be start:stop:step or a comma list")
    if not parts:
        raise CliError(f"grid {text!r} is empty")
    values = [_number(p) for p in parts]
    if not ranged:
        return values
    start, stop, step = values
    if step <= 0 or stop < start:
        raise CliError(f"grid {text!r} has a nonpositive step or stop < start")
    k = int(math.floor((stop - start) / step + 1e-9))
    return [start + i * step for i in range(k + 1)]


# Each field's one conversion from text, shared by flags and config values;
# defaults stay at the call sites because some differ by command.
_FIELDS = {
    "dim": int, "dims": _int_list, "n": int, "r": _number, "r_grid": _parse_grid,
    "delta": _delta, "delta_grid": _parse_grid, "alpha": _number, "gamma": _number,
    "scheme": str, "prior": str, "targets": int, "inner": int, "designs": int,
    "cells": str, "cap": int, "bins": int, "u": _float_list, "bounds": _bool,
    "hamming_nmax": int, "sweep_targets": int,
    "seed": int, "threads": _threads, "out": str, "config": str,
}
_CHOICES = {"scheme": ("uniform", "beta", "sobol", "vertex"), "prior": ("uniform", "beta")}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _convert(name: str, text: str, where: str):
    try:
        value = _FIELDS[name](text)
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from exc
    if name in _CHOICES and value not in _CHOICES[name]:
        raise CliError(f"{where}: expected one of {'|'.join(_CHOICES[name])}, got {text!r}")
    return value


def _load_config(path: str, fields) -> dict:
    """``key = value`` (or ``key: value``) lines; every key must be one of ``fields``."""
    cfg = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                for sep in ("=", ":"):
                    if sep in line:
                        key, val = line.split(sep, 1)
                        key = key.strip().replace("-", "_")
                        if key not in _FIELDS or key == "config":
                            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
                        if key not in fields:
                            raise CliError(f"{path}:{lineno}: config key {key!r} is not read "
                                           f"by this command")
                        cfg[key] = _convert(key, val.strip(), f"{path}:{lineno}: {key}")
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
        fields = (*_COMMANDS[args.command][1], *_COMMON)
        self.cfg = _load_config(args.config, fields) if args.config else {}

    def get(self, name: str, default=None):
        # no getattr default: reading a field the command does not declare fails
        flag = getattr(self.args, name)
        if flag is not None:
            return _convert(name, flag, _flag(name))
        return self.cfg.get(name, default)

    def require(self, name: str):
        val = self.get(name)
        if val is None:
            raise CliError(f"missing required field {_flag(name)}")
        return val


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _emit(out: str | None, command: str, seed: int, columns: list[str], rows: list[list]) -> None:
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


def _scheme(p: Params, dimension: int, *, prior_reads_alpha: bool = False) -> SamplingScheme:
    """The design law; a delta or alpha that neither it nor the prior reads is an error.

    Commands with a ``prior`` field say whether it reads alpha; ``design``
    has none, and ``p.get("prior")`` would fail there.
    """
    kind = p.get("scheme", "uniform")
    if kind == "vertex" and p.get("delta") is not None:
        raise CliError("--delta is not read by --scheme vertex, whose cube is [1/4, 3/4]^d")
    if kind != "beta" and not prior_reads_alpha and p.get("alpha") is not None:
        raise CliError(f"--alpha is read only by --scheme beta or --prior beta, "
                       f"not by --scheme {kind}")
    delta = p.get("delta", 1.0)
    alpha = p.get("alpha", 1.0)
    if kind == "uniform":
        return SamplingScheme.uniform(dimension, delta)
    if kind == "beta":
        return SamplingScheme.beta(dimension, alpha, delta)
    if kind == "sobol":
        return SamplingScheme.sobol(dimension, delta)
    return SamplingScheme.vertex(dimension)


def _prior(p: Params, dimension: int) -> TargetPrior:
    if p.get("prior", "uniform") == "beta":
        return TargetPrior.product_beta(dimension, p.get("alpha", 0.5))
    return TargetPrior.uniform(dimension)


def _r_grid(p: Params) -> list[float]:
    grid = p.get("r_grid")
    if grid is not None:
        return grid
    r = p.get("r")
    if r is None:
        raise CliError("missing required field --r or --r-grid")
    return [r]


def _asymptotic_coverage(d: int, n: int, r: float) -> float:
    # F(n^{1/d} V_d^{1/d} r) = 1 - exp(-n V_d r^d)
    if r <= 0:
        return 0.0
    return -math.expm1(-n * math.exp(log_unit_ball_volume(d) + d * math.log(r)))


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_coverage(p: Params) -> tuple[list[str], list[list]]:
    d = p.require("dim")
    n = p.require("n")
    seed = p.require("seed")
    r_values = _r_grid(p)
    scheme = _scheme(p, d, prior_reads_alpha=p.get("prior") == "beta")
    prior = _prior(p, d)
    n_targets = p.get("targets", 20_000)
    n_designs = p.get("designs", 2)
    threads = p.get("threads", 1)
    with_bounds = p.get("bounds", False)
    stream = SeededStream(seed)

    query = CoverageQuery(d, max(r_values), n, scheme, prior)
    # a Sobol or vertex run scores one design, not an average over design draws
    d2 = nearest_distance_sample(query, n_designs if scheme.is_iid else 1, n_targets, stream,
                                 threads=threads, settle_radius=min(r_values))
    method = "design_averaged" if scheme.is_iid else "design_conditional"
    if with_bounds:
        pairs = _paired_distance_sample(query, max(n_targets, 10_000), stream.child(7))

    columns = ["r", "coverage", "std_error", "method", "asymptotic"]
    if with_bounds:
        columns += ["jensen_center", "jensen_refined", "product_form_approx"]
    rows = []
    for r in r_values:
        est = _averaged_estimate(d2, r)
        row = [r, est.value, est.std_error, method, _asymptotic_coverage(d, n, r)]
        if with_bounds:
            qr = query.with_radius(r)
            row += [jensen_bound_center(qr), jensen_bound_refined(qr),
                    _product_form_estimate(pairs, r, n).value]
        rows.append(row)
    return columns, rows


def cmd_radius(p: Params) -> tuple[list[str], list[list]]:
    d = p.require("dim")
    n = p.require("n")
    seed = p.require("seed")
    gamma = p.get("gamma", 0.1)
    scheme = _scheme(p, d, prior_reads_alpha=p.get("prior") == "beta")
    prior = _prior(p, d)
    r_emp = empirical_radius_quantile(
        d, n, scheme, prior, gamma, SeededStream(seed),
        n_targets=p.get("targets", 20_000),
        n_designs=p.get("designs", 2),
        threads=p.get("threads", 1),
    )
    return (["d", "n", "gamma", "r_empirical", "r_asymptotic"],
            [[d, n, gamma, r_emp, asymptotic_radius(d, n, gamma)]])


def cmd_table1(p: Params) -> tuple[list[str], list[list]]:
    seed = p.require("seed")
    gamma = p.get("gamma", 0.1)
    cells_text = p.get("cells", "10:1000,20:10000,50:100000")
    threads = p.get("threads", 1)
    n_targets = p.get("targets", 20_000)
    n_designs = p.get("designs", 2)
    sweep_targets = p.get("sweep_targets", max(2000, n_targets // 4))
    deltas = p.get("delta_grid", default_delta_grid(0.05))
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
        cell = radius_table_cell(d, n, gamma, deltas, stream.child(idx), n_targets=n_targets,
                                 n_designs=n_designs, sweep_targets=sweep_targets, threads=threads)
        warning = "low-budget" if gamma * n_targets < 200 else ""
        rows.append([d, n, gamma, cell.r_full_cube, cell.r_delta_cube, cell.delta_star, warning])
    return columns, rows


def cmd_ngamma(p: Params) -> tuple[list[str], list[list]]:
    d = p.get("dim", 20)
    seed = p.require("seed")
    gamma = p.get("gamma", 0.1)
    default_grid = {20: _parse_grid("0.9:1.15:0.05"), 50: _parse_grid("2.0:2.3:0.05")}.get(d)
    r_values = p.get("r_grid", default_grid)
    if r_values is None:
        raise CliError("missing required field --r-grid (no default for this --dim)")
    deltas = p.get("delta_grid", default_delta_grid(0.05))
    n_targets = p.get("targets", 10_000)
    n_designs = p.get("designs", 2)
    n_cap = p.get("cap", 2**22)
    threads = p.get("threads", 1)
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
    d = p.require("dim")
    seed = p.require("seed")
    u_vals = p.get("u", [0.5])
    if len(u_vals) == 1:
        u = np.full(d, u_vals[0])
    elif len(u_vals) == d:
        u = np.array(u_vals)
    else:
        raise CliError(f"--u must be a scalar or {d} comma-separated coordinates")
    delta = p.get("delta", 1.0)
    alpha = p.get("alpha", 1.0)
    inner = p.get("inner", 100_000)
    stream = SeededStream(seed)

    columns = ["r", "mc_oracle", "mc_std_error", "clt", "edgeworth1", "err_clt", "err_edgeworth1"]
    rows = []
    for j, r in enumerate(_r_grid(p)):
        oracle = mc_intersection_oracle(u, delta, alpha, r, inner, stream.child(j))
        clt = clt_probability(u, delta, alpha, r)
        edg = edgeworth_probability(u, delta, alpha, r, order=1)
        rows.append([r, oracle.value, oracle.std_error, clt, edg,
                     abs(clt - oracle.value), abs(edg - oracle.value)])
    return columns, rows


def cmd_kappa(p: Params) -> tuple[list[str], list[list]]:
    d = p.require("dim")
    seed = p.require("seed")
    r = p.require("r")
    delta = p.get("delta", 1.0)
    n_outer = p.get("targets", 2000)
    n_inner = p.get("inner", 2000)
    bins = p.get("bins", 50)
    sample = kappa_density_sample(d, r, delta, n_outer, n_inner, SeededStream(seed))
    hist, edges = np.histogram(sample, bins=bins, range=(0.0, max(1.0, float(sample.max()))), density=True)
    rows = [[float(edges[i]), float(edges[i + 1]), float(hist[i])] for i in range(len(hist))]
    return ["bin_lo", "bin_hi", "density"], rows


def cmd_sobol_compare(p: Params) -> tuple[list[str], list[list]]:
    seed = p.require("seed")
    n = p.get("n", 1024)
    gamma = p.get("gamma", 0.1)
    dims = p.get("dims", [5, 10, 15, 20])
    n_targets = p.get("targets", 20_000)
    n_designs = p.get("designs", 2)
    threads = p.get("threads", 1)
    deltas = p.get("delta_grid", default_delta_grid(0.1))
    r_flag = p.get("r")
    if r_flag is not None and r_flag <= 0:
        raise CliError(f"--r must be > 0, got {r_flag}")
    stream = SeededStream(seed)
    if n & (n - 1):
        print(f"[cubecover] note: n={n} is not a power of two; Sobol balance is best at n=2^m",
              file=sys.stderr)

    columns = ["d", "r", "f_uniform", "f_uniform_se", "f_sobol", "f_sobol_se",
               "delta_star", "f_uniform_dstar", "f_sobol_dstar", "ratio_dstar"]
    rows = []
    for j, d in enumerate(dims):
        sub = stream.child(j)
        r = asymptotic_radius(d, n, gamma) if r_flag is None else r_flag
        prior = TargetPrior.uniform(d)
        f_u = coverage_design_averaged(CoverageQuery.uniform(d, r, n), n_designs, n_targets,
                                       sub.child(0), threads=threads)
        f_s = _sobol_coverage(d, n, r, 1.0, prior, sub.child(1), n_targets, threads)
        sweep = delta_sweep(d, n, r, prior, 1.0, deltas, sub.child(2),
                            n_targets=max(2000, n_targets // 4), n_designs=1, threads=threads)
        ds = sweep.best_delta
        f_ud = coverage_design_averaged(CoverageQuery.uniform(d, r, n, ds), n_designs, n_targets,
                                        sub.child(3), threads=threads)
        f_sd = _sobol_coverage(d, n, r, ds, prior, sub.child(4), n_targets, threads)
        ratio = f_ud.value / f_sd.value if f_sd.value > 0 else math.inf
        rows.append([d, r, f_u.value, f_u.std_error, f_s.value, f_s.std_error,
                     ds, f_ud.value, f_sd.value, ratio])
    return columns, rows


def _sobol_coverage(d, n, r, delta, prior, stream, n_targets, threads) -> CoverageEstimate:
    query = CoverageQuery(d, r, n, SamplingScheme.sobol(d, delta), prior)
    design = sample_design(query.scheme, n, stream)
    return coverage_design_conditional(query, design, n_targets, stream.child(0), threads=threads)


def cmd_delta_sweep(p: Params) -> tuple[list[str], list[list]]:
    d = p.require("dim")
    n = p.require("n")
    r = p.require("r")
    seed = p.require("seed")
    res = delta_sweep(
        d, n, r, _prior(p, d), p.get("alpha", 1.0), p.get("delta_grid", default_delta_grid(0.05)),
        SeededStream(seed),
        n_targets=p.get("targets", 20_000),
        n_designs=p.get("designs", 1),
        threads=p.get("threads", 1),
    )
    rows = [[delta, est.value, est.std_error, int(delta == res.best_delta)]
            for delta, est in res.grid]
    return ["delta", "coverage", "std_error", "is_best"], rows


def cmd_design(p: Params) -> tuple[list[str], list[list]]:
    d = p.require("dim")
    seed = p.require("seed")
    scheme = _scheme(p, d)
    stream = SeededStream(seed)
    hamming_nmax = p.get("hamming_nmax")
    if hamming_nmax is None:
        design = sample_design(scheme, p.require("n"), stream)
    else:
        if scheme.kind is not SchemeKind.VERTEX_DESIGN:
            raise CliError(f"--hamming-nmax is read only by --scheme vertex, "
                           f"not by --scheme {p.get('scheme', 'uniform')}")
        if p.get("n") is not None:
            raise CliError("--n is not read with --hamming-nmax, which finds the design size itself")
        design = min_hamming_vertex_design(d, hamming_nmax, stream)
        if design.shortfall:
            print(f"[cubecover] hamming design shortfall: only {design.n} points found", file=sys.stderr)
    columns = [f"x{j}" for j in range(d)]
    return columns, [list(map(float, row)) for row in design.points]


_SCHEME = ("scheme", "delta", "alpha")
_COMMON = ("seed", "out")  # read by every command, as is --config
_COMMANDS = {  # command: (function, the fields it reads besides _COMMON and config)
    "coverage": (cmd_coverage, ("dim", "n", "r", "r_grid", *_SCHEME, "prior", "targets",
                                "designs", "bounds", "threads")),
    "table1": (cmd_table1, ("gamma", "cells", "targets", "designs", "sweep_targets",
                            "delta_grid", "threads")),
    "ngamma": (cmd_ngamma, ("dim", "gamma", "r_grid", "delta_grid", "targets", "designs",
                            "cap", "threads")),
    "intersect": (cmd_intersect, ("dim", "u", "delta", "alpha", "inner", "r", "r_grid")),
    "kappa": (cmd_kappa, ("dim", "r", "delta", "targets", "inner", "bins")),
    "sobol-compare": (cmd_sobol_compare, ("n", "gamma", "dims", "targets", "designs",
                                          "delta_grid", "r", "threads")),
    "delta-sweep": (cmd_delta_sweep, ("dim", "n", "r", "prior", "alpha", "delta_grid",
                                      "targets", "designs", "threads")),
    "radius": (cmd_radius, ("dim", "n", "gamma", *_SCHEME, "prior", "targets", "designs",
                            "threads")),
    "design": (cmd_design, ("dim", "n", *_SCHEME, "hamming_nmax")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cubecover",
                                     description="Weak-covering experiments on [0,1]^d")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, fields) in _COMMANDS.items():
        # no abbreviations: ngamma --r must not become --r-grid
        sp = sub.add_parser(command, allow_abbrev=False)
        for name in (*fields, *_COMMON, "config"):
            if _FIELDS[name] is _bool:
                sp.add_argument(_flag(name), dest=name, action="store_const", const="1")
            else:
                sp.add_argument(_flag(name), dest=name, choices=_CHOICES.get(name))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        params = Params(args)
        columns, rows = _COMMANDS[args.command][0](params)
        seed = params.require("seed")
        out = params.get("out")
    except ValueError as exc:
        print(f"cubecover {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FloatingPointError, OverflowError, RuntimeError) as exc:
        print(f"cubecover {args.command}: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(out, args.command, seed, columns, rows)
    print(f"[cubecover] {args.command} finished in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
