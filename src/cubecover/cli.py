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
    asymptotic_coverage,
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
    """Every other float the CLI reads (radii, alpha, grid values) is finite and >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise CliError(f"must be finite and >= 0, got {text!r}")
    return value


def _gamma(text: str) -> float:
    """The miss level gamma lies in (0, 1); NaN fails the comparison too."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise CliError(f"must lie in (0, 1), got {text!r}")
    return value


def _unit_sides(values: list[float], text: str) -> list[float]:
    """The side of C_delta lies in (0, 1], so the cube lies inside [0,1]^d."""
    if not all(0.0 < v <= 1.0 for v in values):
        raise CliError(f"must lie in (0, 1], got {text!r}")
    return values


def _delta(text: str) -> float:
    return _unit_sides([float(text)], text)[0]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise CliError(f"must be >= 1, got {text!r}")
    return value


def _positive_ints(text: str) -> list[int]:
    return [_positive_int(tok) for tok in text.split(",")]


def _cube_coordinates(text: str) -> list[float]:
    """Coordinates of a point of [0,1]^d, each in [0, 1]."""
    values = [float(tok) for tok in text.split(",")]
    if not all(0.0 <= v <= 1.0 for v in values):
        raise CliError(f"must lie in [0, 1], got {text!r}")
    return values


def _bool(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise CliError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")
    return word in ("1", "true", "yes", "on")


_GRID_MAX_VALUES = 10_000


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: 'a,b,c' or 'start:stop:step' (stop inclusive to 1e-9).

    A range is counted before it is built, and may hold at most
    ``_GRID_MAX_VALUES`` values.
    """
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
    span = (stop - start) / step + 1e-9  # inf for a step far below the range
    if span >= _GRID_MAX_VALUES:
        raise CliError(f"grid {text!r} has more than {_GRID_MAX_VALUES} values")
    k = int(math.floor(span))
    return [start + i * step for i in range(k + 1)]


def _delta_grid(text: str) -> list[float]:
    return _unit_sides(_parse_grid(text), text)


# Each field's one conversion from text, shared by flags and config values;
# defaults live in _COMMANDS because some differ by command.
_FIELDS = {
    "dim": _positive_int, "dims": _positive_ints, "n": _positive_int, "r": _number,
    "r_grid": _parse_grid, "delta": _delta, "delta_grid": _delta_grid, "alpha": _number,
    "gamma": _gamma, "scheme": str, "prior": str, "targets": _positive_int,
    "inner": _positive_int, "designs": _positive_int, "cells": str, "cap": _positive_int,
    "bins": _positive_int, "u": _cube_coordinates, "bounds": _bool,
    "hamming_nmax": _positive_int, "sweep_targets": _positive_int,
    "seed": int, "threads": _positive_int, "out": str, "config": str,
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


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Each field the command reads, once: the flag, else the config value, else
    the table default.  Reading a field the command does not declare fails."""
    fields = {**_COMMANDS[args.command][1], **_COMMON}
    cfg = _load_config(args.config, fields) if args.config else {}
    values = {}
    for name, default in fields.items():
        flag = getattr(args, name)
        if flag is not None:
            values[name] = _convert(name, flag, _flag(name))
        elif name in cfg:
            values[name] = cfg[name]
        elif default is _REQUIRED:
            raise CliError(f"missing required field {_flag(name)}")
        else:
            values[name] = default
    return argparse.Namespace(**values)


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


def _scheme(p: argparse.Namespace, dimension: int) -> SamplingScheme:
    """The design law; a delta or alpha that neither it nor the prior reads is an error.

    A beta prior reads alpha too, but only commands with a ``prior`` field
    have one (``design`` has none), and only their errors name it.
    """
    kind = p.scheme
    has_prior = "prior" in vars(p)
    if kind == "vertex" and p.delta is not None:
        raise CliError("--delta is not read by --scheme vertex, whose cube is [1/4, 3/4]^d")
    if kind != "beta" and p.alpha is not None and not (has_prior and p.prior == "beta"):
        readers = "--scheme beta or --prior beta" if has_prior else "--scheme beta"
        raise CliError(f"--alpha is read only by {readers}, not by --scheme {kind}")
    delta = 1.0 if p.delta is None else p.delta
    alpha = 1.0 if p.alpha is None else p.alpha
    if kind == "uniform":
        return SamplingScheme.uniform(dimension, delta)
    if kind == "beta":
        return SamplingScheme.beta(dimension, alpha, delta)
    if kind == "sobol":
        return SamplingScheme.sobol(dimension, delta)
    return SamplingScheme.vertex(dimension)


def _prior(p: argparse.Namespace, dimension: int) -> TargetPrior:
    if p.prior == "beta":
        return TargetPrior.product_beta(dimension, 0.5 if p.alpha is None else p.alpha)
    return TargetPrior.uniform(dimension)


def _designs(p: argparse.Namespace, scheme: SamplingScheme) -> int:
    """Design draws to average over: ``--designs``, by default 2 for an i.i.d.
    scheme; a Sobol or vertex run scores its one design, so reads no ``--designs``."""
    if p.designs is not None and not scheme.is_iid:
        raise CliError(f"--designs is read only by i.i.d. schemes, not by --scheme {p.scheme}")
    return (2 if scheme.is_iid else 1) if p.designs is None else p.designs


def _r_grid(p: argparse.Namespace) -> list[float]:
    if p.r is not None and p.r_grid is not None:
        raise CliError("--r and --r-grid were both given; give one of them")
    if p.r is None and p.r_grid is None:
        raise CliError("missing required field --r or --r-grid")
    return [p.r] if p.r_grid is None else p.r_grid


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_coverage(p: argparse.Namespace) -> tuple[list[str], list[list]]:
    d, n = p.dim, p.n
    r_values = _r_grid(p)
    scheme = _scheme(p, d)
    query = CoverageQuery(d, max(r_values), n, scheme, _prior(p, d))
    stream = SeededStream(p.seed)
    d2 = nearest_distance_sample(query, _designs(p, scheme), p.targets, stream,
                                 threads=p.threads, settle_radius=min(r_values))
    method = "design_averaged" if scheme.is_iid else "design_conditional"
    if p.bounds:
        pairs = _paired_distance_sample(query, max(p.targets, 10_000), stream.child(7))

    columns = ["r", "coverage", "std_error", "method", "asymptotic"]
    if p.bounds:
        columns += ["jensen_center", "jensen_refined", "product_form_approx"]
    rows = []
    for r in r_values:
        est = _averaged_estimate(d2, r)
        row = [r, est.value, est.std_error, method, asymptotic_coverage(d, n, r)]
        if p.bounds:
            qr = query.with_radius(r)
            row += [jensen_bound_center(qr), jensen_bound_refined(qr),
                    _product_form_estimate(pairs, r, n).value]
        rows.append(row)
    return columns, rows


def cmd_radius(p: argparse.Namespace) -> tuple[list[str], list[list]]:
    d, n = p.dim, p.n
    scheme = _scheme(p, d)
    r_emp = empirical_radius_quantile(d, n, scheme, _prior(p, d), p.gamma, SeededStream(p.seed),
                                      n_targets=p.targets, n_designs=_designs(p, scheme),
                                      threads=p.threads)
    return (["d", "n", "gamma", "r_empirical", "r_asymptotic"],
            [[d, n, p.gamma, r_emp, asymptotic_radius(d, n, p.gamma)]])


def cmd_table1(p: argparse.Namespace) -> tuple[list[str], list[list]]:
    sweep_targets = max(2000, p.targets // 4) if p.sweep_targets is None else p.sweep_targets
    stream = SeededStream(p.seed)

    cells = []
    for tok in p.cells.split(","):
        try:
            d_s, n_s = tok.split(":")
            cells.append((int(d_s), int(n_s)))
        except ValueError as exc:
            raise CliError(f"--cells entries must look like d:n, got {tok!r}") from exc
        if min(cells[-1]) < 1:
            raise CliError(f"--cells: d and n must be >= 1, got {tok!r}")

    columns = ["d", "n", "gamma", "r_full_cube", "r_delta_cube", "delta_star", "warning"]
    rows = []
    for idx, (d, n) in enumerate(cells):
        cell = radius_table_cell(d, n, p.gamma, p.delta_grid, stream.child(idx),
                                 n_targets=p.targets, n_designs=p.designs,
                                 sweep_targets=sweep_targets, threads=p.threads)
        warning = "low-budget" if p.gamma * p.targets < 200 else ""
        rows.append([d, n, p.gamma, cell.r_full_cube, cell.r_delta_cube, cell.delta_star, warning])
    return columns, rows


def cmd_ngamma(p: argparse.Namespace) -> tuple[list[str], list[list]]:
    d, gamma = p.dim, p.gamma
    default_grid = {20: _parse_grid("0.9:1.15:0.05"), 50: _parse_grid("2.0:2.3:0.05")}.get(d)
    r_values = default_grid if p.r_grid is None else p.r_grid
    if r_values is None:
        raise CliError("missing required field --r-grid (no default for this --dim)")
    stream = SeededStream(p.seed)
    budget = dict(n_targets=p.targets, n_designs=p.designs, n_cap=p.cap, threads=p.threads)

    columns = ["r", "n_full_cube", "n_delta_cube", "delta_star", "n_asym"]
    rows = []
    for j, r in enumerate(r_values):
        # child 2 * j, not j, keeps every n_full_cube of earlier output files;
        # the odd children are left unread
        sub = stream.child(2 * j)
        best, cells = empirical_n_gamma_best_delta(d, r, gamma, sub, deltas=p.delta_grid, **budget)
        full = dict(cells).get(1.0)  # the grid's delta = 1 cell is the full-cube search
        if full is None:
            full = empirical_n_gamma(d, r, SamplingScheme.uniform(d, 1.0), gamma, sub, **budget)
        rows.append([r, full.csv_value(), best.csv_value(),
                     "NA" if best.is_na else f"{best.delta:.10g}",
                     _fmt(n_gamma_asymptotic(d, r, gamma).value)])  # inf on overflow
    return columns, rows


def cmd_intersect(p: argparse.Namespace) -> tuple[list[str], list[list]]:
    d = p.dim
    if len(p.u) == 1:
        u = np.full(d, p.u[0])
    elif len(p.u) == d:
        u = np.array(p.u)
    else:
        raise CliError(f"--u must be a scalar or {d} comma-separated coordinates")
    stream = SeededStream(p.seed)

    columns = ["r", "mc_oracle", "mc_std_error", "clt", "edgeworth1", "err_clt", "err_edgeworth1"]
    rows = []
    for j, r in enumerate(_r_grid(p)):
        oracle = mc_intersection_oracle(u, p.delta, p.alpha, r, p.inner, stream.child(j))
        clt = clt_probability(u, p.delta, p.alpha, r)
        edg = edgeworth_probability(u, p.delta, p.alpha, r, order=1)
        rows.append([r, oracle.value, oracle.std_error, clt, edg,
                     abs(clt - oracle.value), abs(edg - oracle.value)])
    return columns, rows


def cmd_kappa(p: argparse.Namespace) -> tuple[list[str], list[list]]:
    sample = kappa_density_sample(p.dim, p.r, p.delta, p.targets, p.inner, SeededStream(p.seed))
    hist, edges = np.histogram(sample, p.bins, range=(0.0, max(1.0, float(sample.max()))), density=True)
    rows = [[float(edges[i]), float(edges[i + 1]), float(hist[i])] for i in range(len(hist))]
    return ["bin_lo", "bin_hi", "density"], rows


def cmd_sobol_compare(p: argparse.Namespace) -> tuple[list[str], list[list]]:
    n, n_targets, n_designs, threads = p.n, p.targets, p.designs, p.threads
    if p.r is not None and p.r <= 0:
        raise CliError(f"--r must be > 0, got {p.r}")
    stream = SeededStream(p.seed)
    if n & (n - 1):
        print(f"[cubecover] note: n={n} is not a power of two; Sobol balance is best at n=2^m",
              file=sys.stderr)

    columns = ["d", "r", "f_uniform", "f_uniform_se", "f_sobol", "f_sobol_se",
               "delta_star", "f_uniform_dstar", "f_sobol_dstar", "ratio_dstar"]
    rows = []
    for j, d in enumerate(p.dims):
        sub = stream.child(j)
        r = asymptotic_radius(d, n, p.gamma) if p.r is None else p.r
        prior = TargetPrior.uniform(d)
        f_u = coverage_design_averaged(CoverageQuery.uniform(d, r, n), n_designs, n_targets,
                                       sub.child(0), threads=threads)
        f_s = _sobol_coverage(d, n, r, 1.0, prior, sub.child(1), n_targets, threads)
        sweep = delta_sweep(d, n, r, prior, 1.0, p.delta_grid, sub.child(2),
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


def cmd_delta_sweep(p: argparse.Namespace) -> tuple[list[str], list[list]]:
    res = delta_sweep(p.dim, p.n, p.r, _prior(p, p.dim), 1.0 if p.alpha is None else p.alpha,
                      p.delta_grid, SeededStream(p.seed),
                      n_targets=p.targets, n_designs=p.designs, threads=p.threads)
    rows = [[delta, est.value, est.std_error, int(delta == res.best_delta)]
            for delta, est in res.grid]
    return ["delta", "coverage", "std_error", "is_best"], rows


def cmd_design(p: argparse.Namespace) -> tuple[list[str], list[list]]:
    d = p.dim
    scheme = _scheme(p, d)
    stream = SeededStream(p.seed)
    if p.hamming_nmax is None:
        if p.n is None:
            raise CliError("missing required field --n")
        design = sample_design(scheme, p.n, stream)
    else:
        if scheme.kind is not SchemeKind.VERTEX_DESIGN:
            raise CliError(f"--hamming-nmax is read only by --scheme vertex, "
                           f"not by --scheme {p.scheme}")
        if p.n is not None:
            raise CliError("--n is not read with --hamming-nmax, which finds the design size itself")
        design = min_hamming_vertex_design(d, p.hamming_nmax, stream)
        if design.shortfall:
            print(f"[cubecover] hamming design shortfall: only {design.n} points found", file=sys.stderr)
    columns = [f"x{j}" for j in range(d)]
    return columns, [list(map(float, row)) for row in design.points]


# Each command's fields besides _COMMON and config, with their defaults.
# _REQUIRED fields must be given; a None default means "not given" and is
# resolved by the command (a computed default, or a flag only some laws read).
_REQUIRED = object()
_COMMON = {"seed": _REQUIRED, "out": None}  # read by every command, as is --config
_SCHEME = {"scheme": "uniform", "delta": None, "alpha": None}
_DELTAS = tuple(default_delta_grid(0.05))
_COMMANDS = {
    "coverage": (cmd_coverage, {
        "dim": _REQUIRED, "n": _REQUIRED, "r": None, "r_grid": None, **_SCHEME,
        "prior": "uniform", "targets": 20_000, "designs": None, "bounds": False, "threads": 1}),
    "table1": (cmd_table1, {
        "gamma": 0.1, "cells": "10:1000,20:10000,50:100000", "targets": 20_000, "designs": 2,
        "sweep_targets": None, "delta_grid": _DELTAS, "threads": 1}),
    "ngamma": (cmd_ngamma, {
        "dim": 20, "gamma": 0.1, "r_grid": None, "delta_grid": _DELTAS, "targets": 10_000,
        "designs": 2, "cap": 2**22, "threads": 1}),
    "intersect": (cmd_intersect, {
        "dim": _REQUIRED, "u": (0.5,), "delta": 1.0, "alpha": 1.0, "inner": 100_000,
        "r": None, "r_grid": None}),
    "kappa": (cmd_kappa, {
        "dim": _REQUIRED, "r": _REQUIRED, "delta": 1.0, "targets": 2000, "inner": 2000,
        "bins": 50}),
    "sobol-compare": (cmd_sobol_compare, {
        "n": 1024, "gamma": 0.1, "dims": (5, 10, 15, 20), "targets": 20_000, "designs": 2,
        "delta_grid": tuple(default_delta_grid(0.1)), "r": None, "threads": 1}),
    "delta-sweep": (cmd_delta_sweep, {
        "dim": _REQUIRED, "n": _REQUIRED, "r": _REQUIRED, "prior": "uniform", "alpha": None,
        "delta_grid": _DELTAS, "targets": 20_000, "designs": 1, "threads": 1}),
    "radius": (cmd_radius, {
        "dim": _REQUIRED, "n": _REQUIRED, "gamma": 0.1, **_SCHEME, "prior": "uniform",
        "targets": 20_000, "designs": None, "threads": 1}),
    "design": (cmd_design, {"dim": _REQUIRED, "n": None, **_SCHEME, "hamming_nmax": None}),
}


def _help(default) -> str:
    if default is _REQUIRED:
        return "required"
    shown = ",".join(map(_fmt, default)) if isinstance(default, tuple) else _fmt(default)
    return "optional" if default is None else f"default: {shown}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cubecover",
                                     description="Weak-covering experiments on [0,1]^d")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, fields) in _COMMANDS.items():
        # no abbreviations: ngamma --r must not become --r-grid
        sp = sub.add_parser(command, allow_abbrev=False)
        for name, default in {**fields, **_COMMON}.items():
            kind = (dict(action="store_const", const="1") if _FIELDS[name] is _bool
                    else dict(choices=_CHOICES.get(name)))
            sp.add_argument(_flag(name), dest=name, help=_help(default), **kind)
        sp.add_argument("--config", help="file of 'key = value' lines; flags win over it")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        p = _resolve(args)
        columns, rows = _COMMANDS[args.command][0](p)
    except ValueError as exc:
        print(f"cubecover {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FloatingPointError, OverflowError, RuntimeError) as exc:
        print(f"cubecover {args.command}: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(p.out, args.command, p.seed, columns, rows)
    print(f"[cubecover] {args.command} finished in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
