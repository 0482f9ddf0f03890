"""The benchmark's workloads: one cubecover CLI command each, the checks its
output must pass for any seed, and the call counts its traced run must show.

Every flag given is one the command reads.  ``--threads 2`` goes to the
commands that take it, while the child runs with BLAS and OpenMP pinned to
one thread, so the program's own chunk pool is what gets measured and two
thread pools never share the two cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def parse_csv(text: str) -> list[dict[str, str]]:
    """Rows of a cubecover CSV output (provenance line, header, data)."""
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# cubecover="):
        raise ValueError("output is not a cubecover CSV file")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged CSV row")
    return rows


def _near(value: float, centre: float, tol: float) -> bool:
    return abs(value - centre) <= tol + 1e-12


def check_radius_table(rows, seed) -> list[str]:
    # acceptance cells: (r_full, tolerance, delta*) for d = 10 and d = 20
    expect = {10: (0.61, 0.02, 0.9), 20: (1.01, 0.03, 0.8)}
    problems = []
    seen = {int(row["d"]) for row in rows}
    if seen != set(expect):
        problems.append(f"table1 cells {sorted(seen)}, expected {sorted(expect)}")
    for row in rows:
        d = int(row["d"])
        if d not in expect:
            continue
        r0, tol, delta0 = expect[d]
        r_full, delta = float(row["r_full_cube"]), float(row["delta_star"])
        if not _near(r_full, r0, tol):
            problems.append(f"d={d}: r_full_cube {r_full} not in {r0}+-{tol}")
        if not _near(delta, delta0, 0.1):
            problems.append(f"d={d}: delta_star {delta} not in {delta0}+-0.1")
    return problems


def check_ngamma(rows, seed) -> list[str]:
    by_r = {round(float(row["r"]), 6): row for row in rows}
    if sorted(by_r) != [2.0, 2.1, 2.3]:
        return [f"ngamma radii {sorted(by_r)}, expected [2.0, 2.1, 2.3]"]
    problems = []
    paper = by_r[2.1]
    n_full = int(paper["n_full_cube"])
    if not _near(n_full, 10_000, 1_500):
        problems.append(f"r=2.1: n_full_cube {n_full} not in 10000+-15%")
    if paper["n_delta_cube"] == "NA" or not 30 <= int(paper["n_delta_cube"]) <= 80:
        problems.append(f"r=2.1: n_delta_cube {paper['n_delta_cube']} not in [30, 80]")
    elif not _near(float(paper["delta_star"]), 0.3, 0.1):
        problems.append(f"r=2.1: delta_star {paper['delta_star']} not in 0.3+-0.1")
    if by_r[2.3]["n_delta_cube"] != "NA" or by_r[2.3]["delta_star"] != "NA":
        problems.append(f"r=2.3: expected NA, got {by_r[2.3]['n_delta_cube']}")
    fulls = [by_r[r]["n_full_cube"] for r in (2.0, 2.1, 2.3)]
    if "NA" in fulls or not int(fulls[0]) > int(fulls[1]) > int(fulls[2]):
        problems.append(f"n_full_cube {fulls} does not decrease in r")
    return problems


def check_coverage(rows, seed) -> list[str]:
    rows = sorted(rows, key=lambda row: float(row["r"]))
    cov = [float(row["coverage"]) for row in rows]
    problems = []
    if any(b < a for a, b in zip(cov, cov[1:])):
        problems.append(f"coverage {cov} decreases in r")
    for row in rows:
        if float(row["coverage"]) > float(row["jensen_center"]):
            problems.append(f"r={row['r']}: coverage above jensen_center")
    at = [float(row["coverage"]) for row in rows if _near(float(row["r"]), 1.96, 1e-6)]
    # 0.05 in coverage is the acceptance tolerance 0.03 on the 90% radius,
    # times the slope of F near r = 1.96
    if len(at) != 1 or not _near(at[0], 0.90, 0.05):
        problems.append(f"coverage at r=1.96 is {at}, expected 0.90+-0.05")
    return problems


KAPPA_DIM, KAPPA_R, KAPPA_TARGETS = 10, 0.5, 8000
KAPPA_REFERENCE_PAIRS = 4_000_000


def kappa_reference(seed: int) -> tuple[float, float]:
    """Mean of kappa_U and its standard error from independent paired draws.

    E_U kappa_U = P{||U - X|| <= r} / (r^d V_d) for U, X uniform on [0,1]^d,
    estimated here with numpy's own generator, not cubecover's streams.
    """
    rng = np.random.default_rng([seed, 0x6B617070])
    chunk, hits = 250_000, 0
    for _ in range(KAPPA_REFERENCE_PAIRS // chunk):
        diff = rng.random((chunk, KAPPA_DIM)) - rng.random((chunk, KAPPA_DIM))
        hits += int(np.count_nonzero(np.einsum("ij,ij->i", diff, diff) <= KAPPA_R**2))
    p = hits / KAPPA_REFERENCE_PAIRS
    log_ball = (KAPPA_DIM * math.log(KAPPA_R) + 0.5 * KAPPA_DIM * math.log(math.pi)
                - math.lgamma(0.5 * KAPPA_DIM + 1.0))
    ball = math.exp(log_ball)
    return p / ball, math.sqrt(p * (1.0 - p) / KAPPA_REFERENCE_PAIRS) / ball


def check_kappa(rows, seed) -> list[str]:
    lo = np.array([float(row["bin_lo"]) for row in rows])
    hi = np.array([float(row["bin_hi"]) for row in rows])
    density = np.array([float(row["density"]) for row in rows])
    width = hi - lo
    problems = []
    mass = float(np.sum(density * width))
    if not _near(mass, 1.0, 1e-6):
        problems.append(f"kappa histogram integrates to {mass}")
    centres = 0.5 * (lo + hi)
    mean = float(np.sum(centres * density * width))
    spread = math.sqrt(max(float(np.sum((centres - mean) ** 2 * density * width)), 0.0))
    ref, ref_se = kappa_reference(seed)
    # bin centres move the mean by at most half a bin; both estimates are MC
    tol = 0.5 * float(width.max()) + 5.0 * math.hypot(spread / math.sqrt(KAPPA_TARGETS), ref_se)
    if not _near(mean, ref, tol):
        problems.append(f"kappa mean {mean:.4f} disagrees with paired-draw {ref:.4f} (tol {tol:.4f})")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    argv: list[str]
    check: Callable[[list[dict[str, str]], int], list[str]]
    # traced call counts the command's shape implies
    expect: dict[str, int] = field(default_factory=dict)


# table1, ngamma and coverage get target counts below their defaults, so that
# one repetition takes a few seconds and a run can take the median of several;
# design sizes, call counts and the engine each call reaches are unchanged.
WORKLOADS = {
    w.name: w
    for w in [
        # 48 mid-size min_squared_distances calls: the d=10 cell goes to the
        # KD-tree, the d=20 cell to BLAS; mechanism workload for the kernel
        # and the exact radius solver
        Workload("radius-table",
                 ["table1", "--cells", "10:1000,20:10000", "--targets", "8000",
                  "--sweep-targets", "2000", "--threads", "2"],
                 check_radius_table,
                 {"geometry.min_sq.calls": 48, "geometry.kdtree.calls": 24}),
        # first_hit_index on growing prefix designs with incumbent pruning;
        # a large cell (n ~ 48,000), the paper cell and an NA cell; no
        # min_sq calls
        Workload("ngamma-d50",
                 ["ngamma", "--dim", "50", "--r-grid", "2.0,2.1,2.3", "--targets", "5000",
                  "--threads", "2"],
                 check_ngamma,
                 {"geometry.min_sq.calls": 0}),
        # F_d at the paper's headline size: two min_sq calls against n=1e5
        # design points; 4096 targets are two full chunks, one per thread
        Workload("coverage-d50",
                 ["coverage", "--dim", "50", "--n", "100000", "--r-grid", "1.9:2.0:0.02",
                  "--targets", "4096", "--bounds", "--threads", "2"],
                 check_coverage,
                 {"geometry.min_sq.calls": 2}),
        # 8000 small MC-oracle calls, each building its own generator, and no
        # distance kernel: bypass workload for geometry, mechanism workload
        # for intersect and streams
        Workload("kappa-d10",
                 ["kappa", "--dim", str(KAPPA_DIM), "--r", str(KAPPA_R),
                  "--targets", str(KAPPA_TARGETS), "--inner", "4000"],
                 check_kappa,
                 {"intersect.mc_oracle.calls": KAPPA_TARGETS}),
    ]
}
