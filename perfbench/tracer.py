"""Per-layer spans for cubecover, recorded from outside the package.

The traced child process calls :func:`install` after importing
``cubecover.cli``.  It replaces each public function listed in ``TRACED`` by a
wrapper in every ``cubecover`` namespace that binds it, because
``from .geometry import min_squared_distances`` copies the name into
``coverage``, ``solvers`` and ``cli``, so patching only the defining module
would miss those calls.  Spans ``[name, start, end, parent, attrs]`` stay in
memory and are written out once the command returns; :func:`layer_metrics`
turns them into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

import numpy as np


def _pair(args) -> dict:
    m, d = _rows_dim(args["targets"])
    n, _ = _rows_dim(args["points"])
    return {"m": m, "n": n, "d": d}


def _rows_dim(x) -> tuple[int, int]:
    shape = np.shape(x)
    return (1, shape[0]) if len(shape) == 1 else (shape[0], shape[1])


def _draw(args) -> dict:
    return {"n": int(args["n"]), "numbers": int(args["n"]) * int(args["dimension"])}


def _targets(args) -> dict:
    return {"numbers": int(args["n"]) * int(args["prior"].dimension)}


def _oracle(args) -> dict:
    return {"samples": int(args["n_samples"])}


def _grid(result) -> dict:
    _, per_delta = result
    return {"cells": len(per_delta),
            "pruned": sum(1 for _, res in per_delta if res.status == "pruned")}


# (span name, defining module, function, attrs from bound arguments, attrs from result)
TRACED = [
    ("geometry.min_sq", "cubecover.geometry", "min_squared_distances", _pair, None),
    ("geometry.first_hit", "cubecover.geometry", "first_hit_index", _pair, None),
    ("solvers.radius", "cubecover.solvers", "empirical_radius_quantile", None, None),
    ("solvers.n_gamma", "cubecover.solvers", "empirical_n_gamma", None, None),
    ("solvers.n_gamma_grid", "cubecover.solvers", "empirical_n_gamma_best_delta", None, _grid),
    ("coverage.nearest_distance_sample", "cubecover.coverage", "nearest_distance_sample", None, None),
    ("coverage.bounds", "cubecover.coverage", "jensen_bound_center", None, None),
    ("coverage.bounds", "cubecover.coverage", "jensen_bound_refined", None, None),
    ("coverage.bounds", "cubecover.coverage", "product_form_approximation", None, None),
    ("sampling.draw", "cubecover.sampling", "draw_delta_cube", _draw, None),
    ("sampling.targets", "cubecover.sampling", "sample_targets", _targets, None),
    ("intersect.mc_oracle", "cubecover.intersect", "mc_intersection_oracle", _oracle, None),
    ("intersect.kappa", "cubecover.intersect", "kappa_density_sample", None, None),
    ("intersect.edgeworth", "cubecover.intersect", "edgeworth_probability", None, None),
    ("intersect.edgeworth", "cubecover.intersect", "clt_probability", None, None),
    ("intersect.edgeworth", "cubecover.intersect", "ball_probability_batch", None, None),
]

# Generator constructions: the two SeededStream methods that build one.
TRACED_METHODS = [("streams.generator", "generator"), ("streams.generator", "jumped")]


class Recorder:
    """In-memory span list; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, fn, args_attrs=None, result_attrs=None):
        # positional arguments are matched to parameter names by hand:
        # Signature.bind costs more than some of the calls it would time
        names = list(inspect.signature(fn).parameters) if args_attrs else []

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            attrs = args_attrs({**dict(zip(names, args)), **kwargs}) if args_attrs else {}
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if result_attrs:
                attrs.update(result_attrs(result))
            return result

        return traced


def _rebind(original, replacement) -> None:
    """Point every cubecover-namespace name bound to ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "cubecover" or modname.startswith("cubecover.")):
            continue
        namespace = vars(module)
        for key in [k for k, v in namespace.items() if v is original]:
            namespace[key] = replacement


def install(recorder: Recorder) -> None:
    """Wrap the traced functions, the SeededStream methods and the KD-tree."""
    for name, modname, attr, args_attrs, result_attrs in TRACED:
        original = getattr(sys.modules[modname], attr)
        _rebind(original, recorder.wrap(name, original, args_attrs, result_attrs))

    stream_cls = sys.modules["cubecover.streams"].SeededStream
    for name, attr in TRACED_METHODS:
        setattr(stream_cls, attr, recorder.wrap(name, getattr(stream_cls, attr)))

    geometry = sys.modules["cubecover.geometry"]
    build = recorder.wrap("geometry.kdtree.build", geometry.cKDTree)
    query = recorder.wrap("geometry.kdtree.query", lambda tree, *a, **k: tree.query(*a, **k))

    class TracedKDTree:
        def __init__(self, *args, **kwargs):
            self._tree = build(*args, **kwargs)

        def query(self, *args, **kwargs):
            return query(self._tree, *args, **kwargs)

    _rebind(geometry.cKDTree, TracedKDTree)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times from one traced command.

    ``busy_s`` is inclusive span time, ``self_s`` is that minus the time of
    direct child spans (children run on the parent's thread, so they never
    overlap).  ``gflops`` is 2*m*n*d summed over nearest-distance calls that
    did not build a KD-tree, divided by their busy time: computed from
    argument shapes, not counted by hardware.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    kd_parents = set()
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            if name == "geometry.kdtree.build":
                kd_parents.add(parent)

    def under(i: int, name: str) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def select(name: str) -> list[int]:
        return [i for i, sp in enumerate(spans) if sp[0] == name]

    def busy(idx) -> float:
        return sum(dur[i] for i in idx)

    def self_time(idx) -> float:
        return sum(dur[i] - child[i] for i in idx)

    def total(idx, key) -> int:
        return sum(spans[i][4].get(key, 0) for i in idx)

    out: dict[str, float] = {}
    min_sq = select("geometry.min_sq")
    blas = [i for i in min_sq if i not in kd_parents]
    flops = sum(2.0 * spans[i][4]["m"] * spans[i][4]["n"] * spans[i][4]["d"] for i in blas)
    out["geometry.min_sq.calls"] = len(min_sq)
    out["geometry.min_sq.busy_s"] = busy(min_sq)
    out["geometry.min_sq.pairs"] = sum(spans[i][4]["m"] * spans[i][4]["n"] for i in min_sq)
    out["geometry.min_sq.gflops"] = flops / busy(blas) / 1e9 if blas else 0.0

    first_hit = select("geometry.first_hit")
    out["geometry.first_hit.calls"] = len(first_hit)
    out["geometry.first_hit.busy_s"] = busy(first_hit)
    out["geometry.first_hit.pairs_offered"] = sum(spans[i][4]["m"] * spans[i][4]["n"] for i in first_hit)

    kd_build = select("geometry.kdtree.build")
    out["geometry.kdtree.calls"] = len(kd_build)
    out["geometry.kdtree.busy_s"] = busy(kd_build) + busy(select("geometry.kdtree.query"))

    radius = select("solvers.radius")
    out["solvers.radius.calls"] = len(radius)
    out["solvers.radius.busy_s"] = busy(radius)
    out["solvers.radius.self_s"] = self_time(radius)
    out["cli.self_s"] = self_time(select("cli"))

    n_gamma = select("solvers.n_gamma")
    grids = select("solvers.n_gamma_grid")
    draws = select("sampling.draw")
    out["solvers.n_gamma.calls"] = len(n_gamma)
    out["solvers.n_gamma.busy_s"] = busy(n_gamma)
    out["solvers.n_gamma.self_s"] = self_time(n_gamma)
    out["solvers.n_gamma.points_grown"] = total([i for i in draws if under(i, "solvers.n_gamma")], "n")
    out["solvers.n_gamma.cells"] = total(grids, "cells")
    out["solvers.n_gamma.cells_pruned"] = total(grids, "pruned")

    nds = select("coverage.nearest_distance_sample")
    out["coverage.nearest_distance_sample.calls"] = len(nds)
    out["coverage.nearest_distance_sample.busy_s"] = busy(nds)
    out["coverage.nearest_distance_sample.self_s"] = self_time(nds)
    out["coverage.bounds.busy_s"] = busy(select("coverage.bounds"))

    targets = select("sampling.targets")
    out["sampling.draw.calls"] = len(draws)
    out["sampling.draw.busy_s"] = busy(draws)
    out["sampling.draw.numbers"] = total(draws, "numbers")
    out["sampling.targets.calls"] = len(targets)
    out["sampling.targets.busy_s"] = busy(targets)
    out["sampling.targets.numbers"] = total(targets, "numbers")

    generators = select("streams.generator")
    out["streams.generators"] = len(generators)
    out["streams.busy_s"] = busy(generators)

    oracle = select("intersect.mc_oracle")
    out["intersect.mc_oracle.calls"] = len(oracle)
    out["intersect.mc_oracle.busy_s"] = busy(oracle)
    out["intersect.mc_oracle.samples"] = total(oracle, "samples")
    for layer in ("kappa", "edgeworth"):
        idx = select(f"intersect.{layer}")
        out[f"intersect.{layer}.calls"] = len(idx)
        out[f"intersect.{layer}.busy_s"] = busy(idx)
    return out
