"""Benchmark of the cubecover command line, end to end and layer by layer.

Each workload is one cubecover CLI command (see ``workloads.py``), run
through ``cubecover.cli.main(argv)`` in child processes, with the
benchmark's ``--seed`` passed on and the output written to scratch files
inside the checkout.

    python3 perfbench/run.py --workload radius-table --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --compare BEFORE.txt AFTER.txt

``--trace 0`` repeats the command untraced in one fresh child process and
reports the median ``wall_s`` and ``cpu_s``, the child's ``peak_rss_mb`` and
the median ``setup_s`` (fresh-process import of ``cubecover.cli``).
``--trace 1`` alternates untraced and traced runs, one child process each, and
reports the per-layer metrics of ``tracer.py``, the per-module import times
from ``python -X importtime`` and the tracing overhead.  Every output is
checked, and every run of one seed must write byte-identical files.  The last
stdout line is the JSON result; the line before it, starting with
``{"perfbench_record"``, carries samples and host provenance, and
``--compare`` reads those lines from two captured result sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import tracer
from workloads import WORKLOADS, parse_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_IMPORTS = 5
IMPORTTIME_RUNS = 3
# one run must end within 180 s, whatever the workload does
RUN_DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
MODULES = ["cubecover", "cubecover.cli", "cubecover.solvers", "cubecover.coverage",
           "cubecover.geometry", "cubecover.sampling", "cubecover.streams",
           "cubecover.intersect", "cubecover.sobol", "cubecover.estimates"]


class ChildError(Exception):
    """A child process failed, printed garbage or ran out of time."""


class Session:
    """Child processes of one workload run, under one shared deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ, **THREAD_ENV)

    def child(self, mode: str, *args: str, flags: tuple[str, ...] = ()) -> tuple[dict, str]:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildError("run deadline reached")
        cmd = [sys.executable, *flags, str(HERE / "child.py"), mode, str(SRC), *args]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildError(f"{mode} child killed after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise ChildError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr
        except (IndexError, json.JSONDecodeError) as exc:
            raise ChildError(f"{mode} child printed no result") from exc

    def import_time(self) -> float:
        return self.child("import")[0]["import_s"]

    def module_import_times(self) -> dict[str, float]:
        """Cumulative import seconds of each cubecover module, from -X importtime."""
        _, stderr = self.child("import", flags=("-X", "importtime"))
        out = {}
        for line in stderr.splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cumulative, name = line[len("import time:"):].split("|")
                if name.strip() in MODULES:
                    out[name.strip()] = int(cumulative) / 1e6
        return out


def _median(values):
    return statistics.median(values) if values else None


def _keep_going(started: float, elapsed: list[float], seconds: float, minimum: int) -> bool:
    if len(elapsed) < minimum:
        return True
    return time.monotonic() - started + statistics.median(elapsed) <= seconds


class Attempts:
    """Repetitions of one workload and seed, and the failures they show.

    A repetition fails when the child does not finish or cubecover exits
    nonzero, when the output fails the workload's checks or differs from the
    first output of the seed, or when a traced run's call counts differ from
    those the workload implies.
    """

    def __init__(self, session: Session, workload, seed: int):
        self.session, self.workload, self.seed = session, workload, seed
        self.argv = workload.argv + ["--seed", str(seed)]
        self.count = 0
        self.first: bytes | None = None
        self.check_problems: list[str] = []
        self.failures: list[list[str]] = []

    def __call__(self, mode: str) -> dict | None:
        """Run the command once; its measurements, or None when it did not finish."""
        self.count += 1
        out = self.session.work / f"{mode}{self.count}.csv"
        spans = self.session.work / f"{mode}{self.count}.spans.json"
        args = [json.dumps(self.argv + ["--out", str(out)])] + ([str(spans)] if mode == "trace" else [])
        try:
            res, _ = self.session.child(mode, *args)
        except ChildError as exc:
            self.failures.append([str(exc)])
            return None
        if res["rc"] != 0:
            self.failures.append([f"cubecover exited {res['rc']}"])
            return None
        problems = self._check(out.read_bytes())
        if mode == "trace":
            res["layers"] = tracer.layer_metrics(json.loads(spans.read_text()))
            problems += [f"trace self-check: {name} = {res['layers'][name]:g}, expected {want}"
                         " (a namespace binding the function was not wrapped)"
                         for name, want in self.workload.expect.items() if res["layers"][name] != want]
        if problems:
            self.failures.append(problems)
        return res

    def repeat(self, seconds: float) -> dict | None:
        """Repetitions in one child (see ``child.repeat``); None when it did not finish."""
        out_dir = self.session.work / "repeat"
        out_dir.mkdir()
        try:
            res, _ = self.session.child("repeat", json.dumps(self.argv), str(out_dir), f"{seconds:.3f}")
        except ChildError as exc:
            self.count += 1
            self.failures.append([str(exc)])
            return None
        for i, rc in enumerate(res["rc"]):
            self.count += 1
            if rc != 0:
                self.failures.append([f"cubecover exited {rc}"])
                continue
            problems = self._check((out_dir / f"rep{i}.csv").read_bytes())
            if problems:
                self.failures.append(problems)
        return res

    def _check(self, data: bytes) -> list[str]:
        if self.first is None:
            self.first = data
            try:
                self.check_problems = self.workload.check(parse_csv(data.decode()), self.seed)
            except (ValueError, KeyError) as exc:
                self.check_problems = [f"unreadable output: {exc}"]
        elif data != self.first:
            return ["output differs from the first run of this seed"]
        return list(self.check_problems)


def measure(session: Session, workload, seed: int, seconds: float) -> dict:
    """Untraced repetitions in one child process until ``seconds`` are used.

    The child's first repetition is an untimed warm-up: it compiles bytecode,
    fills the page cache and gives the reference output for the byte-identity
    check.  The reported times are medians over the timed repetitions.
    """
    started = time.monotonic()
    attempt = Attempts(session, workload, seed)
    setup = [session.import_time() for _ in range(SETUP_IMPORTS)]
    reps = attempt.repeat(seconds - (time.monotonic() - started))
    if reps is None:
        samples = {"setup_s": setup}
    else:
        samples = {"wall_s": reps["wall_s"][1:], "cpu_s": reps["cpu_s"][1:],
                   "peak_rss_mb": [reps["peak_rss_mb"]], "setup_s": setup + [reps["import_s"]]}
    return {"metrics": {k: _median(v) for k, v in samples.items()}, "samples": samples,
            "attempted": attempt.count, "failures": attempt.failures}


def measure_traced(session: Session, workload, seed: int, seconds: float) -> dict:
    """Pairs of untraced and traced repetitions after a warm-up, alternating which goes first."""
    started = time.monotonic()
    attempt = Attempts(session, workload, seed)
    attempt("run")
    imports = [session.module_import_times() for _ in range(IMPORTTIME_RUNS)]
    walls = {"run": [], "trace": []}
    layers, pair_elapsed = [], []
    while _keep_going(started, pair_elapsed, seconds, 1):
        pair_started = time.monotonic()
        for mode in ("run", "trace") if len(pair_elapsed) % 2 == 0 else ("trace", "run"):
            res = attempt(mode)
            if res is not None:
                walls[mode].append(res["wall_s"])
                if mode == "trace":
                    layers.append(res["layers"])
        pair_elapsed.append(time.monotonic() - pair_started)

    metrics = {name: _median([layer[name] for layer in layers]) for name in (layers[0] if layers else {})}
    for module in MODULES:
        short = module.split(".")[-1]
        metrics[f"setup.import.{short}_s"] = _median([t[module] for t in imports if module in t])
    if walls["run"] and walls["trace"]:
        metrics["trace.overhead_s"] = _median(walls["trace"]) - _median(walls["run"])
    return {"metrics": metrics, "samples": {"untraced_wall_s": walls["run"], "traced_wall_s": walls["trace"]},
            "attempted": attempt.count, "failures": attempt.failures}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    return "GFLOP/s" if name.endswith("gflops") else "count"


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout
        return int(out.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def host_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV} | {"child": THREAD_ENV},
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, host: dict) -> dict:
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        result = (measure_traced if trace else measure)(Session(work), workload, seed, seconds)
    except ChildError as exc:  # an import-only child failed: the package does not import
        result = {"metrics": {}, "samples": {}, "attempted": 1, "failures": [[str(exc)]]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(result["failures"])
    # the CLI runs one thread unless the command passes --threads
    threads = int(workload.argv[workload.argv.index("--threads") + 1]) if "--threads" in workload.argv else 1
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "host": host | {"cli_threads": threads},
              "metrics": {k: v for k, v in result["metrics"].items() if v is not None},
              "samples": result["samples"], "attempted": result["attempted"], "failed": failed,
              "failed_share": failed / max(result["attempted"], 1), "failures": result["failures"]}

    print(f"perfbench {name} seed={seed} trace={trace}: "
          f"{record['attempted']} runs attempted, {failed} failed")
    for metric, value in record["metrics"].items():
        print(f"  {metric:44s} {value:14.6g} {unit_of(metric)}")
    print(f"  {'failed_share':44s} {record['failed_share']:14.6g} ratio")
    for problems in result["failures"]:
        print(f"  FAILED: {'; '.join(problems)}")
    return record


def result_line(records: list[dict], prefix: bool) -> dict:
    metrics = {}
    for rec in records:
        for metric, value in rec["metrics"].items():
            key = f"{rec['workload']}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": unit_of(metric)}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


# -- compare mode ------------------------------------------------------------

def _load_records(path: str) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith('{"perfbench_record"'):
                rec = json.loads(line)["perfbench_record"]
                if rec["trace"] == 0:
                    out.setdefault(rec["workload"], []).append(rec)
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str) -> int:
    """Per workload and end-to-end metric: medians, quartiles, pair wins, verdict.

    A side wins a pair when its value is lower (every end-to-end metric is
    lower-is-better); pairs match runs of the same seed, else runs in order.
    A difference is resolved when one side wins at least nine tenths of the
    pairs and the medians differ by more than A's quartile spread.
    """
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    a, b = _load_records(path_a), _load_records(path_b)
    shared = sorted(set(a) & set(b))
    if not shared:
        print("no workload has untraced records on both sides", file=sys.stderr)
        return 2
    print(f"A = {path_a}\nB = {path_b}")
    for name in shared:
        by_seed_b = {r["seed"]: r for r in b[name]}
        if all(r["seed"] in by_seed_b for r in a[name]):
            pairs = [(r, by_seed_b[r["seed"]]) for r in a[name]]
        else:
            pairs = list(zip(a[name], b[name]))
        print(f"\n{name}: {len(a[name])} runs in A, {len(b[name])} in B, {len(pairs)} pairs")
        for metric, unit in END_TO_END.items():
            va = [r["metrics"][metric] for r in a[name] if metric in r["metrics"]]
            vb = [r["metrics"][metric] for r in b[name] if metric in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = _quartiles(va), _quartiles(vb)
            valid = [(x["metrics"][metric], y["metrics"][metric]) for x, y in pairs
                     if metric in x["metrics"] and metric in y["metrics"]]
            wins_b = sum(1 for x, y in valid if y < x)
            wins_a = sum(1 for x, y in valid if x < y)
            spread, diff = qa[2] - qa[0], qb[1] - qa[1]
            if valid and wins_b >= 0.9 * len(valid) and -diff > spread:
                verdict = "resolved: B better"
            elif valid and wins_a >= 0.9 * len(valid) and diff > spread:
                verdict = "resolved: B worse"
            else:
                verdict = "unresolved"
            bound = bounds.get(metric)
            if bound is not None and spread > bound * qa[1] and max(vb) >= min(va):
                verdict = "unresolved: A's spread exceeds the bound"
            elif bound is not None:
                verdict += ", beyond bound" if diff > bound * qa[1] else ", within bound"
            print(f"  {metric:12s} A {qa[1]:10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
                  f"B {qb[1]:10.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {unit:3s} "
                  f"B wins {wins_b}/{len(valid)}  {verdict}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two files of captured benchmark output")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if not (SRC / "cubecover" / "cli.py").is_file():
        print(f"perfbench: no cubecover sources under {SRC}", file=sys.stderr)
        return 2

    host = host_info()
    print("perfbench host: " + json.dumps(host))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seed = args.seed % 2**63  # SeededStream takes 64-bit unsigned seeds
    records = [run_workload(name, seed, args.seconds, args.trace, host) for name in names]
    for rec in records:
        print(json.dumps({"perfbench_record": rec}))
    print(json.dumps(result_line(records, prefix=len(records) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
