"""One fresh process of the benchmark: import ``cubecover.cli``, then
optionally run commands through ``cubecover.cli.main(argv)``.

    python3 child.py import SRC
    python3 child.py repeat SRC ARGV_JSON OUT_DIR SECONDS
    python3 child.py run SRC ARGV_JSON
    python3 child.py trace SRC ARGV_JSON SPANS_JSON

Prints one JSON line with the import time.  ``repeat`` runs the command
again and again in this one process, writing repetition ``i`` to
``OUT_DIR/rep<i>.csv``: an untimed warm-up, then timed repetitions until
``SECONDS`` (counted from the process start) would be exceeded, at least two.
It adds per-repetition lists of exit codes, wall and CPU seconds, and the
process's peak RSS.  ``run`` and ``trace`` run the command once, untraced or
traced.  Nothing is imported before the timed import of ``cubecover.cli``
except the standard library, so the import time includes numpy and scipy.
"""

import json
import resource
import statistics
import sys
import time

MIN_TIMED_REPS = 2


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(entry, argv) -> tuple[int, float, float]:
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    rc = entry(argv)
    return rc, time.perf_counter() - wall0, _cpu_seconds() - cpu0


def repeat(cli, argv: list[str], out_dir: str, seconds: float, started: float) -> dict:
    """Warm-up and timed repetitions of one command in this process."""
    rcs, walls, cpus = [], [], []
    while True:
        rc, wall, cpu = _timed(cli.main, argv + ["--out", f"{out_dir}/rep{len(rcs)}.csv"])
        rcs.append(rc)
        walls.append(wall)
        cpus.append(cpu)
        if rc != 0:
            break
        timed = walls[1:]
        if len(timed) >= MIN_TIMED_REPS and \
                time.perf_counter() - started + statistics.median(timed) > seconds:
            break
    return {"rc": rcs, "wall_s": walls, "cpu_s": cpus, "peak_rss_mb": _peak_rss_mb()}


def main() -> None:
    started = time.perf_counter()
    mode, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import cubecover.cli as cli
    result = {"import_s": time.perf_counter() - start}

    if mode == "repeat":
        result.update(repeat(cli, json.loads(sys.argv[3]), sys.argv[4], float(sys.argv[5]), started))
    elif mode in ("run", "trace"):
        argv = json.loads(sys.argv[3])
        entry = cli.main
        if mode == "trace":
            import tracer

            recorder = tracer.Recorder()
            tracer.install(recorder)
            entry = recorder.wrap("cli", cli.main)
        result["rc"], result["wall_s"], result["cpu_s"] = _timed(entry, argv)
        result["peak_rss_mb"] = _peak_rss_mb()
        if mode == "trace":
            with open(sys.argv[4], "w") as fh:
                json.dump(recorder.spans, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
