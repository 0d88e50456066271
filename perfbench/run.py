"""netselect benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload compare_paths --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Workloads, their rationale and the per-layer predictions are in
perfbench/README.md; metric names and units are in BENCHMARK.json.

``--trace 0`` measures end-to-end metrics with tracing off: set-up, then a
closed loop that starts tasks until ``--seconds`` have passed, then the
output checks. Its times are scaled to a reference host speed by the
yardstick (yardstick.py): the workload's set-up and a fixed task, run by a
frozen copy of netselect around every set-up round and every task. The raw
seconds and the yardstick times are in the run record. ``--trace 1`` runs a fixed
set of tasks untraced and traced at one worker, times pool_map at two
workers and at one, and sweeps single layers at n=200 and n=1000; it prints
the per-layer metrics and writes the spans to ``.perfbench_out/``. The last
line of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, layer_metrics, layer_sweep, self_time_gap, timed_pool_calls
from yardstick import Yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Set-up is repeated this many times per run and its median reported.
SETUP_ROUNDS = 3
#: Tasks the traced run makes (each once untraced and once traced), and how
#: many of them simulate_pool also runs at two workers and at one to time
#: pool_map. Fixed, so every count of a traced run repeats exactly.
TRACE_TASKS = {"study_sbm": 4, "compare_paths": 2, "simulate_pool": 8,
               "elicit_loglinear": 2}
POOL_TASKS = 3
#: Distinct simulate_pool tasks of a timed run re-run at one worker to check
#: byte-identical output, after the timed loop.
DETERMINISM_TASKS = 2
#: Tolerance of the reference check on floating-point fields: loose enough
#: for a reordered sum or a log-space rewrite, tight enough that any change
#: to a draw or a feature value shows. Strings (decisions, "inf") must match
#: exactly.
REL_TOL = 1e-6
ABS_TOL = 1e-12
#: Largest |sum of layer self times - task wall| / task wall a trace may show.
SELF_TIME_TOLERANCE = 1e-9


@dataclass
class Task:
    index: int
    seconds: float
    error: str | None = None
    #: Mean yardstick seconds just before and just after the task or round.
    yardstick_s: float | None = None


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def matches(ref, got) -> bool:
    """True when ``got`` carries every field of ``ref`` with equal values.

    Keys of ``got`` absent from ``ref`` are ignored, so keys added to the
    outputs later are not failures. Numbers match within REL_TOL/ABS_TOL.
    """
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(
            k in got and matches(v, got[k]) for k, v in ref.items())
    if isinstance(ref, list):
        return (isinstance(got, list) and len(ref) == len(got)
                and all(matches(r, g) for r, g in zip(ref, got)))
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL))
    return ref == got


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def run_record(args) -> dict:
    """Machine, toolchain and source identity of this run."""
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    git_commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "netselect").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "caches": caches, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": {mod.__name__: _blas_name(mod) for mod in (numpy, scipy)},
        "blas_threads": _blas_threads(),
        "git_commit": git_commit, "source_sha256": digest.hexdigest(),
    }


def _blas_name(module) -> str | None:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _blas_threads() -> dict:
    """OpenBLAS thread count of each OpenBLAS library this process loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line and ".so" in line}
    except OSError:
        return {}
    out = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def set_up(workload, work_root: Path, rounds: int,
           yardstick: Yardstick | None = None) -> tuple[Path, list[Task]]:
    """``rounds`` set-up rounds (``Workload.set_up``), each timed as a Task.

    With a yardstick, each round is measured between two yardstick set-up
    rounds. Returns the last round's work directory and the rounds.
    """
    done = []
    before = yardstick.measure("setup") if yardstick else None
    for r in range(rounds):
        work = work_root / f"round-{r}"
        start = time.perf_counter()
        workload.set_up(work, SRC)
        done.append(Task(r, time.perf_counter() - start))
        if yardstick:
            after = yardstick.measure("setup")
            done[-1].yardstick_s = (before + after) / 2
            before = after
    return work, done


def run_task(workload, work: Path, index: int, reference: dict,
             threads: int | None = None) -> Task:
    """Run and check one task; the task's time excludes the check."""
    start = time.perf_counter()
    try:
        output = workload.run(work, index, threads=threads)
        seconds = time.perf_counter() - start
        if not matches(reference, workload.result(work, output)):
            return Task(index, seconds, "output differs from the reference")
    except Exception:  # a failing task is counted, not fatal
        return Task(index, time.perf_counter() - start, traceback.format_exc())
    return Task(index, seconds)


def check_determinism(workload, work: Path, tasks: list[Task]) -> None:
    """Mark pool tasks whose --threads 2 and --threads 1 output bytes differ."""
    seen = set()
    for task in tasks:
        if len(seen) == DETERMINISM_TASKS:
            break
        if task.error is None and task.index not in seen:
            seen.add(task.index)
            if not workload.same_bytes(work, task.index):
                task.error = "--threads 2 output differs from --threads 1"


def end_to_end(workload, work: Path, order: list[int], refs: list[dict],
               seconds: float, setup_rounds: list[Task],
               yardstick: Yardstick) -> tuple[list[Task], dict]:
    """Timed loop; each task is scaled by the yardstick around it."""
    tasks = []
    before = yardstick.measure()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        index = order[len(tasks) % len(order)]
        task = run_task(workload, work, index, refs[index])
        after = yardstick.measure()
        task.yardstick_s = (before + after) / 2
        before = after
        tasks.append(task)
    # Sampled while the yardstick worker runs: a child counts in
    # RUSAGE_CHILDREN only once waited for, so its memory is not the program's.
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if workload.threads > 1:
        check_determinism(workload, work, tasks)
    scaled = [yardstick.scale(t.seconds, t.yardstick_s) for t in tasks]
    return tasks, {
        "setup_s": statistics.median(
            yardstick.scale(r.seconds, r.yardstick_s, "setup") for r in setup_rounds),
        "task_s_p50": statistics.median(scaled),
        "draws_per_s": workload.draws_per_task * len(tasks) / sum(scaled),
        "rss_peak_mb": rss_kb / 1024.0,
    }


def traced(workload, work: Path, order: list[int], refs: list[dict],
           trace_path: Path) -> tuple[list[Task], dict, bool]:
    tracer = Tracer()
    plain, spanned = [], []
    for task_id, index in enumerate(order[:TRACE_TASKS[workload.name]]):
        plain.append(run_task(workload, work, index, refs[index], threads=1))
        tracer.install()
        tracer.task = task_id
        try:
            spanned.append(run_task(workload, work, index, refs[index], threads=1))
        finally:
            tracer.task = None
            tracer.uninstall()
    tracer.write(trace_path)
    metrics = layer_metrics(tracer)
    untraced_p50 = statistics.median(t.seconds for t in plain)
    metrics["trace_overhead_frac"] = (
        statistics.median(t.seconds for t in spanned) - untraced_p50) / untraced_p50

    pool = []
    starts = jobs = 0
    speedup = 0.0  # no pool on this workload
    if workload.threads > 1:
        wall = {1: 0.0, 2: 0.0}
        for index in order[:POOL_TASKS]:
            start = time.perf_counter()
            same = []
            calls = timed_pool_calls(
                lambda: same.append(workload.same_bytes(work, index)))
            pool.append(Task(index, time.perf_counter() - start,
                             None if same[0] else "--threads 2 output differs "
                             "from --threads 1"))
            for workers, n_jobs, seconds in calls:
                wall[workers] += seconds
                if workers > 1 and n_jobs > 1:
                    starts += 1
                    jobs += n_jobs
        speedup = wall[1] / wall[2]
    metrics["generators.pool_map.starts"] = starts
    metrics["generators.pool_map.jobs"] = jobs
    metrics["generators.pool_map.speedup"] = speedup
    metrics.update(layer_sweep())
    consistent = self_time_gap(tracer) <= SELF_TIME_TOLERANCE
    if not consistent:
        print("error: layer self times do not add up to task wall time",
              file=sys.stderr)
    return plain + spanned + pool, metrics, consistent


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "netselect" / "__init__.py").is_file():
        print(f"error: no netselect package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, task_order

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    refs = workload.references()
    order = task_order(args.seed, workload.pool_size)
    work_root = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    try:
        if args.trace:
            work, setup_rounds = set_up(workload, work_root, 1)
            trace_path = OUT_ROOT / f"trace-{workload.name}-seed{args.seed}.json"
            tasks, values, correct = traced(workload, work, order, refs, trace_path)
        else:
            with Yardstick(workload.name, work_root / "yardstick") as yardstick:
                work, setup_rounds = set_up(workload, work_root, SETUP_ROUNDS,
                                            yardstick)
                tasks, values = end_to_end(workload, work, order, refs,
                                           args.seconds, setup_rounds, yardstick)
            correct = True
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    if set(values) != set(units) or not all(map(valid_name, values)):
        print(f"error: measured metrics {sorted(values)} differ from those "
              f"BENCHMARK.json declares: {sorted(units)}", file=sys.stderr)
        return 2
    failed = [t for t in tasks if t.error is not None]
    for task in failed:
        print(f"task {task.index} failed: {task.error}", file=sys.stderr)
    record = run_record(args)
    record["tasks"] = [[t.index, t.seconds, t.yardstick_s] for t in tasks]
    record["setup_rounds"] = [[r.seconds, r.yardstick_s] for r in setup_rounds]
    record["wall_s"] = time.perf_counter() - PROCESS_START
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": correct and not failed,
        "attempted": len(tasks),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
