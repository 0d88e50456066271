"""Yardstick: the workload's set-up and a fixed task, run by a frozen netselect.

On a shared host the same task's wall time drifts by tens of percent over
minutes, and its CPU time drifts with it: other tenants slow the core, not
only take it away. A synthetic probe does not follow that drift closely,
because how much a core slows depends on the code it runs. So a timed run
measures the host with the workload's own code: ``frozen_src/netselect`` is
the package as it was when the benchmark was defined, and a worker process
importing it runs, on request, one fixed pool task of the workload or one
set-up round of it (``Workload.set_up``). ``run.py`` runs the yardstick
before the first task or set-up round and after every one, one process at a
time, and scales each by the mean of the two yardstick times around it:

    scaled seconds = seconds * REFERENCE_S[kind][workload] / yardstick seconds

so a task or a set-up round reads as it would on a host where its yardstick
takes ``REFERENCE_S`` seconds. A change to ``src/`` changes the task times and not
the yardstick, and moves the scaled times by the same factor as the raw
ones; a slower or faster host moves both. The worker is a separate process
so that the frozen copy does not share the package name, the imports or the
peak memory of the program under test.

    python3 perfbench/yardstick.py <workload> <work-dir>

is the worker: it sets the workload up under ``<work-dir>``, prints ``ready``
and then answers every ``task`` or ``setup`` line on standard input with the
wall seconds of one yardstick task or set-up round.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
FROZEN_SRC = HERE / "frozen_src"

#: Pool task the yardstick runs, and its samples: a half-size compare keeps
#: the yardstick to about a third of a compare_paths run.
TASK_INDEX = 0
SAMPLES = {"compare_paths": 25}
#: About the median yardstick seconds on the machine that defined the
#: benchmark; the medians of single runs moved by up to 35% with the load
#: of other tenants. Only the scale of the metrics depends on them.
REFERENCE_S = {
    "task": {"study_sbm": 1.3, "compare_paths": 1.1, "simulate_pool": 0.41,
             "elicit_loglinear": 4.4},
    "setup": {"study_sbm": 0.85, "compare_paths": 0.9, "simulate_pool": 0.75,
              "elicit_loglinear": 0.9},
}
KINDS = tuple(REFERENCE_S)
#: Seconds to wait for the worker to start or to exit.
TIMEOUT_S = 120


class Yardstick:
    """A running yardstick worker for one workload; use as a context manager."""

    def __init__(self, workload: str, work: Path):
        self.workload = workload
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(FROZEN_SRC), str(HERE)]))
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), workload, str(work)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
            cwd=HERE.parent)
        line = self.proc.stdout.readline().strip()
        if line != "ready":
            self.close()
            raise RuntimeError(f"yardstick worker for {workload} did not start")

    def measure(self, kind: str = "task") -> float:
        """Wall seconds of one yardstick task or set-up round (``kind``)."""
        self.proc.stdin.write(kind + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("yardstick worker exited")
        return float(line)

    def scale(self, seconds: float, yardstick_s: float, kind: str = "task") -> float:
        return seconds * REFERENCE_S[kind][self.workload] / yardstick_s

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Yardstick":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def worker(name: str, work: Path) -> int:
    import netselect
    from workloads import SAMPLES as TASK_SAMPLES, WORKLOADS

    if FROZEN_SRC not in Path(netselect.__file__).resolve().parents:
        raise SystemExit(f"yardstick imported {netselect.__file__}, not the frozen copy")
    workload = WORKLOADS[name]
    samples = SAMPLES.get(name, TASK_SAMPLES)
    reply = sys.stdout
    sys.stdout = sys.stderr  # keep the reply channel to the protocol lines
    task_work = work / "task"
    workload.set_up(task_work, FROZEN_SRC)
    print("ready", file=reply, flush=True)
    for count, line in enumerate(sys.stdin):
        kind = line.strip()
        if kind not in KINDS:
            raise SystemExit(f"yardstick worker: unknown request {kind!r}")
        start = time.perf_counter()
        if kind == "task":
            workload.run(task_work, TASK_INDEX, samples=samples)
        else:
            workload.set_up(work / f"setup-{count}", FROZEN_SRC)
        print(time.perf_counter() - start, file=reply, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(worker(sys.argv[1], Path(sys.argv[2])))
