"""The benchmark's four workloads: fixtures, tasks and output checks.

Every workload is a closed loop: one caller runs one task at a time and
waits for it. A task is one call a user waits for -- one study row, one
``compare``, one ``simulate`` or one ``elicit`` -- made through netselect's
public entry points ``netselect.study.run_study_row`` and
``netselect.cli.main``. Both are looked up on their modules at call time, so
the span wrappers of the traced run (spans.py) see every call.

Each workload owns a fixed pool of ``pool_size`` tasks. Task ``i`` has its
own master seed, ``task_seed(name, i)``, and its result-carrying fields are
recorded in ``references/<name>.json`` by record.py. The workload seed of a
run only picks the order in which the run visits the pool (``task_order``),
so the same seed replays the same tasks and every task has a reference.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import netselect.cli
import netselect.study
from netselect import Sbm, derive_seed, sample_graph, write_edge_list

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "references"

#: Master seed of the task pools; changing it invalidates every reference.
POOL_SEED = 20200428

#: Prior-predictive samples per model (or per grid point) in a timed task,
#: and in the reduced task that warms caches during set-up.
SAMPLES = 100
WARMUP_SAMPLES = 4
#: compare_paths takes half as many: a 100-sample compare runs about 4.5 s,
#: too few to a run for a steady median on a shared host.
COMPARE_SAMPLES = 50

ALPHA_GRID = [2.9, 3.0, 3.1, 3.3, 3.5]
K_GRID = [8, 9, 10, 12]
CANDIDATES = [
    {"id": "alpha", "spec": {"type": "powerlaw", "n": 200,
                             "alpha": {"grid": {"values": ALPHA_GRID}},
                             "d_min": 1}},
    {"id": "k", "spec": {"type": "sbm", "n": 200,
                         "k": {"grid": {"values": K_GRID}},
                         "p_in": 0.3, "p_out": 0.03}},
]
WINDOWS = [{"param": "alpha", "lo": 2.9, "hi": 3.1},
           {"param": "k", "lo": 9, "hi": 9}]


class TaskFailed(Exception):
    """A task exited nonzero or produced output that does not match."""


def task_seed(name: str, index: int) -> int:
    """Master seed of pool task ``index`` of workload ``name``."""
    key = sum(ord(c) for c in name)
    return derive_seed(POOL_SEED, key, index) % (1 << 32)


def task_order(seed: int, pool_size: int) -> list[int]:
    """The order in which a run with workload seed ``seed`` visits the pool."""
    return random.Random(seed).sample(range(pool_size), pool_size)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _cli(argv: list[str]) -> None:
    try:
        code = netselect.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags by exiting
        code = exc.code
    if code != 0:
        raise TaskFailed(f"netselect {argv[0]} exited with code {code}")


class Workload:
    """One workload: its fixtures, how to run a task, and what to check.

    ``run`` is the timed call; ``result`` turns its output into the
    JSON-shaped fields that references store, outside the timed region.
    """

    name: str
    draws_per_task: int
    pool_size: int
    threads = 1

    def write_fixtures(self, work: Path) -> None:
        """Write the spec, config and graph files the tasks read."""

    def run(self, work: Path, index: int, samples: int = SAMPLES,
            threads: int | None = None, seed: int | None = None):
        raise NotImplementedError

    def result(self, work: Path, output) -> dict:
        raise NotImplementedError

    def warm_up(self, work: Path) -> None:
        self.run(work, 0, samples=WARMUP_SAMPLES, seed=POOL_SEED)

    def set_up(self, work: Path, src: Path) -> None:
        """One set-up round: a fresh interpreter importing the package from
        ``src`` (process start to exit), the fixture files in a new ``work``
        directory, and a warm-up task."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", "import netselect.cli, netselect.study"],
                       env=env, check=True)
        work.mkdir(parents=True)
        self.write_fixtures(work)
        self.warm_up(work)

    def references(self) -> list[dict]:
        path = REFERENCE_DIR / f"{self.name}.json"
        return json.loads(path.read_text(encoding="utf-8"))["tasks"]


class StudySbm(Workload):
    """``run_study_row`` on the acceptance criterion-2 row, workers=1."""

    name = "study_sbm"
    draws_per_task = SAMPLES * (len(ALPHA_GRID) + len(K_GRID))
    pool_size = 64

    def _config(self, samples: int, seed: int):
        return netselect.study.parse_study_config({
            "n_samples": samples, "seed": seed,
            "candidates": CANDIDATES, "windows": WINDOWS,
            "rows": [{"data": {"id": "k", "spec": {
                          "type": "sbm", "n": 200, "k": 10,
                          "p_in": 0.3, "p_out": 0.03}},
                      "features": ["block_count", "degree_entropy"],
                      "losses": ["quadratic"]}],
        })

    def run(self, work, index, samples=SAMPLES, threads=None, seed=None):
        seed = task_seed(self.name, index) if seed is None else seed
        config = self._config(samples, seed)
        results = netselect.study.run_study_row(config.rows[0], config, 0,
                                                workers=threads or self.threads)
        return config, results

    def result(self, work, output):
        config, results = output
        rows = netselect.study.study_results_json(config, results)["rows"]
        return {"rows": [{"loss": r["loss"], "loss_ratio": r["loss_ratio"],
                          "windows": r["windows"]} for r in rows]}


class ComparePaths(Workload):
    """``netselect compare --threads 1``: SBM against ER on path features."""

    name = "compare_paths"
    draws_per_task = 2 * COMPARE_SAMPLES
    #: Small enough that a run of about fifteen tasks makes each of them, so
    #: the seed changes the order of the tasks more than their mix.
    pool_size = 8
    data_spec = Sbm(200, 4, p_in=0.1, p_out=0.01)

    def write_fixtures(self, work):
        _write_json(work / "sbm.json", {"type": "sbm", "n": 200, "k": 4,
                                        "p_in": 0.1, "p_out": 0.01})
        _write_json(work / "er.json", {"type": "er", "n": 200,
                                       "p": {"uniform": [0.02, 0.05]}})
        for i in range(self.pool_size):
            rng = np.random.default_rng(task_seed(self.name + ".data", i))
            graph = sample_graph(self.data_spec, rng)
            (work / f"data-{i}.tsv").write_text(write_edge_list(graph),
                                                encoding="utf-8")

    def run(self, work, index, samples=COMPARE_SAMPLES, threads=None, seed=None):
        seed = task_seed(self.name, index) if seed is None else seed
        out = work / "compare.json"
        _cli(["compare", "--data", str(work / f"data-{index}.tsv"),
              "--model", str(work / "sbm.json"),
              "--model2", str(work / "er.json"),
              "--features", "diameter,triangle_count,global_clustering",
              "--samples", str(samples), "--seed", str(seed),
              "--threads", str(threads or self.threads), "--out", str(out)])
        return out

    def result(self, work, output):
        report = json.loads(output.read_text(encoding="utf-8"))
        return {
            "features": [{k: f[k] for k in ("kind", "evidence_1", "evidence_2",
                                            "bayes_factor", "loss_ratio")}
                         for f in report["features"]],
            "posterior_odds": report["posterior_odds"],
            "decision": report["decision"],
        }


class SimulatePool(Workload):
    """``netselect simulate --threads 2`` on the power-law row.

    Its output must also equal the ``--threads 1`` output of the same task
    byte for byte (``same_bytes``): the repo's determinism contract.
    """

    name = "simulate_pool"
    draws_per_task = SAMPLES * (len(ALPHA_GRID) + len(K_GRID))
    pool_size = 160
    threads = 2

    def write_fixtures(self, work):
        _write_json(work / "study.json", {
            "n_samples": SAMPLES, "seed": 0,
            "candidates": CANDIDATES, "windows": WINDOWS,
            "rows": [{"data": {"id": "alpha", "spec": {
                          "type": "powerlaw", "n": 200,
                          "alpha": {"point": 3.2}, "d_min": 1}},
                      "features": ["power_law_exponent"],
                      "losses": ["quadratic"]}],
        })

    def run(self, work, index, samples=SAMPLES, threads=None, seed=None):
        seed = task_seed(self.name, index) if seed is None else seed
        threads = threads or self.threads
        out = work / f"simulate-t{threads}.csv"
        _cli(["simulate", "--config", str(work / "study.json"),
              "--samples", str(samples), "--seed", str(seed),
              "--threads", str(threads), "--out", str(out)])
        return out

    def result(self, work, output):
        rows = csv.DictReader(io.StringIO(output.read_text(encoding="utf-8")))
        windows = [w for w in rows.fieldnames if w.startswith("P(")]
        return {"rows": [{"loss": r["loss"], "loss_ratio": float(r["loss_ratio"]),
                          **{w: float(r[w]) for w in windows}} for r in rows]}

    def same_bytes(self, work: Path, index: int) -> bool:
        """Whether the task's ``--threads 2`` and ``--threads 1`` outputs are equal."""
        two = self.run(work, index, threads=2).read_bytes()
        return self.run(work, index, threads=1).read_bytes() == two


class ElicitLoglinear(Workload):
    """``netselect elicit``: log-linear (MH sampler) against ER at n=40."""

    name = "elicit_loglinear"
    draws_per_task = 2 * SAMPLES
    pool_size = 24

    def write_fixtures(self, work):
        _write_json(work / "loglinear.json", {
            "type": "loglinear", "n": 40, "lambda": 1.0,
            "terms": [{"weight": -2.0, "f": "edge_count"},
                      {"weight": 0.2, "f": "triangle_count"}]})
        _write_json(work / "er.json", {"type": "er", "n": 40,
                                       "p": {"uniform": [0.10, 0.18]}})

    def run(self, work, index, samples=SAMPLES, threads=None, seed=None):
        seed = task_seed(self.name, index) if seed is None else seed
        out = work / "elicit.json"
        _cli(["elicit", "--model", str(work / "loglinear.json"),
              "--model2", str(work / "er.json"),
              "--range", "link_density:0.10:0.17",
              "--range", "global_clustering:0.15:0.25",
              "--samples", str(samples), "--seed", str(seed),
              "--threads", str(threads or self.threads), "--out", str(out)])
        return out

    def result(self, work, output):
        report = json.loads(output.read_text(encoding="utf-8"))
        return {"ranges": [
            {"feature": r["feature"], "lo": r["lo"], "hi": r["hi"],
             "per_model": {m: {"probability": p["probability"]}
                           for m, p in r["per_model"].items()}}
            for r in report["ranges"]]}


WORKLOADS = {w.name: w for w in (StudySbm(), ComparePaths(), SimulatePool(),
                                 ElicitLoglinear())}
