"""Spans around netselect's layers, recorded from outside the package.

``Tracer.install`` replaces layer functions with timing wrappers at the call
sites the workloads go through: the module attribute that the calling module
looks up (``netselect.inference.sample_graph``,
``netselect.features.shortest_path_distances``, ``netselect.cli.main``, ...).
Each call records one span -- name, start, end, parent span and task id --
in memory; ``write`` saves them when the run ends. A span's name starts with
the module (layer) it measures: ``generators``, ``graph``, ``features``,
``inference``, ``study`` or ``cli``.

Spans recorded in forked pool workers stay in the workers and are lost, so a
traced run keeps every task at one worker.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("generators", "graph", "features", "inference", "study", "cli")

FEATURE_TOKENS = ("block_count", "degree_entropy", "power_law_exponent",
                  "diameter", "triangle_count", "global_clustering",
                  "link_density")
FAMILIES = ("er", "sbm", "powerlaw", "loglinear")


def _family(spec) -> str:
    return {"ErdosRenyi": "er", "Sbm": "sbm", "PowerLaw": "powerlaw",
            "LogLinear": "loglinear"}[type(spec).__name__]


def _mh_steps(spec) -> int:
    """Metropolis-Hastings steps behind one log-linear draw (count=1)."""
    from netselect.generators import default_burn_in, default_thin
    burn_in = spec.burn_in if spec.burn_in is not None else default_burn_in(spec.n)
    thin = spec.thin if spec.thin is not None else default_thin(spec.n)
    return burn_in + thin


class Tracer:
    """In-memory span recorder with the wrappers that feed it.

    A span is ``[name, start, end, parent, task]``; ``parent`` is the index
    of the enclosing span or None for a task's root span. Counts made at the
    same boundaries (graphs, edges, undefined features, MH steps) go to
    ``counts``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.task = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.task])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, after=None):
        """``fn`` recording one span per call while a task is set.

        ``name`` is a string or a function of the call's arguments; ``after``
        sees the arguments and the result, to make counts.
        """
        def wrapper(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            index = self._open(name if isinstance(name, str) else name(*args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(*args, result)
            return result
        return wrapper

    def _count_graph(self, spec, rng, graph) -> None:
        self.counts["generators.graphs"] += 1
        self.counts["generators.edges"] += graph.edge_count
        if _family(spec) == "loglinear":
            self.counts["generators.loglinear.steps"] += _mh_steps(spec)

    def _wrap_feature(self, fn):
        from netselect.errors import UndefinedFeature
        traced = self._wrap(fn, lambda g, kind: f"features.{kind.name}")

        def wrapper(g, kind):
            try:
                return traced(g, kind)
            except UndefinedFeature:
                if self.task is not None:
                    self.counts["features.undefined"] += 1
                raise
        return wrapper

    def install(self) -> None:
        """Wrap the layer functions at the call sites the workloads use."""
        graph_span = lambda spec, rng: f"generators.{_family(spec)}"
        plan = [
            ("cli", "main", "cli.main", None),
            ("cli", "read_edge_list", "graph.read_edge_list", None),
            ("cli", "compare_models", "inference.compare_models", None),
            ("cli", "simulate_feature_matrix", "inference.simulate_feature_matrix", None),
            ("cli", "range_probability", "inference.range_probability", None),
            ("study", "run_study_row", "study.run_study_row", None),
            ("study", "grid_feature_matrices", "inference.grid_feature_matrices", None),
            ("study", "sample_graph", graph_span, self._count_graph),
            ("inference", "simulate_feature_matrix", "inference.simulate_feature_matrix", None),
            ("inference", "pool_map", "generators.pool_map", None),
            ("inference", "sample_graph", graph_span, self._count_graph),
            ("features", "connected_components", "graph.components", None),
            ("features", "shortest_path_distances", "graph.bfs", None),
        ]
        for module in ("study", "inference"):
            plan += [(module, "estimate_density", "inference.density", None),
                     (module, "evidence", "inference.evidence", None),
                     (module, "expected_loss", "inference.expected_loss", None)]
        for module_name, attr, name, after in plan:
            module = importlib.import_module(f"netselect.{module_name}")
            real = getattr(module, attr)
            self._restore.append((module, attr, real))
            setattr(module, attr, self._wrap(real, name, after))
        for module_name in ("study", "inference"):
            module = importlib.import_module(f"netselect.{module_name}")
            real = module.extract_feature
            self._restore.append((module, "extract_feature", real))
            module.extract_feature = self._wrap_feature(real)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, real = self._restore.pop()
            setattr(module, attr, real)

    def write(self, path: Path) -> None:
        """Save spans and counts as JSON (times in seconds, perf_counter clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "task"]
        path.write_text(json.dumps({
            "fields": fields, "spans": self.spans, "counts": dict(self.counts)}),
            encoding="utf-8")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, task in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, task) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def task_layer_times(spans: list[list]) -> dict:
    """Per task: (root span wall seconds, {layer: self seconds})."""
    selfs = self_times(spans)
    out: dict = {}
    for (name, start, end, parent, task), own in zip(spans, selfs):
        entry = out.setdefault(task, [0.0, Counter()])
        if parent is None:
            entry[0] += end - start
        entry[1][name.split(".", 1)[0]] += own
    return {task: (wall, dict(layers)) for task, (wall, layers) in out.items()}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of a traced run (values only; units live in BENCHMARK.json).

    A row for a layer the workload never calls reads 0.
    """
    spans = tracer.spans
    calls: Counter = Counter()
    total: Counter = Counter()
    for name, start, end, parent, task in spans:
        calls[name] += 1
        total[name] += end - start

    def per_call(name, scale):
        return scale * total[name] / calls[name] if calls[name] else 0.0

    per_task = task_layer_times(spans)
    tasks = max(1, len(per_task))
    layer_self: Counter = Counter()
    for wall, layers in per_task.values():
        layer_self.update(layers)
    rows = calls["study.run_study_row"]
    m = {}
    for token in FEATURE_TOKENS:
        m[f"features.{token}.ms_per_graph"] = per_call(f"features.{token}", 1e3)
    for family in FAMILIES:
        m[f"generators.{family}.ms_per_graph"] = per_call(f"generators.{family}", 1e3)
    steps = tracer.counts["generators.loglinear.steps"]
    m["generators.loglinear.us_per_step"] = (
        1e6 * total["generators.loglinear"] / steps if steps else 0.0)
    m["generators.graphs"] = tracer.counts["generators.graphs"]
    m["generators.edges"] = tracer.counts["generators.edges"]
    m["features.undefined"] = tracer.counts["features.undefined"]
    m["graph.components.ms_per_graph"] = per_call("graph.components", 1e3)
    m["graph.bfs.calls"] = calls["graph.bfs"]
    m["graph.bfs.us_per_call"] = per_call("graph.bfs", 1e6)
    m["graph.read_edge_list.ms"] = per_call("graph.read_edge_list", 1e3)
    for name in ("density", "evidence", "expected_loss"):
        m[f"inference.{name}.us_per_call"] = per_call(f"inference.{name}", 1e6)
    m["study.self_ms_per_row"] = 1e3 * layer_self["study"] / rows if rows else 0.0
    for layer in LAYERS:
        if layer != "study":
            m[f"{layer}.self_ms_per_task"] = 1e3 * layer_self[layer] / tasks
    m["trace.spans"] = len(spans)
    return m


def self_time_gap(tracer: Tracer) -> float:
    """Largest |sum of layer self times - task wall| / task wall over tasks."""
    gaps = [abs(sum(layers.values()) - wall) / wall
            for wall, layers in task_layer_times(tracer.spans).values() if wall > 0]
    return max(gaps, default=0.0)


def timed_pool_calls(run) -> list[tuple[int, int, float]]:
    """Call ``run()`` with ``netselect.inference.pool_map`` timed.

    Returns (workers, jobs, seconds) per pool_map call.
    """
    inference = importlib.import_module("netselect.inference")
    real = inference.pool_map
    calls = []

    def timed(fn, jobs, workers):
        start = time.perf_counter()
        out = real(fn, jobs, workers)
        calls.append((workers, len(jobs), time.perf_counter() - start))
        return out

    inference.pool_map = timed
    try:
        run()
    finally:
        inference.pool_map = real
    return calls


def median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def layer_sweep() -> dict:
    """Layer timings on fixed inputs at n=200 and n=1000 (n=40 for log-linear).

    Generators draw with a fixed seed; features run on one fixed SBM graph of
    mean degree about 11 at each size. ``hessian_bytes`` is computed (8 n^2,
    the dense float64 Bethe-Hessian of block_count), not measured.
    """
    import numpy as np
    from netselect import (EdgeCountTerm, ErdosRenyi, FeatureKind, LogLinear,
                           PointPrior, PowerLaw, Sbm, TriangleCountTerm,
                           extract_feature, sample_graph)

    out = {}
    for n, gen_reps, feat_reps in ((200, 15, 7), (1000, 5, 3)):
        scale = 200 / n
        specs = {"er": ErdosRenyi(n, PointPrior(0.057 * scale)),
                 "sbm": Sbm(n, 10, p_in=0.3 * scale, p_out=0.03 * scale),
                 "powerlaw": PowerLaw(n, PointPrior(3.0), d_min=1)}
        for family, spec in specs.items():
            out[f"sweep.n{n}.generators.{family}.ms_per_graph"] = median_ms(
                lambda: sample_graph(spec, np.random.default_rng(7)), gen_reps)
        graph = sample_graph(specs["sbm"], np.random.default_rng(11))
        for token in FEATURE_TOKENS:
            kind = FeatureKind(token)
            out[f"sweep.n{n}.features.{token}.ms_per_graph"] = median_ms(
                lambda: extract_feature(graph, kind), feat_reps)
        out[f"sweep.n{n}.features.block_count.hessian_bytes"] = 8 * n * n
    spec = LogLinear(40, 1.0, ((-2.0, EdgeCountTerm()), (0.2, TriangleCountTerm())))
    ms = median_ms(lambda: sample_graph(spec, np.random.default_rng(7)), 5)
    out["sweep.n40.generators.loglinear.ms_per_graph"] = ms
    out["sweep.n40.generators.loglinear.us_per_step"] = 1e3 * ms / _mh_steps(spec)
    return out
