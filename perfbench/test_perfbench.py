"""Checks of the benchmark's own arithmetic and of BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

import json
import statistics

import pytest

import run
import spans


def _tracer(raw):
    tracer = spans.Tracer()
    tracer.spans = [list(s) for s in raw]
    return tracer


# Task 0: root [0, 10] with children [1, 4] and [5, 6]; [1, 4] has a child
# [2, 3]. Task 1: a root of its own.
NESTED = [
    ("cli.main", 0.0, 10.0, None, 0),
    ("inference.compare_models", 1.0, 4.0, 0, 0),
    ("generators.er", 2.0, 3.0, 1, 0),
    ("graph.read_edge_list", 5.0, 6.0, 0, 0),
    ("study.run_study_row", 20.0, 23.0, None, 1),
]


def test_self_time_subtracts_covered_child_time():
    assert spans.self_times(NESTED) == [6.0, 2.0, 1.0, 1.0, 3.0]


def test_self_time_counts_overlapping_children_once():
    raw = [("cli.main", 0.0, 10.0, None, 0),
           ("graph.bfs", 1.0, 5.0, 0, 0),
           ("graph.bfs", 3.0, 7.0, 0, 0),
           ("graph.bfs", 9.0, 12.0, 0, 0)]
    assert spans.self_times(raw)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_self_times_add_up_to_task_wall():
    per_task = spans.task_layer_times(NESTED)
    assert per_task[0] == (10.0, {"cli": 6.0, "inference": 2.0,
                                  "generators": 1.0, "graph": 1.0})
    assert per_task[1] == (3.0, {"study": 3.0})
    assert spans.self_time_gap(_tracer(NESTED)) == 0.0


def test_layer_metrics_per_call_and_per_task():
    tracer = _tracer(NESTED)
    tracer.counts.update({"generators.graphs": 1, "generators.edges": 7})
    m = spans.layer_metrics(tracer)
    assert m["generators.er.ms_per_graph"] == pytest.approx(1000.0)
    assert m["graph.read_edge_list.ms"] == pytest.approx(1000.0)
    assert m["cli.self_ms_per_task"] == pytest.approx(3000.0)
    assert m["study.self_ms_per_row"] == pytest.approx(3000.0)
    assert m["features.diameter.ms_per_graph"] == 0.0
    assert m["generators.edges"] == 7
    assert m["trace.spans"] == len(NESTED)


def test_spread_is_interquartile_range_over_median():
    values = [float(v) for v in range(1, 11)]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert (q1, median, q3) == (2.75, 5.5, 8.25)
    assert run.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_median_of_even_count_averages_the_middle_pair():
    assert statistics.median([4.0, 1.0, 3.0, 2.0]) == 2.5


@pytest.mark.parametrize("name, ok", [
    ("task_s_p50", True), ("sweep.n200.features.diameter.ms_per_graph", True),
    ("a-b", True), ("9lives", True), ("", False), ("_x", False),
    ("has space", False), ("slash/no", False), ("x" * 65, False)])
def test_metric_name_rule(name, ok):
    assert run.valid_name(name) is ok


def test_matches_ignores_added_keys_and_tolerates_rounding():
    ref = {"decision": "model_1", "features": [{"bayes_factor": "inf",
                                                "evidence_1": 0.25}]}
    got = {"decision": "model_1", "added": 1,
           "features": [{"bayes_factor": "inf", "evidence_1": 0.25 * (1 + 1e-9),
                         "log_evidence_1": -1.4}]}
    assert run.matches(ref, got)
    assert not run.matches(ref, {**got, "decision": "model_2"})
    assert not run.matches(ref, {**got, "features": []})
    assert not run.matches({"p": 0.25}, {"p": 0.2501})
    assert not run.matches({"p": 0.25}, {})


def test_benchmark_json_names_bounds_and_layers():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    assert all(run.valid_name(n) for n in names)
    assert {w["name"] for w in spec["workloads"]} <= set(run.TRACE_TASKS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert {f"{layer}.self_ms_per_task" for layer in spans.LAYERS
            if layer != "study"} <= per_layer
