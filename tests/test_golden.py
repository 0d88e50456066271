"""Byte-identity of fixed-seed outputs against committed golden files.

``tests/golden/`` holds the SHA-256 of ``write_edge_list`` for fixed-seed
draws of every model family (n = 5..300), of the pair-drawn families at sizes
around the one-block bound (``edge_lists_large.json``), ``compare`` JSON
reports with the models in both orders, the ``compare --plot-data`` CSVs and
a ``simulate`` CSV table. Each test
regenerates its output and compares bytes, so any change to RNG consumption,
graph construction or feature values shows up here. Every CSV is written by
``inference._csv``: a number cell is its ``repr`` (plain Python numbers
only, which ``test_every_number_in_a_csv_output_is_a_plain_float`` checks
across all CSV outputs). To re-record after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py``: it rewrites only the files
whose bytes changed and prints, for each, how many numbers changed, the
largest relative change, every other changed value and the keys it added.
"""

import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from netselect import (
    DirichletMembership,
    DegreeCountTerm,
    EdgeCountTerm,
    ErdosRenyi,
    GridPrior,
    IndividualEdgeTerm,
    LogLinear,
    PowerLaw,
    Sbm,
    TriangleCountTerm,
    UniformPrior,
    derive_seed,
    sample_graph,
    write_edge_list,
)
from netselect.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SIZES = (5, 17, 64, 65, 129, 300)
#: The largest n whose pairs are drawn as one block (1,047,628 pairs), the
#: first n drawn in more than one, and a larger n of several blocks.
LARGE_SIZES = (1448, 1449, 2100)


def _specs():
    for n in SIZES:
        yield f"er_n{n}", ErdosRenyi(n, UniformPrior(0.02, 0.3))
        yield f"sbm_n{n}", Sbm(n, 3, p_in=0.4, p_out=0.05)
        yield f"sbm_dirichlet_n{n}", Sbm(n, 4, p_in=0.3, p_out=0.02,
                                         membership=DirichletMembership(0.7))
        yield f"sbm_kgrid_n{n}", Sbm(n, GridPrior((2.0, 3.0, 5.0)),
                                     p_in=0.25, p_out=0.04)
        yield f"powerlaw_n{n}", PowerLaw(n, UniformPrior(2.2, 3.5), d_min=1)
        yield f"powerlaw_dmin2_n{n}", PowerLaw(n, UniformPrior(2.5, 3.0), d_min=2)
    yield "sbm_matrix_n40", Sbm(40, 2, edge_probs=((0.5, 0.1), (0.1, 0.3)),
                                membership=tuple([0, 1] * 20))
    terms = ((-1.5, EdgeCountTerm()), (0.3, TriangleCountTerm()))
    yield "loglinear_n5", LogLinear(5, 1.0, terms)
    yield "loglinear_n12", LogLinear(12, 1.0, terms)
    yield "loglinear_n40", LogLinear(40, 0.5, terms, burn_in=4000, thin=500)
    yield "loglinear_n300", LogLinear(300, 0.2, terms, burn_in=20000, thin=1000)
    # all four concordance terms; n = 1 and 2 are the degenerate chains (the
    # individual edge (0, 1) needs two nodes, and a one-node draw is edgeless)
    terms = ((-1.0, EdgeCountTerm()), (0.4, TriangleCountTerm()),
             (0.8, DegreeCountTerm(2)), (1.5, IndividualEdgeTerm(0, 1)))
    for n in (1, 2, 9, 12):
        yield f"loglinear_terms4_n{n}", LogLinear(n, 1.0, terms if n > 1 else terms[:3])
    terms = ((-0.8, EdgeCountTerm()), (0.6, DegreeCountTerm(3)),
             (2.0, IndividualEdgeTerm(31, 5)))
    yield "loglinear_degree_n40", LogLinear(40, 0.7, terms, burn_in=4000, thin=500)


def _large_specs():
    """The Erdos-Renyi and block-model specs, whose pairs are drawn in blocks."""
    for n in LARGE_SIZES:
        yield f"er_n{n}", ErdosRenyi(n, UniformPrior(0.001, 0.004))
        yield f"sbm_n{n}", Sbm(n, 3, p_in=0.006, p_out=0.001)
        yield f"sbm_dirichlet_n{n}", Sbm(n, 4, p_in=0.005, p_out=0.0005,
                                         membership=DirichletMembership(0.7))
        yield f"sbm_kgrid_n{n}", Sbm(n, GridPrior((2.0, 3.0, 5.0)),
                                     p_in=0.004, p_out=0.001)


def edge_list_hashes(specs) -> dict:
    """name -> SHA-256 of the edge list of each of three fixed-seed draws."""
    out = {}
    for name, spec in specs:
        for i in range(3):
            rng = np.random.default_rng(derive_seed(20201, i))
            text = write_edge_list(sample_graph(spec, rng))
            out[f"{name}_s{i}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _compare_inputs(work: Path, er_first: bool = False) -> list[str]:
    """Data and model flags shared by the ``compare`` goldens: the SBM model
    first, or the ER model first when ``er_first``."""
    data = sample_graph(Sbm(80, 2, p_in=0.3, p_out=0.05), np.random.default_rng(5))
    (work / "data.tsv").write_text(write_edge_list(data), encoding="utf-8")
    sbm = _write_json(work / "sbm.json", {"type": "sbm", "n": 80, "k": 2,
                                          "p_in": 0.3, "p_out": 0.05})
    er = _write_json(work / "er.json", {"type": "er", "n": 80,
                                        "p": {"uniform": [0.1, 0.25]}})
    first, second = (er, sbm) if er_first else (sbm, er)
    return ["--data", str(work / "data.tsv"), "--model", first, "--model2", second]


ALL_FEATURES = ("degree_entropy,power_law_exponent,block_count,triangle_count,"
                "diameter,link_density,global_clustering")


def compare_report(work: Path) -> bytes:
    """A ``netselect compare`` JSON report over all seven features."""
    out = work / "compare.json"
    code = main(["compare", *_compare_inputs(work), "--features", ALL_FEATURES,
                 "--samples", "30", "--seed", "3", "--out", str(out)])
    assert code == 0
    return out.read_bytes()


def er_first_compare_report(work: Path, threads: int) -> bytes:
    """``compare_report`` with the two models swapped, so each seed's ER draw
    comes before its SBM draw and neither can reuse the other's uniforms, and
    without block_count: the SBM's expected loss on it is zero, and its
    infinite loss ratio would make ``combined_ratio`` "inf" whatever the
    other six ratios are (``test_er_first_compare_with_block_count_picks_sbm``
    checks that case)."""
    out = work / f"compare_er_first_{threads}.json"
    code = main(["compare", *_compare_inputs(work, er_first=True), "--features",
                 "degree_entropy,power_law_exponent,triangle_count,diameter,"
                 "link_density,global_clustering",
                 "--samples", "30", "--seed", "3", "--threads", str(threads),
                 "--out", str(out)])
    assert code == 0
    return out.read_bytes()


def plot_data(work: Path, threads: int) -> dict:
    """File name -> bytes of the ``compare --plot-data`` CSVs, one discrete
    and two continuous features."""
    plots = work / f"plots_{threads}"
    code = main(["compare", *_compare_inputs(work), "--features",
                 "block_count,global_clustering,degree_entropy",
                 "--samples", "30", "--seed", "3", "--threads", str(threads),
                 "--out", str(work / "plot_report.json"), "--plot-data", str(plots)])
    assert code == 0
    return {f.name: f.read_bytes() for f in sorted(plots.iterdir())}


STUDY = {
    "n_samples": 12,
    "seed": 9,
    "candidates": [
        {"id": "alpha", "spec": {"type": "powerlaw", "n": 60, "d_min": 1,
                                 "alpha": {"grid": {"values": [2.5, 3.0, 3.5]}}}},
        {"id": "k", "spec": {"type": "sbm", "n": 60, "p_in": 0.3, "p_out": 0.05,
                             "k": {"grid": {"values": [2, 3]}}}},
    ],
    "windows": [{"param": "alpha", "lo": 2.9, "hi": 3.1},
                {"param": "k", "lo": 2, "hi": 2}],
    "rows": [
        {"data": {"id": "alpha", "spec": {"type": "powerlaw", "n": 60,
                                          "alpha": {"point": 3.0}}},
         "features": ["power_law_exponent", "degree_entropy", "diameter"],
         "losses": ["quadratic", "absolute"]},
        {"data": {"id": "k", "spec": {"type": "sbm", "n": 60, "k": 2,
                                      "p_in": 0.3, "p_out": 0.05}},
         "features": ["block_count", "global_clustering", "triangle_count"]},
    ],
}


def simulate_table(work: Path, threads: int) -> bytes:
    """A ``netselect simulate`` CSV table for a two-row study."""
    config = _write_json(work / "study.json", STUDY)
    out = work / f"simulate_{threads}.csv"
    assert main(["simulate", "--config", config, "--threads", str(threads),
                 "--out", str(out)]) == 0
    return out.read_bytes()


def test_edge_lists_match_golden_hashes():
    golden = json.loads((GOLDEN / "edge_lists.json").read_text(encoding="utf-8"))
    assert edge_list_hashes(_specs()) == golden


def test_large_edge_lists_match_golden_hashes():
    golden = json.loads((GOLDEN / "edge_lists_large.json").read_text(encoding="utf-8"))
    assert edge_list_hashes(_large_specs()) == golden


def test_compare_report_matches_golden(tmp_path):
    assert compare_report(tmp_path) == (GOLDEN / "compare.json").read_bytes()


def test_er_first_compare_report_matches_golden_at_one_and_two_workers(tmp_path):
    golden = (GOLDEN / "compare_er_first.json").read_bytes()
    assert er_first_compare_report(tmp_path, 1) == golden
    assert er_first_compare_report(tmp_path, 2) == golden


def test_er_first_compare_with_block_count_picks_sbm(tmp_path):
    """A zero expected loss of model_2 against a positive one of model_1 is an
    infinite loss ratio that favours model_2, not an indeterminate exit 3; the
    SBM wins in this order as it does first (``compare.json``)."""
    reports = []
    for threads in (1, 2):
        out = tmp_path / f"er_first_all_{threads}.json"
        code = main(["compare", *_compare_inputs(tmp_path, er_first=True), "--features",
                     ALL_FEATURES, "--samples", "30", "--seed", "3",
                     "--threads", str(threads), "--out", str(out)])
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert report["decision"] == "model_2" and report["combined_ratio"] == "inf"
    assert [fc["kind"] for fc in report["features"] if fc["loss_ratio"] == "inf"] == ["block_count"]
    assert json.loads((GOLDEN / "compare.json").read_text())["decision"] == "model_1"


def test_plot_data_matches_golden_at_one_and_two_workers(tmp_path):
    golden = {f.name: f.read_bytes() for f in sorted((GOLDEN / "plot_data").iterdir())}
    assert len(golden) == 12
    assert plot_data(tmp_path, 1) == golden
    assert plot_data(tmp_path, 2) == golden


def test_simulate_table_matches_golden_at_one_and_two_workers(tmp_path):
    golden = (GOLDEN / "simulate.csv").read_bytes()
    assert simulate_table(tmp_path, 1) == golden
    assert simulate_table(tmp_path, 2) == golden


def _non_numbers(text: str, text_columns: tuple = ()) -> list:
    """(column, cell) of every cell below the header, outside ``text_columns``,
    that ``float()`` cannot read."""
    header, *rows = (line.split(",") for line in text.splitlines())
    bad = []
    for row in rows:
        for column, cell in zip(header, row, strict=True):
            try:
                float(cell)
            except ValueError:
                if column not in text_columns:
                    bad.append((column, cell))
    return bad


def test_every_number_in_a_csv_output_is_a_plain_float(tmp_path):
    """The 12 plot CSVs, and every numeric column of the ``features``,
    ``compare``, ``elicit`` and ``simulate`` CSV tables, hold numbers that
    ``float()`` reads (``inf`` included), never a numpy scalar's repr."""
    inputs = _compare_inputs(tmp_path)
    data, first, second = inputs[1::2]
    out = {name: tmp_path / f"{name}.csv" for name in ("features", "compare", "elicit")}
    plots = tmp_path / "plots"
    assert main(["features", "--data", data, "--features", ALL_FEATURES,
                 "--format", "csv", "--out", str(out["features"])]) == 0
    assert main(["compare", *inputs, "--features", "block_count,global_clustering,degree_entropy",
                 "--samples", "30", "--seed", "3", "--format", "csv",
                 "--out", str(out["compare"]), "--plot-data", str(plots)]) == 0
    assert main(["elicit", "--model", first, "--model2", second,
                 "--range", "link_density:0.1:0.2", "--samples", "20", "--seed", "3",
                 "--format", "csv", "--out", str(out["elicit"])]) == 0
    tables = {f.name: (f.read_text(), ()) for f in sorted(plots.iterdir())}
    assert len(tables) == 12
    tables["features"] = out["features"].read_text(), ("kind", "discrete")
    tables["compare"] = out["compare"].read_text(), ("kind",)
    tables["elicit"] = out["elicit"].read_text(), ("feature", "model")
    tables["simulate"] = simulate_table(tmp_path, 1).decode(), ("real_param", "loss", "features")
    assert {name: _non_numbers(text, columns)
            for name, (text, columns) in tables.items()} == {name: [] for name in tables}


def _leaves(text: str, name: str) -> dict:
    """Each value of a golden file by its path: a JSON leaf ("features[0].observed"),
    or a CSV cell below the header ("[3].density")."""
    if name.endswith(".csv"):
        header, *rows = (line.split(",") for line in text.splitlines())
        return {f"[{i}].{column}": cell for i, row in enumerate(rows)
                for column, cell in zip(header, row, strict=True)}
    out = {}

    def walk(value, path):
        if isinstance(value, (dict, list)):
            for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
                walk(item, f"{path}.{key}" if isinstance(key, str) else f"{path}[{key}]")
        else:
            out[path.lstrip(".")] = value
    walk(json.loads(text), "")
    return out


def _number(value):
    """The float a JSON number or a CSV cell holds, else None ("inf" stays text)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        x = float(value)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def audit(name: str, old: bytes, new: bytes) -> str:
    """What re-recording ``name`` changes: how many numbers, their largest
    relative change, every other changed value, and the keys it adds."""
    before, after = _leaves(old.decode(), name), _leaves(new.decode(), name)
    numbers, largest, other = 0, 0.0, sorted(set(before) - set(after))
    for path in before.keys() & after.keys():
        a, b = before[path], after[path]
        if type(a) is type(b) and a == b:
            continue
        x, y = _number(a), _number(b)
        if x is None or y is None or type(a) is not type(b):
            other.append(path)
        else:
            numbers += 1
            largest = max(largest, abs(y - x) / abs(x) if x else math.inf)
    added = sorted({re.sub(r"\[\d+\]", "[*]", path) for path in set(after) - set(before)})
    if not (numbers or other or added):  # equal values, other bytes
        other = ["(formatting)"]
    return (f"{name}: {numbers} numbers changed, largest relative change {largest:.3g}; "
            f"other changes: {sorted(other) or 'none'}; added keys: {added or 'none'}")


if __name__ == "__main__":  # re-record the golden files, printing what each rewrite changes
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        outputs = {
            **{f"{name}.json": (json.dumps(edge_list_hashes(specs), indent=1, sort_keys=True)
                                + "\n").encode()
               for name, specs in (("edge_lists", _specs()), ("edge_lists_large", _large_specs()))},
            "compare.json": compare_report(work),
            "compare_er_first.json": er_first_compare_report(work, 1),
            **{f"plot_data/{name}": body for name, body in plot_data(work, 1).items()},
            "simulate.csv": simulate_table(work, 1),
        }
    for name, body in outputs.items():
        path = GOLDEN / name
        old = path.read_bytes() if path.exists() else None
        if old == body:
            continue
        print(audit(name, old, body) if old is not None else f"{name}: new file")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(body)
    sys.exit(0)
