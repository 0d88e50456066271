"""Byte-identity of fixed-seed outputs against committed golden files.

``tests/golden/`` holds the SHA-256 of ``write_edge_list`` for fixed-seed
draws of every model family (n = 5..300), a ``compare`` JSON report, the
``compare --plot-data`` CSVs and a ``simulate`` CSV table. Each test
regenerates its output and compares bytes, so any change to RNG consumption,
graph construction or feature values shows up here. To re-record after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from netselect import (
    DirichletMembership,
    EdgeCountTerm,
    ErdosRenyi,
    GridPrior,
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


def edge_list_hashes() -> dict:
    """name -> SHA-256 of the edge list of each of three fixed-seed draws."""
    out = {}
    for name, spec in _specs():
        for i in range(3):
            rng = np.random.default_rng(derive_seed(20201, i))
            text = write_edge_list(sample_graph(spec, rng))
            out[f"{name}_s{i}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _compare_inputs(work: Path) -> list[str]:
    """Data and model flags shared by the ``compare`` goldens."""
    data = sample_graph(Sbm(80, 2, p_in=0.3, p_out=0.05), np.random.default_rng(5))
    (work / "data.tsv").write_text(write_edge_list(data), encoding="utf-8")
    sbm = _write_json(work / "sbm.json", {"type": "sbm", "n": 80, "k": 2,
                                          "p_in": 0.3, "p_out": 0.05})
    er = _write_json(work / "er.json", {"type": "er", "n": 80,
                                        "p": {"uniform": [0.1, 0.25]}})
    return ["--data", str(work / "data.tsv"), "--model", sbm, "--model2", er]


def compare_report(work: Path) -> bytes:
    """A ``netselect compare`` JSON report over all seven features."""
    out = work / "compare.json"
    code = main(["compare", *_compare_inputs(work), "--features",
                 "degree_entropy,power_law_exponent,block_count,triangle_count,"
                 "diameter,link_density,global_clustering",
                 "--samples", "30", "--seed", "3", "--out", str(out)])
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
    assert edge_list_hashes() == golden


def test_compare_report_matches_golden(tmp_path):
    assert compare_report(tmp_path) == (GOLDEN / "compare.json").read_bytes()


def test_plot_data_matches_golden_at_one_and_two_workers(tmp_path):
    golden = {f.name: f.read_bytes() for f in sorted((GOLDEN / "plot_data").iterdir())}
    assert len(golden) == 12
    assert plot_data(tmp_path, 1) == golden
    assert plot_data(tmp_path, 2) == golden


def test_simulate_table_matches_golden_at_one_and_two_workers(tmp_path):
    golden = (GOLDEN / "simulate.csv").read_bytes()
    assert simulate_table(tmp_path, 1) == golden
    assert simulate_table(tmp_path, 2) == golden


if __name__ == "__main__":  # re-record the golden files
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "edge_lists.json").write_text(
        json.dumps(edge_list_hashes(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "compare.json").write_bytes(compare_report(Path(tmp)))
        (GOLDEN / "plot_data").mkdir(exist_ok=True)
        for name, body in plot_data(Path(tmp), 1).items():
            (GOLDEN / "plot_data" / name).write_bytes(body)
        (GOLDEN / "simulate.csv").write_bytes(simulate_table(Path(tmp), 1))
    sys.exit(0)
