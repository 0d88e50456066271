"""scipy loads only for block_count, on one BLAS thread unless the user set a
count, and before a pool forks its workers; a worker forked before scipy
loaded runs it on one thread too, and no worker outlives its interpreter.
multiprocessing and concurrent.futures load only at the first pooled run,
difflib only when a JSON object holds a key its reader does not know,
numpy.ma not at all on a ``compare`` or a ``simulate`` (the KDE bandwidth's
quartiles come from one sort, not ``np.percentile``, which loads it), and
the command-line parser is built at the first ``main`` call, then kept.
Each check runs in a fresh interpreter, since the test process itself may
have imported scipy already.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PRELUDE = """
import json, os, sys
import netselect, netselect.cli, netselect.study
from netselect import ErdosRenyi, FeatureKind, build_graph, extract_feature
import netselect.inference as inference

def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

def thread_vars():
    return {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
"""


def _run(code: str, **env_vars: str) -> dict:
    """Run PRELUDE + ``code`` in a fresh interpreter whose environment has
    none of the BLAS thread variables but ``env_vars``; return the JSON object
    on its last output line."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_scipy():
    assert _run("print(json.dumps({'scipy': scipy_loaded()}))") == {"scipy": False}


def test_features_other_than_block_count_load_no_scipy():
    out = _run("""
g = build_graph(30, [(i, j) for i in range(30) for j in range(i + 1, 30) if (i * j) % 7 == 1])
values = [extract_feature(g, FeatureKind(k)) for k in ("link_density", "diameter", "triangle_count")]
print(json.dumps({"scipy": scipy_loaded(), "env": thread_vars()}))
""")
    assert out == {"scipy": False, "env": dict.fromkeys(THREAD_VARS)}


def test_pool_modules_load_at_the_first_pooled_run():
    out = _run("""
pool_modules = ("multiprocessing", "concurrent.futures")
loaded = lambda: [name for name in pool_modules if name in sys.modules]
at_import = loaded()
inference.simulate_feature_matrices([ErdosRenyi(20, 0.3)], [FeatureKind("link_density")], 8, 1)
after_serial = loaded()
inference.simulate_feature_matrices([ErdosRenyi(20, 0.3)], [FeatureKind("link_density")], 8, 1,
                                    workers=2)
print(json.dumps({"import": at_import, "serial": after_serial, "pooled": loaded()}))
""")
    assert out == {"import": [], "serial": [],
                   "pooled": ["multiprocessing", "concurrent.futures"]}


def test_the_parser_is_built_at_the_first_main_call_and_kept():
    out = _run("""
built = [netselect.cli.build_parser.cache_info().currsize]
for _ in range(2):
    netselect.cli.main(["features", "--data", os.devnull, "--features", "link_density"])
    built.append(netselect.cli.build_parser.cache_info().currsize)
print(json.dumps({"built": built, "hits": netselect.cli.build_parser.cache_info().hits}))
""")
    assert out == {"built": [0, 1, 1], "hits": 1}


def test_difflib_loads_only_to_name_an_unknown_key():
    out = _run("""
from netselect import InvalidSpec, parse_model_spec
parse_model_spec({"type": "er", "n": 5, "p": {"point": 0.5}})
valid = "difflib" in sys.modules
try:
    parse_model_spec({"type": "er", "n": 5, "pp": 0.5})
except InvalidSpec as exc:
    message = str(exc)
print(json.dumps({"valid": valid, "unknown": "difflib" in sys.modules, "message": message}))
""")
    assert out == {"valid": False, "unknown": True,
                   "message": "er spec has no key 'pp'; did you mean 'p'?"}


NUMPY_MA = """
work = Path(WORK)
def write(name, obj):
    (work / name).write_text(json.dumps(obj))
    return str(work / name)
data = work / "data.tsv"
data.write_text("# n=6\\n" + "".join(f"{i}\\t{j}\\n" for i in range(6) for j in range(i + 1, 6)
                                     if (i + j) % 3))
er = write("er.json", {"type": "er", "n": 30, "p": {"uniform": [0.1, 0.3]}})
sbm = write("sbm.json", {"type": "sbm", "n": 30, "k": 2, "p_in": 0.3, "p_out": 0.05})
codes = [netselect.cli.main(["compare", "--data", str(data), "--model", er, "--model2", sbm,
                             "--features", "global_clustering", "--samples", "20",
                             "--out", str(work / "compare.json")])]
compare = "numpy.ma" in sys.modules
power_law = {"type": "powerlaw", "n": 40, "alpha": {"point": 3.0}, "d_min": 1}
study = write("study.json", {
    "n_samples": 20, "seed": 3,
    "candidates": [
        {"id": "alpha", "spec": {**power_law, "alpha": {"grid": {"values": [2.6, 3.2]}}}},
        {"id": "k", "spec": {"type": "sbm", "n": 40, "k": {"grid": {"values": [2, 3]}},
                             "p_in": 0.3, "p_out": 0.03}}],
    "windows": [{"param": "alpha", "lo": 2.5, "hi": 3.0}],
    "rows": [{"data": {"id": "alpha", "spec": power_law},
              "features": ["power_law_exponent"], "losses": ["absolute"]}]})
codes.append(netselect.cli.main(["simulate", "--config", study, "--out", str(work / "s.csv")]))
print(json.dumps({"codes": codes, "compare": compare, "simulate": "numpy.ma" in sys.modules}))
"""


def test_compare_and_simulate_leave_numpy_ma_unloaded(tmp_path):
    """A continuous feature on each command, so each fits a KDE."""
    out = _run(f"from pathlib import Path\nWORK = {str(tmp_path)!r}\n" + NUMPY_MA)
    assert out == {"codes": [0, 0], "compare": False, "simulate": False}


BLOCK_COUNT = """
g = build_graph(30, [(i, j) for i in range(30) for j in range(i + 1, 30) if (i + j) % 3 == 0])
extract_feature(g, FeatureKind("block_count"))
print(json.dumps({"scipy": "scipy.linalg" in sys.modules, "env": thread_vars()}))
"""


def test_block_count_loads_scipy_on_one_blas_thread():
    out = _run(BLOCK_COUNT)
    assert out == {"scipy": True, "env": dict.fromkeys(THREAD_VARS, "1")}


def test_a_thread_count_the_user_set_wins():
    out = _run(BLOCK_COUNT, OPENBLAS_NUM_THREADS="3")
    assert out["scipy"]
    assert out["env"] == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1",
                          "MKL_NUM_THREADS": "1"}


SPY = """
seen = []

def spy(fn, jobs, workers):
    seen.append("scipy.linalg" in sys.modules)
    return [fn(*job) for job in jobs]

inference.pool_map = spy
inference.simulate_feature_matrices([ErdosRenyi(20, 0.3)], [FeatureKind(KIND)], 8, 1, workers=2)
print(json.dumps({"at_pool_map": seen, "after": scipy_loaded()}))
"""


@pytest.mark.parametrize("kind, at_pool_map, after", [
    ("block_count", [True], True),
    ("link_density", [False], False),
])
def test_parent_loads_scipy_before_the_pool_only_for_block_count(kind, at_pool_map, after):
    out = _run(SPY.replace("KIND", repr(kind)))
    assert out == {"at_pool_map": at_pool_map, "after": after}


LATE_FORK = """
def probe():
    return "scipy.linalg" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS")

def values(kind, workers):
    kinds = [FeatureKind(kind)]
    return inference.simulate_feature_matrices([ErdosRenyi(30, 0.2)], kinds, 8, 1,
                                               workers=workers)[0][kinds[0]].tolist()

values("link_density", 2)  # forks the pool before scipy is loaded
forked_before_scipy = not scipy_loaded()
pooled = values("block_count", 2)
probes = inference.pool_map(probe, [()] * 8, 2)
print(json.dumps({"forked_before_scipy": forked_before_scipy,
                  "same": pooled == values("block_count", 1),
                  "loaded_env": sorted({env for loaded, env in probes if loaded})}))
"""


def test_workers_forked_before_scipy_load_it_on_one_blas_thread():
    assert _run(LATE_FORK) == {"forked_before_scipy": True, "same": True,
                               "loaded_env": ["1"]}


WORKER_PIDS = """
pids = []
for _ in range(2):
    inference.simulate_feature_matrices([ErdosRenyi(20, 0.3)], [FeatureKind("link_density")],
                                        8, 1, workers=2)
    pids.append(sorted(inference._POOL._processes))
print(json.dumps({"pids": pids}))
"""


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_no_pool_worker_outlives_its_interpreter():
    first, second = _run(WORKER_PIDS)["pids"]
    assert second == first  # the second call reused the pool
    assert len(first) == min(2, len(os.sched_getaffinity(0)))
    deadline = time.monotonic() + 10
    while any(map(_running, first)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, first))
