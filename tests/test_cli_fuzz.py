"""CLI fuzz: every drawn combination of flags and config keys ends in exit 0,
2 or 3, never in an uncaught exception.

Inputs are tiny (n <= 30, at most 5 samples), so a few hundred commands run
in seconds. Each key is drawn from valid values and from values of the wrong
type or range, and goes to the command as a flag, as a config key, or not at
all. Strings starting with "@" name fixture files and are resolved to paths
when the command runs.
"""

import itertools
import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from netselect.cli import main

SPECS = {
    "er": {"type": "er", "n": 12, "p": {"uniform": [0.1, 0.4]}},
    "sbm": {"type": "sbm", "n": 20, "k": 2, "p_in": 0.5, "p_out": 0.1},
    "powerlaw": {"type": "powerlaw", "n": 30, "d_min": 1,
                 "alpha": {"grid": {"values": [2.5, 3.0]}}},
    "loglinear": {"type": "loglinear", "n": 8, "lambda": 1.0, "burn_in": 40, "thin": 4,
                  "terms": [{"weight": -1.0, "f": "edge_count"},
                            {"weight": 0.3, "f": "triangle_count"}]},
    "no_n": {"type": "er", "p": 0.3},
    "list_n": {"type": "er", "n": [3], "p": 0.3},
    "inverted_prior": {"type": "er", "n": 10, "p": {"uniform": [0.5, 0.1]}},
    "list": [1, 2],
}
GRAPHS = {
    "er": "# n=15\n" + "".join(f"{i}\t{j}\n" for i, j in itertools.combinations(range(15), 2)
                                if (7 * i + 3 * j) % 4 == 0),
    "edgeless": "# n=3\n",
    "labels": "alice\tbob\nbob\tcarol\ncarol\tdave\n",
    "garbage": "x y z\n",
    "self_loop": "# n=2\n1\t1\n",
}
STUDY = {
    "n_samples": 4, "seed": 1,
    "candidates": [
        {"id": "alpha", "spec": {"type": "powerlaw", "n": 20, "d_min": 1,
                                 "alpha": {"grid": {"values": [2.5, 3.0]}}}},
        {"id": "k", "spec": {"type": "sbm", "n": 20, "p_in": 0.4, "p_out": 0.05,
                             "k": {"grid": {"values": [2, 3]}}}},
    ],
    "windows": [{"param": "alpha", "lo": 2.4, "hi": 2.6}],
    "rows": [{"data": {"id": "k", "spec": {"type": "sbm", "n": 20, "k": 2,
                                           "p_in": 0.4, "p_out": 0.05}},
              "features": ["degree_entropy"], "losses": ["quadratic", "zero_one"]}],
}
STUDY_EDITS = [("n_samples", [2]), ("n_samples", 0), ("seed", "x"), ("threads", 2),
               ("threads", "2"), ("windows", [{"param": "k"}]), ("rows", 5),
               ("candidates", STUDY["candidates"][:1])]
TOKENS = ["link_density", "triangle_count", "global_clustering", "degree_entropy",
          "diameter", "block_count", "power_law_exponent"]


def files(*names):
    return st.sampled_from([f"@{name}" for name in names])


def choice(*values):
    return st.sampled_from(values)


good_spec = files("er.json", "sbm.json", "powerlaw.json", "loglinear.json")
bad_spec = files("no_n.json", "list_n.json", "inverted_prior.json", "list.json",
                 "missing.json")
good_features = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3,
                         unique=True).map(",".join)
good_ranges = st.lists(choice("link_density:0:0.5", "triangle_count:0:5",
                              "degree_entropy:0.5:2"), min_size=1, max_size=2)
bad_ranges = st.lists(choice("link_density:0:0.5", "degree_entropy:1:0",
                             "link_density:x:1", "nope", "bogus:0:1"),
                      min_size=1, max_size=2)
# key -> (valid flag, valid config value, invalid flag, invalid config value);
# flag values are strings; a config value of None counts as absent.
KEYS = {
    "model": (good_spec, st.one_of(good_spec, choice(SPECS["er"], SPECS["sbm"])),
              bad_spec, choice(5, [], SPECS["no_n"], SPECS["list_n"])),
    "model2": (good_spec, st.one_of(good_spec, choice(SPECS["er"], SPECS["sbm"])),
               bad_spec, choice(5, [], SPECS["no_n"])),
    "data": (files("er.tsv", "labels.tsv", "edgeless.tsv"), files("er.tsv"),
             files("garbage.tsv", "self_loop.tsv", "missing.tsv"), choice(7, ["@er.tsv"])),
    "features": (good_features,
                 st.one_of(good_features, good_features.map(lambda f: f.split(","))),
                 choice("bogus", "link_density,bogus", ""),
                 choice(5, ["bogus"], [{"kind": "block_count", "k_max": []}], [5],
                        [{"kind": "power_law_exponent", "d_min": 0}])),
    "samples": (choice("1", "2", "5"), choice(1, 3, 5),
                choice("0", "-1", "x"), choice(0, "2", 2.5, [3], True)),
    "seed": (choice("0", "7"), choice(0, 7, None), choice("-1", "x"), choice(-3, "x", 1.5)),
    "threads": (choice("1", "2"), choice(1, 2), choice("0", "x"), choice("2", 1.5, 0)),
    "loss": (choice("quadratic", "absolute", "zero_one"),
             choice("absolute", {"kind": "zero_one", "tolerance": 0.1}),
             choice("bogus"),
             choice(5, {"tolerance": 1}, {"kind": "quadratic", "tolerance": []})),
    "format": (choice("json", "csv"), choice("json", "csv"), choice("xml"), choice(5)),
}
CONFIG_ONLY = {  # key -> (valid value, invalid value)
    "model_priors": (choice([0.5, 0.5], [1, 0], [0.2, 0.8]),
                     choice([0.2, 0.8, 1], [1], 0.5, ["a", 1], [-1, 2], {"a": 1})),
    "models": (st.one_of(st.lists(good_spec, max_size=2), st.none()),
               choice(5, ["@missing.json"], [3])),
    "ranges": (good_ranges, choice([{"feature": "global_clustering", "lo": 0, "hi": 1}],
                                   [{"kind": "diameter"}], [5], "link_density:0:1")),
}


@st.composite
def invocations(draw):
    """(argv, config or None, whether the config file wraps it in a list).

    About one key in eight gets an invalid value."""
    def invalid():
        return draw(choice(*[False] * 7, True))

    command = draw(choice("generate", "features", "compare", "elicit", "simulate"))
    argv, config = [command], {}
    if command == "simulate":
        config = dict(STUDY)
        if invalid():
            config.update([draw(st.sampled_from(STUDY_EDITS))])
    for key, (flag, value, bad_flag, bad_value) in KEYS.items():
        where = draw(choice(*["flag", "config"] * 4, "absent"))
        if where == "flag":
            argv += [f"--{key}", draw(bad_flag if invalid() else flag)]
        elif where == "config":
            config[key] = draw(bad_value if invalid() else value)
    for key, (value, bad_value) in CONFIG_ONLY.items():
        if draw(st.booleans()):
            config[key] = draw(bad_value if invalid() else value)
    if command in ("generate", "compare", "elicit") and draw(st.booleans()):
        grids = choice("p:0.1,0.2", "alpha:2.5,3", "k:2,3")
        argv += ["--grid", draw(choice("p:x", "bogus", "n:3") if invalid() else grids)]
    if command == "elicit" and draw(choice(True, True, False)):
        for item in draw(bad_ranges if invalid() else good_ranges):
            argv += ["--range", item]
    if command == "compare" and draw(st.booleans()):
        argv += ["--plot-data", "@plots"]
    if "samples" not in config and "--samples" not in argv:
        argv += ["--samples", "3"]  # keep every command small
    if command == "generate" or draw(st.booleans()):
        argv += ["--out", "@out"]
    return argv, config or None, invalid()


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    for name, obj in SPECS.items():
        (work / f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")
    for name, text in GRAPHS.items():
        (work / f"{name}.tsv").write_text(text, encoding="utf-8")
    return work, itertools.count()


def run(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a malformed flag with exit 2
        return exc.code


@settings(max_examples=500, deadline=None, derandomize=True)
@given(invocations())
def test_every_cli_input_ends_in_a_documented_exit_code(fixtures, invocation):
    work, counter = fixtures
    case = work / f"case{next(counter)}"
    case.mkdir()

    def resolve(value):
        if isinstance(value, str) and value.startswith("@"):
            value = value[1:]
            return str((case if value in ("out", "plots") else work) / value)
        if isinstance(value, list):
            return [resolve(v) for v in value]
        if isinstance(value, dict):
            return {k: resolve(v) for k, v in value.items()}
        return value

    argv, config, wrap = invocation
    argv = resolve(argv)
    if config is not None:
        path = case / "config.json"
        config = resolve(config)
        path.write_text(json.dumps([config] if wrap else config), encoding="utf-8")
        argv += ["--config", str(path)]
    code = run(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3), argv
