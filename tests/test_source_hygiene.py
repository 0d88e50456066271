"""Source hygiene of ``src/netselect``, checked on the syntax tree.

* every module-level private name (``_x``, not dunder) is used somewhere in
  the package besides its own definition, so dead helpers do not linger;
* no top-level function or class name is defined in two modules, so no
  helper is defined twice;
* every module attribute that ``perfbench/spans.py`` wraps still resolves, so
  a deletion in ``src`` cannot break a traced benchmark run unnoticed;
* every name ``netselect/__init__.py`` exports is used in the package besides
  its own definition, or is wrapped by the benchmark's tracer, or is library
  API on the short list below, so a function only its tests call does not
  linger in ``src``;
* ``Graph`` holds only its edge arrays and what is derived from them at once,
  so a kernel's structure is not cached on every graph unnoticed;
* ``cli._write_output`` is the only function that opens a file for writing,
  so every output file is written one way;
* ``seeds`` is the only module that calls ``default_rng``, ``PCG64`` or
  ``SeedSequence``, so every draw builds its generator one way;
* ``inference.log_evidences`` and the plot writer are the only places that
  evaluate a density estimate, so ``compare`` and the study get their
  evidences one way;
* ``inference.score`` is the only function that calls ``expected_loss``, so
  ``compare`` and the study weigh their expected losses one way.
"""

import ast
import dataclasses
import importlib.util
from collections import Counter, defaultdict
from pathlib import Path

from netselect.graph import Graph

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "netselect"


def _trees() -> dict:
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


def _defined_names(node: ast.stmt) -> list:
    """Names a top-level statement binds (imports excluded)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _uses(tree: ast.AST) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def test_every_private_module_name_is_used():
    trees = _trees()
    uses = sum((_uses(t) for t in trees.values()), Counter())
    unused = [f"{mod}:{name}" for mod, tree in trees.items() for node in tree.body
              for name in _defined_names(node)
              if name.startswith("_") and not name.startswith("__")
              and uses[name] == _uses(node)[name]]  # uses outside the definition
    assert unused == []


def test_no_function_or_class_is_defined_in_two_modules():
    homes = defaultdict(list)
    for mod, tree in _trees().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                homes[node.name].append(mod)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}


def _tracer():
    """A fresh ``Tracer`` of ``perfbench/spans.py``, not installed."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer()


def test_every_name_the_benchmark_tracer_wraps_resolves_and_is_restored():
    tracer = _tracer()
    tracer.install()  # getattr raises if a wrapped name is gone
    wrapped = list(tracer._restore)
    try:
        assert len({(module.__name__, attr) for module, attr, _ in wrapped}) == 21
        assert all(callable(real) and getattr(module, attr) is not real
                   for module, attr, real in wrapped)
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is real for module, attr, real in wrapped)


#: Exported names that no command reaches, kept as library API.
LIBRARY_API = {
    "bayes_factor",  # the evidence ratio of the criteria and the inference tests
    "consensus_merge",  # the per-shard draw merge of a criterion
    "generate_sbm",  # the block-model draw of a given membership, for the criteria
    "report_from_json",  # the reader of the report JSON that compare writes
}


def test_every_exported_name_is_used_in_the_package_wrapped_or_library_api():
    trees = _trees()
    exported = {alias.asname or alias.name for node in trees.pop("__init__.py").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    uses = sum((_uses(t) for t in trees.values()), Counter())
    for tree in trees.values():  # a use inside the name's own definition does not count
        for node in tree.body:
            for name in _defined_names(node):
                uses[name] -= _uses(node)[name]
    tracer = _tracer()
    tracer.install()
    wrapped = {attr for _, attr, _ in tracer._restore}
    tracer.uninstall()
    assert sorted(name for name in exported
                  if uses[name] <= 0 and name not in wrapped | LIBRARY_API) == []


def test_graph_holds_only_its_edge_arrays_degrees_and_triangle_memo():
    """A kernel builds its neighbourhood structure from the edge arrays and
    drops it; caching one on ``Graph`` again is a change to this list."""
    assert [f.name for f in dataclasses.fields(Graph)] == [
        "node_count", "lo", "hi", "degrees", "edge_count", "_triangles"]


def _write_opens(tree: ast.AST) -> list:
    """The ``open(...)`` calls under ``tree`` whose mode, positional or keyword,
    holds "w", "a" or "x"; a mode that is not a literal counts as writing."""
    def writes(call):
        modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
        return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax")
                   for m in modes)
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "open" and writes(node)]


def test_only_write_output_opens_a_file_for_writing():
    trees = _trees()
    [writer] = [node for node in trees["cli.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "_write_output"]
    sites = [(mod, call.lineno) for mod, tree in trees.items() for call in _write_opens(tree)]
    assert sites == [("cli.py", call.lineno) for call in _write_opens(writer)]
    assert len(sites) == 1


def test_only_seeds_builds_generators():
    builders = {"default_rng", "PCG64", "SeedSequence"}
    callers = {mod for mod, tree in _trees().items() for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and (node.func.attr if isinstance(node.func, ast.Attribute)
                    else getattr(node.func, "id", None)) in builders}
    assert callers == {"seeds.py"}


def _callers(names: set, skip: frozenset = frozenset()) -> set:
    """The (module, top-level function or class) pairs whose body calls one of
    ``names``, as a bare name or as an attribute; those named in ``skip`` are
    left out."""
    return {(mod, node.name) for mod, tree in _trees().items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in skip
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and (call.func.attr if isinstance(call.func, ast.Attribute)
                 else getattr(call.func, "id", None)) in names}


def test_only_log_evidences_and_the_plot_writer_evaluate_densities():
    """Calls of ``evidence``, ``log_evidence``, ``.log_density`` or ``.evaluate``,
    by the top-level function or class they sit in. The evaluation primitives
    themselves (the density classes, ``evidence`` and ``log_evidence``) call
    one another and are left out."""
    assert _callers({"evidence", "log_evidence", "log_density", "evaluate"},
                    frozenset({"DiscretePmf", "Kde", "evidence", "log_evidence"})) == {
        ("inference.py", "log_evidences"), ("cli.py", "_write_plot_data")}


def test_only_the_scorer_computes_expected_losses():
    assert _callers({"expected_loss"}) == {("inference.py", "score")}
