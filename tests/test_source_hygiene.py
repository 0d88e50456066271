"""Source hygiene of ``src/netselect``, checked on the syntax tree.

* every module-level private name (``_x``, not dunder) is used somewhere in
  the package besides its own definition, so dead helpers do not linger;
* no top-level function or class name is defined in two modules, so no
  helper is defined twice.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "netselect"


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
