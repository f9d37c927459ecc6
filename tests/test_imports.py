"""Static checks of the hyperpoly sources: every imported name is used,
no module imports a private name of sets.py, every private function has a
caller, no module re-canonicalises a box, and no run-time check is an
assert statement."""
import ast
from pathlib import Path

import pytest

import hyperpoly

MODULES = sorted(p for p in Path(hyperpoly.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


def test_no_module_imports_a_private_name_of_sets():
    """sets.py keeps its endpoint arithmetic to itself: the carriers and
    every other module read only its public names."""
    private = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        private.extend(f"{path.name}: {a.name}" for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       and node.module == "sets"
                       for a in node.names if a.name.startswith("_"))
    assert sorted(private) == []


def test_every_private_function_is_referenced():
    """An underscore-private function or method left without a caller is
    dead code: every one defined in the package is named somewhere in it."""
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in Path(hyperpoly.__file__).parent.glob("*.py")]
    defined, referenced = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert sorted(defined - referenced) == []


def test_no_module_calls_canonical():
    """A PolyBox is canonical when it is built (PolyBox.__post_init__), so
    no module calls .canonical() to normalise one again."""
    calls = []
    for path in Path(hyperpoly.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "canonical")
    assert sorted(calls) == []


def test_no_assert_statement():
    """`python -O` strips assert statements, so every run-time check in the
    package raises AssertionError explicitly instead."""
    found = []
    for path in Path(hyperpoly.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert sorted(found) == []
