"""The benchmark tracer wraps glndep functions by name; every name must resolve.

A renamed or deleted function would otherwise only show up as a "not traced"
line in a traced benchmark run.  The tracer's tables are read with ``ast``,
so the tracer itself is not imported.  The names in them also count as callers
in the check that no definition in src is left that nothing calls.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import glndep
from glndep.matrix import Matrix

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = ROOT / "src" / "glndep"


def _tracer_table(name):
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


def test_traced_functions_resolve():
    functions = _tracer_table("FUNCTIONS")
    assert functions
    missing = [f"{mod}.{attr}" for mod, attr in functions
               if not callable(getattr(importlib.import_module(f"glndep.{mod}"), attr, None))]
    assert missing == []


def test_traced_methods_resolve():
    methods = _tracer_table("METHODS")
    assert methods
    assert [attr for _, attr in methods if attr not in vars(Matrix)] == []


def _definitions(tree):
    """Every function, class and method defined at module or class level."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            stack.extend(node.body)


def _references(node):
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_has_a_caller():
    """No production code that only tests use: each definition in src is named
    outside its own body, exported, traced by the benchmark, or a dunder."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    used = sum((_references(tree) for tree in trees), Counter())
    kept = set(glndep.__all__) | {attr for _, attr in _tracer_table("FUNCTIONS") + _tracer_table("METHODS")}
    unused = sorted(
        node.name
        for tree in trees
        for node in _definitions(tree)
        if used[node.name] == _references(node)[node.name]
        and node.name not in kept
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    assert unused == []
