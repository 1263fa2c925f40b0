"""The benchmark tracer wraps glndep functions by name; every name must resolve.

A renamed or deleted function would otherwise only show up as a "not traced"
line in a traced benchmark run.  The tracer's tables are read with ``ast``,
so the tracer itself is not imported.
"""

import ast
import importlib
from pathlib import Path

from glndep.matrix import Matrix

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
