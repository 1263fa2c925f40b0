"""The benchmark tracer wraps glndep functions by name; every name must resolve.

A renamed or deleted function would otherwise only show up as a "not traced"
line in a traced benchmark run.  The tracer's tables are read with ``ast``,
so this process does not import the tracer; one test runs it in a child.  The names in them also count as callers
in the check that no definition in src is left that nothing calls, next to
which a second check finds defaulted parameters that no caller sets.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import glndep
from glndep.matrix import Matrix

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACER = PERFBENCH / "tracer.py"
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


def _run_python(code):
    import os
    import subprocess
    import sys

    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr[-300:]
    return proc.stdout.split()


def test_a_bare_import_registers_every_traced_module():
    # The tracer walks sys.modules; a lazily registered module is in it, and
    # the tracer's own getattr and vars() load it before anything is wrapped.
    registered = _run_python("import sys, glndep; print(*sys.modules)")
    assert sorted({f"glndep.{mod}" for mod, _ in _tracer_table("FUNCTIONS")} - set(registered)) == []


def test_the_tracer_leaves_no_wrapper_behind():
    # Lazy modules load while the tracer walks them.  One that took a name from a
    # module already wrapped would keep the wrapper, and uninstall() would miss
    # it.  The names the tracer did not find are printed too; there must be none.
    leftovers = _run_python("\n".join([
        "import sys",
        f"sys.path.insert(0, {str(PERFBENCH)!r})",
        "import glndep",
        "from tracer import Tracer",
        "tracer = Tracer()",
        "tracer.install()",
        "tracer.uninstall()",
        "print(*[f'{name}.{key}' for name, module in list(sys.modules.items()) if name.startswith('glndep')",
        "        for key, value in vars(module).items()",
        "        if getattr(getattr(value, '__code__', None), 'co_filename', '') == tracer.wrap.__code__.co_filename])",
        "print(*tracer.missing)",
    ]))
    assert leftovers == []


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


def _functions(tree):
    """(label, names its callers use, node, positional parameters a call passes)
    for every function and method; a method's callers pass self or cls
    implicitly, and a class's __init__ is also called by the class name."""
    stack = [(node, None) for node in tree.body]
    while stack:
        node, cls = stack.pop()
        if isinstance(node, ast.ClassDef):
            stack.extend((child, node.name) for child in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = [a.arg for a in node.args.posonlyargs + node.args.args]
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            if cls is not None and not static:
                params = params[1:]
            names = {node.name, cls} if node.name == "__init__" else {node.name}
            yield node.name if cls is None else f"{cls}.{node.name}", names, node, params


def _call_arguments(trees):
    """For each called name, the keywords its calls pass and the most positional
    arguments one call passes; *args passes every position, **kwargs every keyword."""
    keywords, positions = {}, Counter()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            passed = keywords.setdefault(name, set())
            passed.update(k.arg for k in call.keywords)  # None stands for **kwargs
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            positions[name] = max(positions[name], float("inf") if starred else len(call.args))
    return keywords, positions


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    """No knob that only tests turn: each defaulted parameter of a function in
    src is set, by keyword or by position, by some call in src or perfbench."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    callers = trees + [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    keywords, positions = _call_arguments(callers)
    unset = []
    for tree in trees:
        for label, names, node, params in _functions(tree):
            args = node.args
            first_default = len(params) - len(args.defaults)
            defaulted = [(p, i) for i, p in enumerate(params) if i >= first_default]
            defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for param, index in defaulted:
                if not any(
                    param in keywords.get(name, ()) or None in keywords.get(name, ())
                    or (index is not None and positions[name] > index)
                    for name in names
                ):
                    unset.append(f"{label}({param})")
    assert unset == []
