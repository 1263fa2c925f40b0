"""Mutation run over the witness verifier: every refusal in it must be load-bearing.

    python tests/mutation.py

The script needs only the standard library; pytest runs in the child
processes.  It copies src/, tests/ and
pyproject.toml to a temporary directory.  For each mutant it rewrites one
function of that copy's certificate.py and runs TESTS there in a child
pytest (stopping at the first failure); the mutant is killed when the child
fails.  Nothing under the checkout is written.

Mutants (ast, one change each) inside each region of TARGETS: drop a `raise`
(it becomes `pass`), flip a comparison operator (== and !=, < and >=, > and
<=), negate an `if` (statements and comprehension filters).  The regions are
verify_witness, the trust anchor, and the one claim witness_from_json checks
itself, that an inv-tagged entry is not the zero matrix.

Exit code 0 when every mutant outside EQUIVALENT is killed, 1 when one
survives, 2 when the unmutated copy already fails TESTS.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULE = "src/glndep/certificate.py"
# (function, marker): the whole function when marker is None, else the
# statements of its body that hold the string constant marker.
TARGETS = (("verify_witness", None), ("witness_from_json", "singular"))
TESTS = ("tests/test_certificate.py",)
# Mutant label -> the one-line argument that no test can kill it.  Empty:
# every mutant of the regions above changes what some input gets.
EQUIVALENT: dict[str, str] = {}

_FLIP = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}


class _Mutator(ast.NodeTransformer):
    """Walks a region in a fixed order, naming each mutation site; applies the
    site numbered target (None applies nothing)."""

    def __init__(self, function: str, target: int | None):
        self.function, self.target, self.labels = function, target, []

    def _site(self, what: str, node: ast.AST) -> bool:
        self.labels.append(f"{self.function}: {what} `{ast.unparse(node).splitlines()[0]}`")
        return len(self.labels) - 1 == self.target

    def visit_If(self, node):
        hit = self._site("negate", node.test)
        self.generic_visit(node)
        if hit:
            node.test = ast.UnaryOp(ast.Not(), node.test)
        return node

    def visit_comprehension(self, node):
        self.generic_visit(node)
        for i, cond in enumerate(node.ifs):
            if self._site("negate filter", cond):
                node.ifs[i] = ast.UnaryOp(ast.Not(), cond)
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            flipped = _FLIP[type(op)]
            if self._site(f"flip {type(op).__name__} to {flipped.__name__} in", node):
                node.ops[i] = flipped()
        return node

    def visit_Raise(self, node):
        self.generic_visit(node)
        return ast.Pass() if self._site("drop", node) else node


def _mutate(source: str, target: int | None) -> tuple[str, list[str]]:
    """(the module source with mutant target applied, every mutant's label)."""
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    labels = []
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    spans = []
    for name, marker in TARGETS:
        if name not in funcs:
            raise SystemExit(f"{MODULE} has no function {name}")
        func = funcs[name]
        region = [i for i, stmt in enumerate(func.body) if marker is None or any(
            isinstance(n, ast.Constant) and n.value == marker for n in ast.walk(stmt))]
        if not region:
            raise SystemExit(f"{name} has no statement holding {marker!r}")
        mutator = _Mutator(name, None if target is None else target - len(labels))
        for i in region:
            func.body[i] = mutator.visit(func.body[i])
        changed = mutator.target is not None and 0 <= mutator.target < len(mutator.labels)
        labels += mutator.labels
        if changed:
            spans.append((func.lineno, func.end_lineno, ast.unparse(func) + "\n"))
    # Splice from the last function up, so earlier line numbers stay valid.
    for start, end, text in sorted(spans, reverse=True):
        lines[start - 1:end] = [text]
    return "".join(lines), labels


def main() -> int:
    source = (ROOT / MODULE).read_text()
    _, labels = _mutate(source, None)
    with tempfile.TemporaryDirectory(prefix="glndep-mutation-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        # No bytecode: a mutant of the same size written within the same
        # second would otherwise load the previous mutant's cached .pyc.
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]

        def passes() -> bool:
            return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode == 0

        if not passes():
            print(f"the unmutated copy fails {' '.join(TESTS)}")
            return 2
        counts = {"killed": 0, "equivalent": 0, "SURVIVED": 0}
        for k, label in enumerate(labels):
            (copy / MODULE).write_text(_mutate(source, k)[0])
            status = "killed" if not passes() else "equivalent" if label in EQUIVALENT else "SURVIVED"
            counts[status] += 1
            print(f"{status:10} {label}", flush=True)
    print(f"{len(labels)} mutants: " + ", ".join(f"{n} {status.lower()}" for status, n in counts.items()))
    return 1 if counts["SURVIVED"] else 0


if __name__ == "__main__":
    sys.exit(main())
