"""Spans around calls into glndep's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at every ``glndep`` module
namespace that binds it (``rref`` is imported by name into several modules,
so patching ``glndep.matrix.rref`` alone would miss those callers), and wraps
``Matrix.__mul__`` and ``Matrix.__post_init__`` on the class.  Each span keeps
its name, start, end, parent span and operation id in flat arrays; nothing is
written until ``dump``.

Per-element field operations (add/mul/inv) are not wrapped: a wrapper per
element operation would swamp them.  Their cost shows in the self time of the
matrix spans that call them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, function) pairs; the span name is "<module>.<function>".
FUNCTIONS = [
    ("fields", "find_irreducible"), ("fields", "is_irreducible"), ("fields", "field_from_json"),
    ("matrix", "rref"), ("matrix", "det"), ("matrix", "kernel_basis"), ("matrix", "span_solve"),
    ("fullrank", "build_fullrank_basis"),
    ("certificate", "verify_witness"), ("certificate", "instance_from_json"),
    ("certificate", "witness_from_json"),
    ("finite_solver", "solve_finite"),
    ("rational_solver", "solve_rational"), ("rational_solver", "find_row_outside_span"),
    ("rational_solver", "project_and_recurse"), ("rational_solver", "correct_bad_index"),
    ("rational_solver", "choose_correction_scalar"), ("rational_solver", "row_dependences"),
    ("rational_solver", "solve_column_pair"),
    ("subspaces", "solve_subspace_dependence"), ("subspaces", "verify_subspace_witness"),
    ("oracle", "enumerate_gl"), ("oracle", "brute_force_witness"), ("oracle", "exhaustive_theorem_check"),
]
# (span name, class attribute) on glndep.matrix.Matrix.
METHODS = [("matrix.Matrix.mul", "__mul__"), ("matrix.Matrix.new", "__post_init__")]
SETUP_OP = -1
# Span columns and their array type codes.
COLUMNS = {"start": "d", "end": "d", "name": "i", "parent": "i", "op": "i", "nested": "b"}


def _empty_columns():
    return {col: array(code) for col, code in COLUMNS.items()}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        # nested[i] is 1 when an enclosing span has the same name as span i.
        self.columns = _empty_columns()
        self.active: list[int] = []  # open spans per name id
        self.current = -1
        self.op_id = SETUP_OP
        self.counters = {"matrix.rref.cells": 0, "fullrank.build_fullrank_basis.cache_hits": 0}
        self.missing: list[str] = []
        self._seen_h = set()
        self._patched = []

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self.ids[name]

    def wrap(self, name, fn, note=None):
        nid = self._id(name)
        cols = self.columns
        start, end, names, parents, ops, nested = (cols[c] for c in COLUMNS)
        active = self.active
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(args)
            idx = len(names)
            prev = tracer.current
            names.append(nid)
            parents.append(prev)
            ops.append(tracer.op_id)
            nested.append(1 if active[nid] else 0)
            end.append(0.0)
            active[nid] += 1
            tracer.current = idx
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                tracer.current = prev
                active[nid] -= 1

        return traced

    def _note_rref(self, args):
        self.counters["matrix.rref.cells"] += args[0].rows * args[0].cols

    def _note_h(self, args):
        key = (args[0], args[1])
        if key in self._seen_h:
            self.counters["fullrank.build_fullrank_basis.cache_hits"] += 1
        self._seen_h.add(key)

    def install(self):
        """Wrap every traced function wherever a glndep module binds it."""
        modules = [m for name, m in list(sys.modules.items()) if name == "glndep" or name.startswith("glndep.")]
        notes = {"matrix.rref": self._note_rref, "fullrank.build_fullrank_basis": self._note_h}
        for mod, attr in FUNCTIONS:
            name = f"{mod}.{attr}"
            original = getattr(sys.modules.get(f"glndep.{mod}"), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, notes.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)
        matrix_cls = sys.modules["glndep.matrix"].Matrix
        for name, attr in METHODS:
            original = matrix_cls.__dict__[attr]
            self._patched.append((matrix_cls, attr, original))
            setattr(matrix_cls, attr, self.wrap(name, original))

    def uninstall(self):
        for obj, key, value in reversed(self._patched):
            setattr(obj, key, value)
        self._patched.clear()

    def spans(self) -> "Spans":
        return Spans(list(self.names), self.columns, dict(self.counters))


class Spans:
    """A finished set of spans, possibly merged from several processes."""

    def __init__(self, names=None, columns=None, counters=None):
        self.names = names or []
        self.columns = columns or _empty_columns()
        self.counters = counters or {}

    def __len__(self):
        return len(self.columns["start"])

    def merge(self, other: "Spans"):
        """Append other's spans, remapping its name ids and parent indexes."""
        remap = []
        for name in other.names:
            if name not in self.names:
                self.names.append(name)
            remap.append(self.names.index(name))
        base = len(self)
        cols, ocols = self.columns, other.columns
        for col in ("start", "end", "op", "nested"):
            cols[col].extend(ocols[col])
        cols["name"].extend(array("i", (remap[i] for i in ocols["name"])))
        cols["parent"].extend(array("i", (p + base if p >= 0 else -1 for p in ocols["parent"])))
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def dump(self, path):
        header = {"names": self.names, "count": len(self), "columns": COLUMNS, "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in COLUMNS:
                self.columns[col].tofile(fh)

    @classmethod
    def load(cls, path) -> "Spans":
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            columns = _empty_columns()
            for col in COLUMNS:
                columns[col].fromfile(fh, header["count"])
        return cls(header["names"], columns, header["counters"])

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so recursion
        is not counted twice.  Self time is a span's duration minus the
        durations of its direct children.
        """
        cols = self.columns
        start, end, name, parent, nested = cols["start"], cols["end"], cols["name"], cols["parent"], cols["nested"]
        n = len(start)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {nm: {"calls": 0, "s": 0.0, "self_s": 0.0} for nm in self.names}
        for i in range(n):
            row = out[self.names[name[i]]]
            d = end[i] - start[i]
            row["calls"] += 1
            row["self_s"] += d - child[i]
            if not nested[i]:
                row["s"] += d
        return out
