"""Constructive solvers, verifiers, and brute-force oracles for GL(n)-dependence
of matrices over exact fields.

Matrices M_1..M_k of shape n x m over a field K are GL(n)-dependent when there
are n x n multipliers g_i, each invertible or zero and not all zero, with
sum(g_i * M_i) == 0.  Any m+1 such matrices are dependent; this package
constructs machine-checkable witnesses of that fact (a kernel method inside a
full-rank matrix subspace for finite fields, a recursive correction algorithm
for the rationals), verifies them independently, restates everything for
families of subspaces via row spaces, and ships an exhaustive brute-force
oracle for desk-scale ground truth.

Every submodule but errors and cli loads on first use: importing the package
compiles no solver, so a command-line process compiles only what it runs.
"""

import importlib.util
import sys

from . import errors

__version__ = "0.1.0"

# The CLI-level surface, each name with the module it lives in; every other
# helper stays importable from its module.
_HOMES = {
    "PrimeField": "fields",
    "ExtensionField": "fields",
    "RationalField": "rationals",
    "parse_field": "fields",
    "field_from_order": "fields",
    "field_to_json": "fields",
    "field_from_json": "fields",
    "Matrix": "matrix",
    "build_fullrank_basis": "fullrank",
    "check_fullrank_basis": "fullrank",
    "fullrank_to_json": "fullrank",
    "fullrank_from_json": "fullrank",
    "Witness": "certificate",
    "VerificationError": "certificate",
    "verify_witness": "certificate",
    "witness_to_json": "certificate",
    "witness_from_json": "certificate",
    "instance_to_json": "certificate",
    "instance_from_json": "certificate",
    "solve_finite": "finite_solver",
    "solve_rational": "rational_solver",
    "solve_unsafe_finite": "rational_solver",
    "Subspace": "subspaces",
    "SubspaceWitness": "subspaces",
    "SubspaceVerificationError": "subspaces",
    "solve_subspace_dependence": "subspaces",
    "verify_subspace_witness": "subspaces",
    "subspace_to_json": "subspaces",
    "subspace_witness_to_json": "subspaces",
    "subspace_witness_from_json": "subspaces",
    "brute_force_witness": "oracle",
    "exhaustive_theorem_check": "oracle",
    "report_to_json": "oracle",
}
__all__ = ["errors", *_HOMES]

# Registered importers first: code that walks sys.modules in order, as a
# tracer that replaces functions does, loads each module before those it takes
# names from, so the names it took are still the originals.  cli is never
# registered: `python -m glndep.cli` must find it unimported.
_LAZY = (
    "subspaces", "oracle", "rational_solver", "finite_solver", "fullrank", "certificate", "matrix", "rationals", "fields"
)
for _name in _LAZY:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    # Read from the home module on every access, so a function replaced
    # there is what the package returns too.
    if name in _HOMES:
        return getattr(globals()[_HOMES[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_HOMES])
