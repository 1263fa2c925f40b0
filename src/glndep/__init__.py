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
"""

from . import errors
from .certificate import (
    VerificationError,
    Witness,
    instance_from_json,
    instance_to_json,
    verify_witness,
    witness_from_json,
    witness_to_json,
)
from .fields import (
    ExtensionField,
    PrimeField,
    RationalField,
    field_from_json,
    field_from_order,
    field_to_json,
    parse_field,
)
from .fullrank import build_fullrank_basis, check_fullrank_basis, fullrank_from_json, fullrank_to_json
from .matrix import Matrix
from .oracle import brute_force_witness, exhaustive_theorem_check, report_to_json
from .finite_solver import solve_finite
from .rational_solver import solve_rational, solve_unsafe_finite
from .subspaces import (
    Subspace,
    SubspaceVerificationError,
    SubspaceWitness,
    solve_subspace_dependence,
    subspace_to_json,
    subspace_witness_from_json,
    subspace_witness_to_json,
    verify_subspace_witness,
)

__version__ = "0.1.0"

# The CLI-level surface; every other helper stays importable from its module.
__all__ = [
    "errors",
    "PrimeField",
    "ExtensionField",
    "RationalField",
    "parse_field",
    "field_from_order",
    "field_to_json",
    "field_from_json",
    "Matrix",
    "build_fullrank_basis",
    "check_fullrank_basis",
    "fullrank_to_json",
    "fullrank_from_json",
    "Witness",
    "VerificationError",
    "verify_witness",
    "witness_to_json",
    "witness_from_json",
    "instance_to_json",
    "instance_from_json",
    "solve_finite",
    "solve_rational",
    "solve_unsafe_finite",
    "Subspace",
    "SubspaceWitness",
    "SubspaceVerificationError",
    "solve_subspace_dependence",
    "verify_subspace_witness",
    "subspace_to_json",
    "subspace_witness_to_json",
    "subspace_witness_from_json",
    "brute_force_witness",
    "exhaustive_theorem_check",
    "report_to_json",
]
