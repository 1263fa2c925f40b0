"""Brute-force ground truth over small finite fields.

Enumerates GL(n, q) outright, searches (GL union {0})^k exhaustively for
witnesses, and sweeps every instance of a given shape to certify that each one
is dependent and that the solver's certificate verifies.  Hard caps raise
TooLargeError; the oracle never samples.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import errors, finite_solver
from .certificate import Witness, verify_witness
from .fields import Field, field_to_json
from .matrix import Matrix, _one_field_and_shape, _trusted, det


@lru_cache(maxsize=None)
def _gl_matrices(field: Field, n: int) -> tuple[Matrix, ...]:
    zero = field.zero
    elements = tuple(field.elements())
    found = []
    for flat in product(elements, repeat=n * n):
        m = _trusted(field, tuple(flat[r * n : (r + 1) * n] for r in range(n)))
        if det(m) != zero:
            found.append(m)
    return tuple(found)


def enumerate_gl(field: Field, n: int, cap: int = errors.DEFAULT_CAP) -> tuple[Matrix, ...]:
    """All invertible n x n matrices, in lexicographic order of their entries."""
    if not field.is_finite:
        raise errors.InfiniteFieldError("GL enumeration needs a finite field")
    q = field.cardinality
    if errors._power_exceeds(q, n * n, cap):
        raise errors.TooLargeError(f"{q}^{n * n} candidate matrices exceed the cap of {errors._excerpt(cap)}")
    return _gl_matrices(field, n)


def _pool(field: Field, n: int, k: int, cap: int) -> tuple[Matrix, ...]:
    """The candidates for each of k multipliers: the zero matrix, then GL(n, q).

    Its size 1 + prod_{t<n} (q^n - q^t) is known in advance, so a search over
    more than cap k-tuples is refused before GL(n, q) is enumerated.
    """
    q = field.cardinality
    size = 1
    for t in range(n):
        size *= q ** n - q ** t
        if size > cap:  # then so is every power of the pool size
            break
    if errors._power_exceeds(size + 1, k, cap):
        raise errors.TooLargeError(f"(1 + |GL({n}, {q})|)^{k} candidate tuples exceed the cap of {errors._excerpt(cap)}")
    return (Matrix.zero(field, n, n),) + enumerate_gl(field, n, cap)


def _flat(matrix: Matrix) -> tuple:
    return tuple(e for row in matrix.entries for e in row)


def _products(pool, matrix: Matrix) -> tuple[list, dict]:
    """Every g * matrix for g in the pool, flattened, and the pool indices
    at which each product occurs."""
    flats = [_flat(g * matrix) for g in pool]
    where: dict[tuple, list[int]] = {}
    for idx, value in enumerate(flats):
        where.setdefault(value, []).append(idx)
    return flats, where


def _first_witness(field: Field, pool, tables) -> Witness | None:
    """First witness tuple over pool^k in lexicographic order, or None.

    tables holds _products(pool, M) for each of the k matrices M.  The last
    slot is resolved by lookup: for every prefix, the required final product
    is the negated partial sum, so the scan is linear in pool^(k-1) instead of
    pool^k without changing which tuple is found first.
    """
    fadd, fneg = field.add, field.neg
    last_flats, last_index = tables[-1]
    zero_flat = (field.zero,) * len(last_flats[0])
    for prefix in product(range(len(pool)), repeat=len(tables) - 1):
        acc = zero_flat
        for slot, idx in enumerate(prefix):
            if idx:
                acc = tuple(fadd(a, b) for a, b in zip(acc, tables[slot][0][idx]))
        target = tuple(fneg(a) for a in acc)
        for idx in last_index.get(target, ()):
            if idx == 0 and all(p == 0 for p in prefix):
                continue
            chosen = prefix + (idx,)
            return Witness(tuple([pool[i] for i in chosen]))
    return None


def brute_force_witness(matrices, cap: int = errors.DEFAULT_CAP) -> Witness | None:
    """First witness tuple over (GL union {0})^k in lexicographic order, or None.

    The pool is ordered zero first, then the GL enumeration (see _first_witness).
    """
    matrices = list(matrices)
    # An infinite first field is refused before the fields and shapes are compared.
    if matrices and not matrices[0].field.is_finite:
        raise errors.InfiniteFieldError("the brute-force oracle needs a finite field")
    field, n, _ = _one_field_and_shape(matrices)
    pool = _pool(field, n, len(matrices), cap)
    return _first_witness(field, pool, [_products(pool, M) for M in matrices])


class TheoremReport(errors._Record):
    """Outcome of one exhaustive sweep; failures holds one dict per failed check."""

    __slots__ = ("field", "n", "m", "instances", "all_have_witness", "solver_agrees", "failures")


def exhaustive_theorem_check(field: Field, n: int, m: int, cap: int = errors.DEFAULT_CAP) -> TheoremReport:
    """Sweep every (m+1)-tuple of n x m matrices over the field.

    For each instance the brute-force search must find a witness and the
    kernel-method solver's witness must verify.  The search reads one table of
    pool products per shape, built once for the whole sweep.  The per-instance
    check is a pure function and failures are merged by counting, so the
    report does not depend on sweep order.
    """
    if not field.is_finite:
        raise errors.InfiniteFieldError("the exhaustive sweep needs a finite field")
    errors._check_sweep_size(field.cardinality, n, m, cap)
    pool = _pool(field, n, m + 1, cap)  # a search over the cap raises here, before any instance
    elements = tuple(field.elements())
    shapes = [
        _trusted(field, tuple(flat[r * m : (r + 1) * m] for r in range(n)))
        for flat in product(elements, repeat=n * m)
    ]
    # Every instance draws its matrices from shapes, so each g * S is computed once per sweep.
    tables = [_products(pool, S) for S in shapes]
    instances = 0
    all_have = True
    agrees = True
    failures = []
    for combo in product(range(len(shapes)), repeat=m + 1):
        instances += 1
        mats = [shapes[i] for i in combo]
        if _first_witness(field, pool, [tables[i] for i in combo]) is None:
            all_have = False
            failures.append({"instance": instances - 1, "kind": "no-witness"})
        try:
            verify_witness(mats, finite_solver.solve_finite(mats))
        except errors.Error as exc:
            agrees = False
            failures.append({"instance": instances - 1, "kind": f"solver: {exc}"})
    return TheoremReport(field, n, m, instances, all_have, agrees, tuple(failures))


def report_to_json(report: TheoremReport) -> dict:
    return {
        "field": field_to_json(report.field),
        "n": report.n,
        "m": report.m,
        "instances": report.instances,
        "all_have_witness": report.all_have_witness,
        "solver_agrees": report.solver_agrees,
        "failures": list(report.failures),
    }
