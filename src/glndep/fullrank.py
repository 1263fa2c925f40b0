"""Full-rank matrix subspaces: n-dimensional spaces of n x n matrices over a
finite field in which every nonzero member is invertible.

The construction is the regular representation of the degree-n extension field
GF(q)[x]/(f), f the first irreducible monic polynomial of degree n (in counting
order): B_t is multiplication by x^t in the basis 1, x, ..., x^(n-1), so column
j of B_t holds the coefficients of x^(t+j) mod f.  A nonzero combination is
the image of a nonzero field element, hence invertible.  check_fullrank_basis
re-verifies that claim exhaustively instead of trusting it, summing the
basis it is given term by term, since a basis read from JSON need not be H.

H acts through one routine, _block_columns: x^t M mod f for t < n.  B_t is
its image of the identity, and finite_solver builds its block system and its
multipliers with it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import errors
from .fields import Field, field_from_json, field_to_json, find_irreducible
from .matrix import Matrix, _add_scaled, _trusted, det, matrix_from_json, matrix_to_json


class FullRankBasis(errors._Record):
    """The basis B_0, ..., B_(n-1) of H for (field, n): B_t multiplies by x^t
    modulo modulus, so B_t[r][j] is coefficient r of x^(t+j) mod modulus."""

    __slots__ = ("field", "n", "modulus", "basis")


def _block_columns(field: Field, modulus, head) -> list[tuple]:
    """x^t M mod f for each matrix M of head and t < n, flattened row-major:
    the products B_t M, M-major.

    Column j of M is read as the polynomial sum_r M[r][j] x^r.  x^0 M is M.
    For the next t the rows move down one, and the row shifted out, the
    coefficients of x^n, comes back in as x^n == -sum_r f_r x^r: row r gains
    -f_r times it.  Exact field arithmetic, so the entries are those of the
    products B_t M.  Tuples are built from lists (see the note in matrix).
    """
    add, mul, z = field.add, field.mul, field.zero
    c0, *cs = [field.neg(c) for c in modulus[:-1]]  # x^n == c0 + c1 x + ... mod f
    columns = []
    for M in head:
        rows = M.entries
        columns.append(tuple([e for row in rows for e in row]))
        for _ in range(len(cs)):
            top = rows[-1]
            shifted = [tuple([mul(c0, s) for s in top])]
            for c, row in zip(cs, rows):
                if c != z:
                    row = tuple([add(e, mul(c, s)) if s != z else e for e, s in zip(row, top)])
                shifted.append(row)
            rows = shifted
            columns.append(tuple([e for row in rows for e in row]))
    return columns


@lru_cache(maxsize=None)
def _build(field: Field, n: int) -> FullRankBasis:
    modulus = find_irreducible(field, n)
    basis = tuple(
        _trusted(field, tuple([flat[r : r + n] for r in range(0, n * n, n)]))
        for flat in _block_columns(field, modulus, [Matrix.identity(field, n)])
    )
    return FullRankBasis(field, n, modulus, basis)


def build_fullrank_basis(field: Field, n: int) -> FullRankBasis:
    """Deterministic full-rank basis for (field, n); cached, since it is a pure
    function of its arguments."""
    if not field.is_finite:
        raise errors.InfiniteFieldError("full-rank subspaces are built over finite fields")
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an int >= 1, got {errors._excerpt(n)}")
    return _build(field, n)


def check_fullrank_basis(basis: FullRankBasis) -> bool:
    """True iff every nonzero combination of the basis has nonzero determinant.

    Exhausts all q^n - 1 combinations; raises TooLargeError above a cap of
    10^6 rather than sampling.
    """
    field = basis.field
    n = basis.n
    if len(basis.basis) != n:
        raise ValueError(f"basis has {len(basis.basis)} elements, expected {n}")
    for b in basis.basis:
        if b.rows != n or b.cols != n or b.field != field:
            raise ValueError("basis matrices must be n x n over the basis field")
    combos, cap = field.cardinality ** n, 10 ** 6
    if combos > cap:
        raise errors.TooLargeError(f"{combos} combinations exceed the cap of {cap}")
    elements = tuple(field.elements())
    zero = field.zero
    for coeffs in product(elements, repeat=n):
        if any(c != zero for c in coeffs):
            g = Matrix.zero(field, n, n)
            for c, b in zip(coeffs, basis.basis):
                if c != zero:
                    g = _add_scaled(g, c, b)
            if det(g) == zero:
                return False
    return True


def fullrank_to_json(basis: FullRankBasis) -> dict:
    enc = basis.field.element_to_json
    return {
        "field": field_to_json(basis.field),
        "n": basis.n,
        "modulus": [enc(c) for c in basis.modulus],
        "basis": [matrix_to_json(b) for b in basis.basis],
    }


def fullrank_from_json(obj) -> FullRankBasis:
    errors._check_object(obj, "full-rank basis", ("field", "n", "modulus", "basis"))
    field = field_from_json(obj["field"])
    n = obj["n"]
    errors._check_positive_int(n, "full-rank basis 'n'")
    modulus = obj["modulus"]
    if not isinstance(modulus, list) or len(modulus) != n + 1:
        raise errors.ParseError(f"full-rank basis 'modulus' must be a list of {errors._excerpt(n + 1)} coefficients")
    dec = field.element_from_json
    modulus = tuple(dec(c) for c in modulus)
    mats = obj["basis"]
    if not isinstance(mats, list) or len(mats) != n:
        raise errors.ParseError(f"full-rank basis needs {errors._excerpt(n)} matrices")
    basis = tuple(matrix_from_json(m) for m in mats)
    for b in basis:
        if b.field != field or b.rows != n or b.cols != n:
            raise errors.ParseError("basis matrix has the wrong field or shape")
    return FullRankBasis(field, n, modulus, basis)
