"""GL(n)-dependence solver for finite fields.

Each multiplier g_i is constrained to a full-rank subspace H (so nonzero means
invertible) and written as sum_t c_{i,t} B_t over the basis of H.  The witness
equation sum_i g_i M_i == 0 then becomes a homogeneous linear system with
(m+1)n unknowns and only mn equations, so a nonzero kernel vector always
exists; the canonical first kernel vector makes the output deterministic.

The system is built without matrix products: B_t multiplies by x^t modulo the
modulus f of H, so reading column j of M_i as the polynomial
sum_r M_i[r][j] x^r, B_(t+1) M_i is x (B_t M_i) mod f, one shift of the rows.
"""

from __future__ import annotations

from . import errors
from .certificate import Witness, _check_instance, witness_from_matrices
from .fullrank import _member, build_fullrank_basis
from .matrix import Matrix, _trusted, kernel_basis


def _block_columns(field, modulus, head) -> list[tuple]:
    """The columns of the block system.  Unknown i*n + t is the coefficient of
    B_t in g_i; its column is B_t M_i, flattened row-major.

    B_0 M_i is M_i.  For the next t the rows move down one, and the row
    shifted out, the coefficients of x^n, comes back in as x^n == -sum_r f_r x^r:
    row r gains -f_r times it.  Exact field arithmetic, so the entries are
    those of the products B_t M_i.  Tuples are built from lists (see the
    note in matrix).
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


def solve_finite(matrices) -> Witness:
    """Witness for k >= m+1 matrices over a finite field.

    The first m+1 matrices carry the dependence, with multipliers drawn from
    the full-rank subspace; any further matrices receive the zero multiplier.
    """
    matrices = list(matrices)
    field, n, m = _check_instance(matrices)
    head = matrices[: m + 1]
    if not field.is_finite:
        raise errors.InfiniteFieldError("the kernel-method solver needs a finite field")
    basis = build_fullrank_basis(field, n)

    columns = _block_columns(field, basis.modulus, head)
    kernel = kernel_basis(_trusted(field, tuple(list(zip(*columns)))))
    errors.check(bool(kernel), f"({m + 1})*{n} unknowns vs {m * n} equations left no kernel vector")
    coeffs = kernel[0]
    gs = [_member(basis, coeffs[i * n : (i + 1) * n]) for i in range(m + 1)]
    gs += [Matrix.zero(field, n, n)] * (len(matrices) - m - 1)
    return witness_from_matrices(field, gs)
