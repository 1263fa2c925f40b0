"""GL(n)-dependence solver for finite fields.

Each multiplier g_i is constrained to a full-rank subspace H (so nonzero means
invertible) and written as sum_t c_{i,t} B_t over the basis of H.  The witness
equation sum_i g_i M_i == 0 then becomes a homogeneous linear system with
(m+1)n unknowns and only mn equations, so a nonzero kernel vector always
exists; the canonical first kernel vector makes the output deterministic.

Only H's modulus f is read: B_t is multiplication by x^t mod f, and
fullrank._block_columns applies it.  The column of unknown i*n + t is
x^t M_i mod f, and g_i, multiplication by c_i(x) = sum_t c_{i,t} x^t, has
column j equal to x^j c_i(x) mod f.
"""

from __future__ import annotations

from . import errors
from .certificate import Witness, _check_instance
from .fullrank import _block_columns, build_fullrank_basis
from .matrix import Matrix, _trusted, kernel_basis


def solve_finite(matrices) -> Witness:
    """Witness for k >= m+1 matrices over a finite field.

    The first m+1 matrices carry the dependence, with multipliers drawn from
    the full-rank subspace; any further matrices receive the zero multiplier.
    Over an infinite field build_fullrank_basis raises InfiniteFieldError.
    """
    matrices = list(matrices)
    field, n, m = _check_instance(matrices)
    head = matrices[: m + 1]
    modulus = build_fullrank_basis(field, n).modulus

    columns = _block_columns(field, modulus, head)
    kernel = kernel_basis(_trusted(field, tuple(list(zip(*columns)))))
    errors.check(bool(kernel), f"({m + 1})*{n} unknowns vs {m * n} equations left no kernel vector")
    coeffs = kernel[0]
    cs = [_trusted(field, tuple([(c,) for c in coeffs[i * n : (i + 1) * n]])) for i in range(m + 1)]
    shifts = _block_columns(field, modulus, cs)
    gs = [_trusted(field, tuple(list(zip(*shifts[i * n : (i + 1) * n])))) for i in range(m + 1)]
    gs += [Matrix.zero(field, n, n)] * (len(matrices) - m - 1)
    return Witness(tuple(gs))
