"""GL(n)-dependence solver for finite fields.

Each multiplier g_i is constrained to a full-rank subspace H (so nonzero means
invertible) and written as sum_t c_{i,t} B_t over the basis of H.  The witness
equation sum_i g_i M_i == 0 then becomes a homogeneous linear system with
(m+1)n unknowns and only mn equations, so a nonzero kernel vector always
exists; the canonical first kernel vector makes the output deterministic.
"""

from __future__ import annotations

from . import errors
from .certificate import Witness, _check_instance, witness_from_matrices
from .fullrank import _member, build_fullrank_basis
from .matrix import Matrix, _trusted, kernel_basis


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

    # Unknown i*n + t is the coefficient of B_t in g_i; its column is B_t M_i, flattened row-major.
    columns = [tuple(e for row in (b * M).entries for e in row) for M in head for b in basis.basis]
    kernel = kernel_basis(_trusted(field, tuple(zip(*columns))))
    errors.check(bool(kernel), f"({m + 1})*{n} unknowns vs {m * n} equations left no kernel vector")
    coeffs = kernel[0]
    gs = [_member(basis, coeffs[i * n : (i + 1) * n]) for i in range(m + 1)]
    gs += [Matrix.zero(field, n, n)] * (len(matrices) - m - 1)
    return witness_from_matrices(field, gs)
