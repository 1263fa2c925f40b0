"""Recursive GL(n)-dependence solver for matrices over the rationals.

Outline, for k >= m+1 matrices of shape n x m (a zero input matrix immediately
yields a witness with the identity on it and zeros elsewhere; extra matrices
beyond the first m+1 receive the zero multiplier):

* m == 1 and n > 1: matrices are nonzero columns, and some invertible g maps the
  first onto the second, giving the multipliers (g, -I).
* otherwise, take the canonical kernel vector of each row slice (m+1 rows of
  width m) and assemble diagonal multipliers g_i with sum(g_i M_i) == 0.  They
  are the answer when n == 1 (each 1 x 1 multiplier is zero or invertible) or
  when all of them are invertible.  If some matrix j owns a row outside the span of
  every other matrix's rows, drop it (g_j = 0), rewrite the other matrices in
  coordinates of that span (strictly fewer columns) and recurse; per-row
  coordinate change commutes with left multiplication, so the recursive
  multipliers lift verbatim.  Otherwise each singular g_j is repaired in turn:
  g_j gains x*I and every other g_i pays x times the matrix of coefficients
  expressing the rows of M_j over its own rows, which preserves the sum.  Each
  determinant that must stay nonzero is a nonzero polynomial of degree at most
  n in x, so the first n*(number of them) + 1 nonzero scalars hold a good x;
  the step takes the first one, judged by the determinants of the multipliers
  it would give.  The row expansions come from the outside-span scan, one
  matrix.span_solve per matrix; the first invertible set is read off the
  diagonal multipliers' entries, and each later one from the determinants of
  the step before.

The steps pass plain lists of multiplier matrices.  Only the two public entry
points check the instance and wrap the multipliers in a Witness, which reads
whether each one is zero off the matrix itself; every matrix the recursion
builds is assembled from already validated entries (see matrix._trusted).

All choices (kernel vectors, span expansions, scan order, smallest bad index
first) are canonical, so witnesses are reproducible byte for byte.

The same recursion runs over a finite field via solve_unsafe_finite, where the
scalars are the field's nonzero elements in canonical order instead of
1, 2, ....  It requires |K| > n*(m+2), which gives every scan all of its
candidates (see solve_unsafe_finite).

Post-conditions are explicit checks raising PostconditionError, so they also
run under python -O.
"""

from __future__ import annotations

from itertools import accumulate, islice, repeat

from . import errors
from .certificate import Witness, _check_instance
from .matrix import (
    Matrix,
    _add_scaled,
    _gauss_jordan,
    _one_field_and_shape,
    _trusted,
    _weighted_sum,
    det,
    kernel_basis,
    rref,
    span_solve,
)


def solve_rational(matrices) -> Witness:
    """Witness for k >= m+1 rational n x m matrices."""
    matrices = list(matrices)
    if matrices and matrices[0].field.is_finite:
        raise ValueError("solve_rational expects rational matrices; see solve_finite / solve_unsafe_finite")
    _check_instance(matrices)
    return Witness(tuple(_solve_entry(matrices)))


def solve_unsafe_finite(matrices) -> Witness:
    """Run the recursive algorithm over a finite field with |K| > n*(m+2).

    The guard keeps every correction scalar scan from exhausting.  A
    correction keeps at most m+1 determinants nonzero, so it scans at most
    n*(m+1) + 1 <= |K| - 1 nonzero scalars (see choose_correction_scalar), and
    recursion only lowers m.
    """
    matrices = list(matrices)
    field, n, m = _check_instance(matrices)
    if not field.is_finite:
        raise ValueError("solve_unsafe_finite expects a finite field; use solve_rational")
    if field.cardinality <= n * (m + 2):
        raise ValueError(
            f"field of size {field.cardinality} is too small for the recursive mode "
            f"(need > {n * (m + 2)}); use solve_finite"
        )
    return Witness(tuple(_solve_entry(matrices)))


def _solve_entry(matrices: list[Matrix]) -> list[Matrix]:
    """Multipliers for k >= m+1 matrices of one shape n x m over one field."""
    field = matrices[0].field
    n, m = matrices[0].rows, matrices[0].cols
    k = len(matrices)
    zero_g = Matrix.zero(field, n, n)
    for j, M in enumerate(matrices):
        if M.is_zero():
            gs = [zero_g] * k
            gs[j] = Matrix.identity(field, n)
            return gs
    gs = _solve_core(matrices[: m + 1]) + [zero_g] * (k - m - 1)
    errors.check(_weighted_sum(gs, matrices).is_zero(), "the witness sum is nonzero")
    return gs


def _solve_core(matrices: list[Matrix]) -> list[Matrix]:
    """Multipliers for exactly m+1 nonzero matrices."""
    field = matrices[0].field
    n, m = matrices[0].rows, matrices[0].cols
    if m == 1 and n > 1:
        return solve_column_pair(matrices[0], matrices[1])

    zero = field.zero
    deps = row_dependences(matrices)
    gs = [
        _trusted(field, tuple([tuple([deps[r][i] if r == c else zero for c in range(n)]) for r in range(n)]))
        for i in range(m + 1)
    ]
    errors.check(_weighted_sum(gs, matrices).is_zero(), "the row-dependence multipliers do not sum to zero")
    good = frozenset(i for i in range(m + 1) if all(dep[i] != zero for dep in deps))
    if n == 1 or len(good) == m + 1:
        return gs

    hit, expansions = find_row_outside_span(matrices)
    if hit is not None:
        return project_and_recurse(matrices, hit)

    # correct_bad_index checks that the invertible set strictly grows, which
    # bounds the loop.
    while len(good) <= m:
        j = min(i for i in range(m + 1) if i not in good)
        gs, good = correct_bad_index(gs, good, j, expansions[j])
        errors.check(_weighted_sum(gs, matrices).is_zero(), f"correcting index {j} broke the witness sum")
    return gs


def solve_column_pair(w1: Matrix, w2: Matrix) -> list[Matrix]:
    """Multipliers [g, -I] for two nonzero columns of one height and field,
    where g is an invertible matrix mapping w1 onto w2 (see find_gl_transform)."""
    return [find_gl_transform(w1, w2), -Matrix.identity(w1.field, w1.rows)]


def find_gl_transform(m1: Matrix, m2: Matrix) -> Matrix | None:
    """An invertible g with g * m1 == m2, or None when the row spaces differ.

    Both matrices are written as coordinate matrices over the shared canonical
    row basis, the nonzero rows of their common RREF; a row's coordinates are
    its entries at the pivot columns.  Those coordinate columns are completed
    to invertible p1 and p2 by the standard basis vectors of smallest index
    that keep them independent, the pivot columns of one elimination of
    [columns | I].  g is the one solution of g * p1 == p2: eliminating
    the rows of [p1^T | p2^T] with pivots in the first n columns leaves
    [I | g^T].  Equal inputs produce the identity, and the transform onto the
    identity is the inverse.  The result is re-verified before returning.
    """
    field, n, _ = _one_field_and_shape([m1, m2])
    reduced = rref(m1)
    if reduced.rref != rref(m2).rref:
        return None
    s = reduced.rank
    units = [tuple([field.one if t == idx else field.zero for t in range(n)]) for idx in range(n)]
    completed = []
    for m in (m1, m2):
        cols = [tuple([r[c] for r in m.entries]) for c in reduced.pivot_cols]
        _, pivot_cols, _ = _gauss_jordan(field, zip(*cols, *units), s + n, reduce=False)
        errors.check(pivot_cols[:s] == tuple(range(s)), "the coordinate columns are dependent")
        completed.append(cols + [units[p - s] for p in pivot_cols[s:]])
    work, _, _ = _gauss_jordan(field, [c1 + c2 for c1, c2 in zip(*completed)], n)
    g = _trusted(field, tuple(list(zip(*[row[n:] for row in work]))))
    errors.check(det(g) != field.zero and g * m1 == m2, "the transform is singular or misses m2")
    return g


def row_dependences(matrices) -> list[tuple]:
    """Canonical scalar dependence of the row-r slices, one coefficient tuple per r.

    The m+1 rows of width m are always dependent, so each kernel is nonzero;
    the diagonal matrices built from these coefficients sum against the input
    matrices to zero.
    """
    matrices = list(matrices)
    field = matrices[0].field
    n, m = matrices[0].rows, matrices[0].cols
    out = []
    for r in range(n):
        stacked = _trusted(field, tuple([tuple([M.entries[r][c] for M in matrices]) for c in range(m)]))
        kernel = kernel_basis(stacked)
        errors.check(bool(kernel), f"row slice {r}: {m + 1} vectors of length {m} are independent")
        out.append(kernel[0])
    return out


def _expand_rows(matrices, j: int) -> list:
    """Rows of M_j over the rows of the other matrices, with one elimination.

    Entry ell is the canonical coefficient list of row ell of M_j over the
    generators (row r of M_i at position pos*n + r, pos counting the other
    matrices in order), or None when that row lies outside their span.
    """
    generators = [row for i, M in enumerate(matrices) if i != j for row in M.entries]
    return span_solve(matrices[0].field, matrices[j].entries, generators)


def find_row_outside_span(matrices) -> tuple[int | None, list]:
    """Smallest index j of a matrix with a row outside the span of every row
    of the other matrices, or None when there is none, together with the row
    expansions (see _expand_rows) of every matrix scanned: all of them when
    the hit is None, the ones up to matrix j otherwise."""
    matrices = list(matrices)
    expansions = []
    for j in range(len(matrices)):
        expansions.append(_expand_rows(matrices, j))
        if None in expansions[j]:
            return j, expansions
    return None, expansions


def project_and_recurse(matrices, j: int) -> list[Matrix]:
    """Drop matrix j, rewrite the rest in coordinates of their row span, recurse.

    Requires that some row of matrix j lies outside that span, so the span has
    dimension r <= m-1 and the recursive instance is strictly narrower.  The
    coordinates are over the RREF basis of the span, so a row's coordinates
    are its entries at the pivot columns.  The lifted multipliers (recursive
    ones for i != j, zero for j) inherit sum(g_i M_i) == 0 because the
    coordinate map is injective on the span and applies row by row.
    """
    matrices = list(matrices)
    field = matrices[0].field
    n, m = matrices[0].rows, matrices[0].cols
    others = [M for i, M in enumerate(matrices) if i != j]
    reduced = rref(_trusted(field, tuple([row for M in others for row in M.entries])))
    r = reduced.rank
    errors.check(r <= m - 1, f"span of the other rows has dimension {r}, expected <= {m - 1}")
    pivots = reduced.pivot_cols
    projected = [_trusted(field, tuple([tuple([row[c] for c in pivots]) for row in M.entries])) for M in others]
    lifted = _solve_entry(projected)
    lifted.insert(j, Matrix.zero(field, n, n))
    errors.check(_weighted_sum(lifted, matrices).is_zero(), "the lifted multipliers do not sum to zero")
    return lifted


def correct_bad_index(gs, good: frozenset, j: int, alpha_rows) -> tuple[list[Matrix], frozenset]:
    """Repair the singular multiplier g_j while preserving the witness equation.

    good is the set of indices whose g_i is invertible, and alpha_rows the row
    expansions of M_j over the other matrices' rows (see _expand_rows); every
    row of M_j must have one.  g_j += x*I and g_i -= x * A_i (A_i collecting
    the coefficients on M_i's rows) keep the weighted sum at zero for any x;
    choose_correction_scalar picks x so g_j becomes invertible and no
    invertible g_i degenerates.  Returns the new multipliers and the set of
    indices at which they are invertible.
    """
    field = gs[0].field
    n = gs[0].rows
    if j in good:
        raise ValueError(f"index {j} is not singular")
    if None in alpha_rows:
        raise errors.SpanExpansionError(
            f"row {alpha_rows.index(None)} of matrix {j} is not in the span of the other matrices' rows"
        )
    others = [i for i in range(len(gs)) if i != j]
    corrections = {
        i: _trusted(field, tuple([tuple([alpha_rows[ell][pos * n + t] for t in range(n)]) for ell in range(n)]))
        for pos, i in enumerate(others)
    }
    new_gs, good_after = choose_correction_scalar(gs, good, j, corrections)
    errors.check(good | {j} <= good_after, f"correcting index {j} left it singular or lost an invertible multiplier")
    return new_gs, good_after


def choose_correction_scalar(gs, good: frozenset, j: int, corrections) -> tuple[list[Matrix], frozenset]:
    """The correction step at the first usable scalar x: the multipliers with
    g_j + x*I and g_i - x * corrections[i] for every i != j, and the set of
    indices at which they are invertible.  x is usable when that set holds
    good and j.

    The candidates are the first n*(len(good) + 1) + 1 nonzero scalars: 1, 2,
    ... over QQ, the nonzero elements in canonical order over a finite field.
    That many hold a usable x: det(g_j + x*I) is monic of degree n, and
    det(g_i - x * corrections[i]) is det(g_i) != 0 at x = 0 for i in good, so
    each of these len(good) + 1 determinants is a nonzero polynomial of degree
    at most n in x, with at most n nonzero roots.  Each candidate costs one
    update per multiplier and the determinants of the multipliers in good,
    then of g_j, up to the first that vanishes; only the accepted candidate
    takes the other multipliers' determinants.  Raises ExhaustedBoundError
    when no candidate is usable, which only a field with fewer nonzero
    elements than the bound allows.
    """
    field = gs[0].field
    n = gs[0].rows
    zero = field.zero
    ident = Matrix.identity(field, n)
    bound = n * (len(good) + 1) + 1
    needed = good | {j}
    order = [*sorted(good), j]
    if field.is_finite:
        candidates = (x for x in field.elements() if x != zero)
    else:
        candidates = accumulate(repeat(field.one), field.add)  # 1, 2, 3, ...
    for x in islice(candidates, bound):
        neg_x = field.neg(x)
        new_gs = [
            _add_scaled(g, x, ident) if i == j else _add_scaled(g, neg_x, corrections[i]) for i, g in enumerate(gs)
        ]
        if all(det(new_gs[i]) != zero for i in order):
            return new_gs, needed | frozenset(i for i, g in enumerate(new_gs) if i not in needed and det(g) != zero)
    raise errors.ExhaustedBoundError(
        f"no valid scalar among the first {bound} nonzero ones for {len(good) + 1} determinants of degree <= {n}"
    )
