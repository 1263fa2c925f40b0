"""Dense exact matrices over a Field, and the elimination behind every matrix question.

Matrices are immutable row-major tuples of canonical field elements; a vector
is a plain tuple of them.  RREF, rank, kernel, determinant, inverse and span
solving all read one Gauss-Jordan pass.  Pivoting is always "first nonzero",
never by magnitude, so every result is deterministic and reproducible.

Over QQ, elimination and products run on Python ints.  Elimination clears
each row of denominators and normalises the reduced rows with one Fraction per
entry at the end; every integer row is a nonzero multiple of the row that
elimination on Fractions would hold.  A product clears the rows of its left
factor and the columns of its right factor once, and makes one Fraction per
entry from an integer dot product.  So the results are the same values.  The
correction step of rational_solver also runs on integer rows: its scalar scan
eliminates cleared row pairs (see _integer_row_pairs), and its multiplier
updates a + c*b make one Fraction per entry (see _add_scaled).  Other sums
stay on Fractions.

Matrices combine in two ways only: a + c*b through _add_scaled (members of a
full-rank subspace, correction steps, scalar scans) and sum(g_i * M_i)
through _weighted_sum (solver post-conditions and the verifier).

The finite-field paths that run once per solve build their tuples from lists,
tuple([...]), not from generators or map.  CPython allocates a tuple built
from a generator for 10 items and cuts it back; once freed, the cut-back tuple
waits on the free list of its final size, which only exact-size tuples draw
from, so these piled up to 2,000 per size.  Over 16,000 finite-solve
benchmark executions that held about 3 MB (CPython 3.11).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

from . import errors
from .fields import Field, field_from_json, field_to_json


class Matrix(errors._Record):
    """An immutable matrix: its field and a non-empty tuple of equal-length row tuples.

    Matrix(field, entries) validates every entry; the from_* constructors and
    matrix_from_json make each entry canonical once (field.element,
    element_from_json) and check the shape; zero and identity check their
    shape.  Results of the module's own arithmetic and elimination are
    canonical by construction and skip that check (see _trusted).
    """

    __slots__ = ("field", "entries")

    def __post_init__(self):
        _check_rows(self.entries)
        validate = self.field.validate
        for row in self.entries:
            for e in row:
                validate(e)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        entries = tuple(tuple(field.element(e) for e in row) for row in rows)
        _check_rows(entries)
        return _trusted(field, entries)

    @classmethod
    def from_columns(cls, field: Field, cols) -> "Matrix":
        cols = [tuple(field.element(e) for e in col) for col in cols]
        if not cols:
            raise errors.ShapeError("matrix needs at least one column")
        if len({len(col) for col in cols}) > 1:
            raise errors.ShapeError("ragged matrix columns")
        entries = tuple(zip(*cols))
        _check_rows(entries)
        return _trusted(field, entries)

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Matrix":
        _check_shape(rows, cols)
        return _trusted(field, ((field.zero,) * cols,) * rows)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        _check_shape(n, n)
        z, o = field.zero, field.one
        return _trusted(field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    def _check_same_field(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise errors.FieldMismatchError(f"{self.field!r} vs {other.field!r}")

    def column_tuple(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(e == z for row in self.entries for e in row)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_field(other)
        a, b = self.entries, other.entries
        rows, cols = len(a), len(a[0])
        if rows != len(b) or cols != len(b[0]):
            raise errors.ShapeError(f"{rows}x{cols} + {len(b)}x{len(b[0])}")
        add = self.field.add
        return _trusted(self.field, tuple([tuple(list(map(add, r1, r2))) for r1, r2 in zip(a, b)]))

    def __neg__(self):
        neg = self.field.neg
        return _trusted(self.field, tuple(tuple(neg(e) for e in row) for row in self.entries))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_field(other)
        aent, bent = self.entries, other.entries
        inner, cols = len(aent[0]), len(bent[0])
        if inner != len(bent):
            raise errors.ShapeError(f"{len(aent)}x{inner} * {len(bent)}x{cols}")
        f = self.field
        if f.cardinality is None:
            return _trusted(f, _rational_product(aent, bent))
        add, mul, z = f.add, f.mul, f.zero
        out = []
        for arow in aent:
            row = []
            for j in range(cols):
                acc = z
                for t, a in enumerate(arow):
                    if a != z:
                        acc = add(acc, mul(a, bent[t][j]))
                row.append(acc)
            out.append(tuple(row))
        return _trusted(f, tuple(out))

    def __repr__(self):
        rows = ", ".join("[" + ", ".join(repr(e) for e in row) + "]" for row in self.entries)
        return f"Matrix({self.field!r}, [{rows}])"


# The setters of Matrix's slots: object.__setattr__ also gets past the
# __setattr__ that blocks them, but takes about twice as long.
_set_field = Matrix.field.__set__
_set_entries = Matrix.entries.__set__


def _trusted(field: Field, entries: tuple) -> Matrix:
    """The one unvalidated Matrix constructor, for entries that are canonical by construction.

    The caller guarantees a non-empty tuple of equal-length, non-empty row
    tuples of canonical elements of field: sums, products and eliminations of
    valid matrices, or rows assembled from already validated elements.
    Anything read from outside is checked first: by Matrix(field, entries),
    or entry by entry by field.element or element_from_json (see the from_*
    constructors and matrix_from_json).
    """
    m = object.__new__(Matrix)
    _set_field(m, field)
    _set_entries(m, entries)
    return m


def _check_rows(entries) -> None:
    """Raise ShapeError unless entries is a non-empty tuple of equal-length, non-empty row tuples."""
    if not isinstance(entries, tuple) or not entries:
        raise errors.ShapeError("matrix needs at least one row")
    cols = len(entries[0])
    if cols == 0:
        raise errors.ShapeError("matrix needs at least one column")
    for row in entries:
        if not isinstance(row, tuple) or len(row) != cols:
            raise errors.ShapeError("ragged matrix rows")


def _check_shape(rows: int, cols: int) -> None:
    if rows < 1:
        raise errors.ShapeError("matrix needs at least one row")
    if cols < 1:
        raise errors.ShapeError("matrix needs at least one column")


class RrefResult(errors._Record):
    __slots__ = ("rref", "pivot_cols", "rank")


def _gauss_jordan(field: Field, rows, limit: int, normalise: bool = True):
    """The one elimination pass behind every question in this module.

    Copies the rows and reduces the copy to reduced row echelon form, taking
    pivots first-nonzero and only in the leading `limit` columns; the columns
    after them are carried along, as in an augmented matrix.  Returns the
    reduced rows (lists), the pivot columns, and the determinant factor: when
    every row holds a pivot, the product of the pivots, negated once per row
    swap.  For a square matrix with a pivot in every column that factor is its
    determinant.  Over QQ see _rational_gauss_jordan, which leaves the rows as
    integers when normalise is false.

    Over a finite field the pivot row is zero in every column left of the
    pivot column: the earlier pivot columns have been cleared, and an earlier
    free column was zero from the pivot row down when it was passed, and has
    only had multiples of such rows added since.  So the pivot row is scaled,
    and the other rows are updated in place, only from the pivot column on.
    The skipped entries would have been e + c*0 == e, so the rows, pivots and
    factor are the values the full-row update gives.
    """
    if field.cardinality is None:
        return _rational_gauss_jordan(rows, limit, normalise)
    z, o = field.zero, field.one
    add, mul, neg = field.add, field.mul, field.neg
    work = [list(row) for row in rows]
    nrows = len(work)
    pivot_cols = []
    factor = o
    for col in range(limit):
        pr = len(pivot_cols)
        if pr == nrows:
            break
        pivot = next((r for r in range(pr, nrows) if work[r][col] != z), None)
        if pivot is None:
            continue
        if pivot != pr:
            work[pr], work[pivot] = work[pivot], work[pr]
            factor = neg(factor)
        src = work[pr]
        tail = src[col:]
        pv = tail[0]
        if pv != o:
            factor = mul(factor, pv)
            scale = field.inv(pv)
            tail = src[col:] = [mul(scale, e) for e in tail]
        for r, row in enumerate(work):
            c = row[col]
            if r != pr and c != z:
                c = neg(c)
                row[col:] = [add(e, mul(c, s)) for e, s in zip(row[col:], tail)]
        pivot_cols.append(col)
    return work, tuple(pivot_cols), factor


def _integer_row(row) -> tuple[list, int]:
    """(ints, d) with row == ints / d: a rational row cleared of denominators
    by d, the lcm of its denominators."""
    dens = [e.denominator for e in row]
    d = lcm(*dens)
    return [e.numerator * (d // q) for e, q in zip(row, dens)], d


def _integer_row_pairs(a: Matrix, b: Matrix):
    """(s, t, d) per row pair of two rational matrices of one shape: integer
    lists with the row of a == s / d and the row of b == t / d, d being the
    lcm of the pair's denominators."""
    w = len(a.entries[0])
    for ra, rb in zip(a.entries, b.entries):
        ints, d = _integer_row(ra + rb)
        yield ints[:w], ints[w:], d


def _add_scaled(a: Matrix, c, b: Matrix) -> Matrix:
    """a + c * b for matrices of one shape and field and an element c of it.

    Over QQ each row pair is cleared of denominators once and each entry is
    one Fraction (the canonical Fraction(0) when it is zero); over a finite
    field each entry is add(e, mul(c, s)).
    """
    f = a.field
    if f.cardinality is None:
        cn, cd, z = c.numerator, c.denominator, Fraction(0)
        return _trusted(f, tuple(
            tuple(Fraction(e, d * cd) if (e := cd * s + cn * t) else z for s, t in zip(srow, trow))
            for srow, trow, d in _integer_row_pairs(a, b)
        ))
    add, mul = f.add, f.mul
    return _trusted(f, tuple([
        tuple([add(e, mul(c, s)) for e, s in zip(ra, rb)]) for ra, rb in zip(a.entries, b.entries)
    ]))


def _weighted_sum(gs, matrices) -> Matrix:
    """sum(g_i * M_i) over a non-empty sequence of pairs: k products and k-1 sums."""
    pairs = zip(gs, matrices)
    g, M = next(pairs)
    total = g * M
    for g, M in pairs:
        total = total + g * M
    return total


def _rational_product(aent, bent) -> tuple:
    """The entries of a * b over QQ, on integers.

    Each row of a and each column of b is cleared of denominators once; an
    entry is then one integer dot product over the two common denominators,
    made into one Fraction (the canonical Fraction(0) when it is zero).
    """
    z, mul = Fraction(0), operator.mul
    rows = [_integer_row(row) for row in aent]
    cols = [_integer_row(col) for col in zip(*bent)]
    return tuple(
        tuple(Fraction(dot, da * db) if (dot := sum(map(mul, ra, cb))) else z for cb, db in cols)
        for ra, da in rows
    )


def _rational_gauss_jordan(rows, limit: int, normalise: bool):
    """_gauss_jordan over QQ, fraction-free on primitive integer rows (Bareiss 1968).

    Each row (of Fractions, or of ints, whose denominator is 1) is cleared of
    denominators and divided by its content, the gcd of its entries.  A row
    update is pv*row - c*pivot_row, again divided by its content, so every
    row stays a nonzero multiple of the row the Fraction loop holds: the same
    entries are zero, and the pivots and swaps are the same.  With normalise,
    each pivot row is divided by its pivot with one Fraction per entry, which
    gives the Fraction loop's row; the rows below the rank are returned up to
    a nonzero scale (callers only test them for zero).

    The determinant factor follows det(rows) = (num / den) * det(work), kept
    up to date as the rows are scaled, divided and swapped; at the end the
    pivots of work are its only nonzero entries in the pivot columns.
    """
    work = []
    num = den = 1
    for row in rows:
        ints, d = _integer_row(row)
        g = gcd(*ints)
        if g > 1:
            ints = [e // g for e in ints]
            num *= g
        den *= d
        work.append(ints)
    nrows = len(work)
    pivot_cols = []
    for col in range(limit):
        pr = len(pivot_cols)
        if pr == nrows:
            break
        pivot = next((r for r in range(pr, nrows) if work[r][col]), None)
        if pivot is None:
            continue
        if pivot != pr:
            work[pr], work[pivot] = work[pivot], work[pr]
            num = -num
        src = work[pr]
        pv = src[col]
        for r, row in enumerate(work):
            c = row[col]
            if r != pr and c:
                row = [pv * e - c * s for e, s in zip(row, src)]
                den *= pv
                g = gcd(*row)
                if g > 1:
                    row = [e // g for e in row]
                    num *= g
                work[r] = row
        pivot_cols.append(col)
    rank = len(pivot_cols)
    z = Fraction(0)
    factor = z
    if rank == nrows:
        for t, pc in enumerate(pivot_cols):
            num *= work[t][pc]
        factor = Fraction(num, den)
    if normalise:
        pivots = [work[t][pc] for t, pc in enumerate(pivot_cols)] + [1] * (nrows - rank)
        work = [[Fraction(e, pv) if e else z for e in row] for row, pv in zip(work, pivots)]
    return work, tuple(pivot_cols), factor


def rref(matrix: Matrix) -> RrefResult:
    work, pivot_cols, _ = _gauss_jordan(matrix.field, matrix.entries, matrix.cols)
    return RrefResult(_trusted(matrix.field, tuple(map(tuple, work))), pivot_cols, len(pivot_cols))


def kernel_basis(matrix: Matrix) -> list[tuple]:
    """Canonical basis of the right kernel, one vector per free column.

    The vector for free column j has a 1 there, 0 at the other free columns,
    and the negated reduced entries at the pivot columns.  Empty list iff the
    matrix is injective.
    """
    f = matrix.field
    cols = matrix.cols
    reduced, pivot_cols, _ = _gauss_jordan(f, matrix.entries, cols)
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [f.zero] * cols
        vec[free] = f.one
        for t, pc in enumerate(pivot_cols):
            vec[pc] = f.neg(reduced[t][free])
        basis.append(tuple(vec))
    return basis


def det(matrix: Matrix):
    """Exact determinant: the pivot product of the elimination, signed by its row swaps."""
    n, cols = matrix.rows, matrix.cols
    if n != cols:
        raise errors.ShapeError(f"determinant of a {n}x{cols} matrix")
    _, pivot_cols, factor = _gauss_jordan(matrix.field, matrix.entries, n, normalise=False)
    return factor if len(pivot_cols) == n else matrix.field.zero


def inverse(matrix: Matrix) -> Matrix:
    n, cols = matrix.rows, matrix.cols
    if n != cols:
        raise errors.ShapeError(f"inverse of a {n}x{cols} matrix")
    f = matrix.field
    ident = Matrix.identity(f, n)
    aug = [r + i for r, i in zip(matrix.entries, ident.entries)]
    work, pivot_cols, _ = _gauss_jordan(f, aug, n)
    if len(pivot_cols) != n:
        raise ValueError("matrix is singular")
    return _trusted(f, tuple(tuple(row[n:]) for row in work))


def span_solve(field: Field, target, generators):
    """Express target as a combination of the generators, or None.

    Returns the canonical coefficient list (free variables set to zero in the
    reduced system), so repeated calls with the same input give identical
    expansions.  Entries may be anything field.element accepts.
    """
    element = field.element
    gens = [tuple(map(element, g)) for g in generators]
    return span_solve_many(field, [tuple(map(element, target))], gens)[0]


def span_solve_many(field: Field, targets, generators) -> list:
    """span_solve for every target, over one elimination of the generators.

    Takes tuples of canonical elements of field, as the rows of a Matrix or
    the vectors of a Subspace hold them; span_solve is the entry point for
    anything else.  Eliminates [generators | targets] as columns with pivots
    only in the generator columns.  A target lies in the span iff its column
    is zero below the generator rank; its canonical coefficients are read from
    the pivot rows.  Returns one coefficient list (or None) per target.
    """
    gens = list(generators)
    columns = gens + list(targets)
    if len({len(v) for v in columns}) > 1:
        raise errors.ShapeError("span_solve vectors have mixed lengths")
    s = len(gens)
    work, pivot_cols, _ = _gauss_jordan(field, zip(*columns), s)
    r = len(pivot_cols)
    z = field.zero
    out = []
    for col in range(s, len(columns)):
        if any(row[col] != z for row in work[r:]):
            out.append(None)
            continue
        coeffs = [z] * s
        for t, pc in enumerate(pivot_cols):
            coeffs[pc] = work[t][col]
        out.append(coeffs)
    return out


def complete_to_invertible(field: Field, n: int, vectors) -> Matrix:
    """Extend independent height-n columns to an invertible n x n matrix.

    The inputs stay as the leading columns; the remaining columns are the
    standard basis vectors with the smallest indices that keep independence.
    Both are the pivot columns of one elimination of [inputs | I].
    """
    cols = [tuple(field.element(e) for e in v) for v in vectors]
    for c in cols:
        if len(c) != n:
            raise errors.ShapeError(f"expected height-{n} vectors")
    s = len(cols)
    units = [tuple(field.one if t == idx else field.zero for t in range(n)) for idx in range(n)]
    _, pivot_cols, _ = _gauss_jordan(field, zip(*cols, *units), s + n)
    if pivot_cols[:s] != tuple(range(s)):
        raise errors.DependentInputError("input vectors are linearly dependent")
    return Matrix.from_columns(field, cols + [units[p - s] for p in pivot_cols[s:]])


def find_gl_transform(m1: Matrix, m2: Matrix) -> Matrix | None:
    """An invertible g with g * m1 == m2, or None when the row spaces differ.

    Both matrices are written as coordinate matrices over the shared canonical
    row basis, the nonzero rows of their common RREF; a row's coordinates are
    its entries at the pivot columns.  Completing those coordinate columns to
    invertible matrices and composing gives g.  Equal inputs produce the
    identity.  The result is re-verified before returning.
    """
    if m1.rows != m2.rows or m1.cols != m2.cols:
        raise errors.ShapeError("matrices of mixed shapes")
    if m1.field != m2.field:
        raise errors.FieldMismatchError("matrices over mixed fields")
    reduced = rref(m1)
    if reduced.rref != rref(m2).rref:
        return None
    field = m1.field
    n = m1.rows
    p1 = complete_to_invertible(field, n, [m1.column_tuple(c) for c in reduced.pivot_cols])
    p2 = complete_to_invertible(field, n, [m2.column_tuple(c) for c in reduced.pivot_cols])
    g = p2 * inverse(p1)
    errors.check(det(g) != field.zero and g * m1 == m2, "the transform is singular or misses m2")
    return g


def matrix_to_json(matrix: Matrix) -> dict:
    enc = matrix.field.element_to_json
    return {
        "field": field_to_json(matrix.field),
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": [[enc(e) for e in row] for row in matrix.entries],
    }


def matrix_from_json(obj) -> Matrix:
    errors._check_object(obj, "matrix", ("field", "rows", "cols", "entries"))
    field = field_from_json(obj["field"])
    rows, cols = obj["rows"], obj["cols"]
    for key, value in (("rows", rows), ("cols", cols)):
        errors._check_positive_int(value, f"matrix {key!r}")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows:
        raise errors.ParseError(f"matrix 'entries' must be a list of {rows} rows")
    dec = field.element_from_json
    parsed = []
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise errors.ParseError(f"matrix row must be a list of {cols} entries")
        parsed.append(tuple(dec(e) for e in row))
    # element_from_json returns canonical elements, and the shape is checked above.
    return _trusted(field, tuple(parsed))
