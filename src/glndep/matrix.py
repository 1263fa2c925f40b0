"""Dense exact matrices over a Field, and the elimination behind every matrix question.

Matrices are immutable row-major tuples of canonical field elements; a vector
is a plain tuple of them.  RREF, rank, kernel, determinant and span solving
all read one Gauss-Jordan pass; span_solve answers every target it is given
over one elimination of the generators.  Pivoting is always "first nonzero",
never by magnitude, so every result is deterministic and reproducible.

Over QQ, elimination, products and a + c*b run on Python ints, in kernels
that the RationalField a matrix holds carries (see rationals), so this module
neither imports that one nor compiles them for a finite field.

Matrices combine in two ways only: a + c*b through _add_scaled (the
exhaustive sums of fullrank.check_fullrank_basis, correction steps, scalar
scans) and sum(g_i * M_i) through _weighted_sum (solver post-conditions and
the verifier).

The paths that run once per solve build their tuples from lists,
tuple([...]), not from generators or map.  CPython allocates a tuple built
from a generator for 10 items and cuts it back; once freed, the cut-back tuple
waits on the free list of its final size, which only exact-size tuples draw
from, so these piled up to 2,000 per size.  Over 16,000 finite-solve
benchmark executions that held about 3 MB, and 1,000 rational-solve ones
about 0.44 MB (CPython 3.11).
"""

from __future__ import annotations

from . import errors
from .fields import Field, field_from_json, field_to_json


class Matrix(errors._Record):
    """An immutable matrix: its field and a non-empty tuple of equal-length row tuples.

    Matrix(field, entries) validates every entry; from_rows and
    matrix_from_json make each entry canonical once (one field.vector call
    per row, element_from_json per entry) and check the shape; zero and
    identity check their shape.  Results of the module's own arithmetic and
    elimination are canonical by construction and skip that check (see
    _trusted).
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
        """The matrix of the given rows, each made canonical by one field.vector
        call, which raises for the first bad entry in row order."""
        entries = tuple([field.vector(row) for row in rows])
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
        return _trusted(field, tuple([tuple([o if i == j else z for j in range(n)]) for i in range(n)]))

    def _check_same_field(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise errors.FieldMismatchError(f"{self.field!r} vs {other.field!r}")

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
        return _trusted(self.field, tuple([tuple([neg(e) for e in row]) for row in self.entries]))

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
            return _trusted(f, f.product(aent, bent))
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
    row by row by field.vector (see from_rows), or entry by entry by
    element_from_json (see matrix_from_json).
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


def _one_field_and_shape(matrices: list[Matrix]) -> tuple[Field, int, int]:
    """(field, n, m) of at least one matrix, all of one shape n x m over one field."""
    if not matrices:
        raise errors.ShapeError("need at least one matrix")
    field = matrices[0].field
    n, m = matrices[0].rows, matrices[0].cols
    for M in matrices:
        if M.field != field:
            raise errors.FieldMismatchError("matrices over mixed fields")
        if M.rows != n or M.cols != m:
            raise errors.ShapeError("matrices of mixed shapes")
    return field, n, m


class RrefResult(errors._Record):
    __slots__ = ("rref", "pivot_cols", "rank")


def _gauss_jordan(field: Field, rows, limit: int, reduce: bool = True):
    """The one elimination pass behind every question in this module.

    Copies the rows and reduces the copy to reduced row echelon form, taking
    pivots first-nonzero and only in the leading `limit` columns; the columns
    after them are carried along, as in an augmented matrix.  Returns the
    reduced rows (lists), the pivot columns, and the determinant factor: when
    every row holds a pivot, the product of the pivots, negated once per row
    swap.  For a square matrix with a pivot in every column that factor is its
    determinant.  Over QQ see rationals._rational_gauss_jordan.

    With reduce false the pass is forward elimination only, for callers that
    read only the pivot columns and the factor: each pivot updates only the
    rows below it, and the rows returned are not to be read.  A row below a
    pivot is updated as in the full pass, and so is every row before it turns
    pivot row, so the pivots, swaps and factor are the same.

    Over a finite field the pivot row is zero in every column left of the
    pivot column: the earlier pivot columns have been cleared, and an earlier
    free column was zero from the pivot row down when it was passed, and has
    only had multiples of such rows added since.  So the pivot row is scaled,
    and the other rows are updated in place, only from the pivot column on.
    Within that range an entry under a zero of the pivot row is left as it
    is, so each updated row costs one mul and one add per nonzero pivot-row
    entry.  The skipped entries would have been e + c*0 == e, so the rows,
    pivots and factor are the values the full-row update gives.
    """
    if field.cardinality is None:
        return field.gauss_jordan(rows, limit, reduce)
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
        for r in range(0 if reduce else pr + 1, nrows):
            row = work[r]
            c = row[col]
            if r != pr and c != z:
                c = neg(c)
                row[col:] = [add(e, mul(c, s)) if s != z else e for e, s in zip(row[col:], tail)]
        pivot_cols.append(col)
    return work, tuple(pivot_cols), factor


def _add_scaled(a: Matrix, c, b: Matrix) -> Matrix:
    """a + c * b for matrices of one shape and field and an element c of it.

    Over QQ see rationals._rational_add_scaled; over a finite field each
    entry is add(e, mul(c, s)).
    """
    f = a.field
    if f.cardinality is None:
        return _trusted(f, f.add_scaled(a, c, b))
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


def rref(matrix: Matrix) -> RrefResult:
    work, pivot_cols, _ = _gauss_jordan(matrix.field, matrix.entries, matrix.cols)
    return RrefResult(_trusted(matrix.field, tuple([tuple(row) for row in work])), pivot_cols, len(pivot_cols))


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
    """Exact determinant, zero below full rank: the pivot product signed by the row
    swaps, over QQ the signed last pivot over the rows' denominators (see rationals._rational_gauss_jordan)."""
    n, cols = matrix.rows, matrix.cols
    if n != cols:
        raise errors.ShapeError(f"determinant of a {n}x{cols} matrix")
    _, pivot_cols, factor = _gauss_jordan(matrix.field, matrix.entries, n, reduce=False)
    return factor if len(pivot_cols) == n else matrix.field.zero


def span_solve(field: Field, targets, generators) -> list:
    """Express each target as a combination of the generators, over one elimination.

    Takes tuples of canonical elements of field, as the rows of a Matrix or
    the vectors of a Subspace hold them.  Eliminates [generators | targets]
    as columns with pivots only in the generator columns.  A target lies in
    the span iff its column is zero below the generator rank; its canonical
    coefficients (free variables set to zero) are read from the pivot rows.
    Returns one coefficient list, or None, per target.
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
        raise errors.ParseError(f"matrix 'entries' must be a list of {errors._excerpt(rows)} rows")
    dec = field.element_from_json
    parsed = []
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise errors.ParseError(f"matrix row must be a list of {errors._excerpt(cols)} entries")
        parsed.append(tuple(dec(e) for e in row))
    # element_from_json returns canonical elements, and the shape is checked above.
    return _trusted(field, tuple(parsed))
