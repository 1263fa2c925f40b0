"""Elimination kernels: RREF, kernel, determinant, span solving, the GL(n) transform."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_invertible, random_matrix, scaled
from glndep import errors, matrix as matrix_module
from glndep.fields import ExtensionField, PrimeField
from glndep.matrix import (
    Matrix,
    det,
    kernel_basis,
    matrix_from_json,
    matrix_to_json,
    rref,
    span_solve,
)
from glndep.rational_solver import find_gl_transform
from glndep.rationals import RationalField
from glndep.subspaces import Subspace

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = ExtensionField(2, 2)
GF101 = PrimeField(101)
QQ = RationalField()


# construction and fail-fast validation

def test_from_rows_coerces_ints_to_fractions():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert m.entries[0][0] == Fraction(1)
    assert type(m.entries[1][1]).__name__ == "Fraction"


def test_construction_rejects_non_canonical_entries():
    with pytest.raises(ValueError):
        Matrix.from_rows(GF3, [[5]])
    with pytest.raises(TypeError):
        Matrix.from_rows(QQ, [[0.5]])
    with pytest.raises(TypeError):
        Matrix.from_rows(GF4, [[(1, 0), 1]])


def test_construction_rejects_bad_shapes():
    with pytest.raises(errors.ShapeError):
        Matrix.from_rows(GF2, [])
    with pytest.raises(errors.ShapeError):
        Matrix.from_rows(GF2, [[1, 0], [1]])


# The trust boundary: what comes from outside is validated; the module's own
# results (sums, products, eliminations) are built without re-validation.

# (field, a 1 x 1 matrix's entries, a non-canonical JSON entry)
NON_CANONICAL = [
    (GF3, ((5,),), "5"), (GF3, ((-1,),), "-1"), (QQ, ((0.5,),), "1/0"), (GF4, ((1,),), "1"),
    (GF4, (((1, 2),),), ["1", "2"]),
]
RAGGED = [((1, 0), (1,)), ((1,), (1, 0))]
EMPTY = [(), ((),), ((), ())]


@pytest.mark.parametrize("field, entries, json_entry", NON_CANONICAL)
def test_every_public_constructor_rejects_non_canonical_entries(field, entries, json_entry):
    rows = [list(row) for row in entries]
    with pytest.raises((TypeError, ValueError)):
        Matrix(field, entries)
    with pytest.raises((TypeError, ValueError)):
        Matrix.from_rows(field, rows)
    obj = dict(matrix_to_json(Matrix.identity(field, 1)), entries=[[json_entry]])
    with pytest.raises(errors.ParseError):
        matrix_from_json(obj)


@pytest.mark.parametrize("entries", RAGGED)
def test_every_public_constructor_rejects_ragged_rows(entries):
    rows = [list(row) for row in entries]
    with pytest.raises(errors.ShapeError):
        Matrix(GF2, entries)
    with pytest.raises(errors.ShapeError):
        Matrix.from_rows(GF2, rows)
    obj = {"field": {"kind": "prime", "p": 2}, "rows": 2, "cols": 2,
           "entries": [[str(e) for e in row] for row in entries]}
    with pytest.raises(errors.ParseError):
        matrix_from_json(obj)


@pytest.mark.parametrize("entries", EMPTY)
def test_every_public_constructor_rejects_empty_shapes(entries):
    rows = [list(row) for row in entries]
    with pytest.raises(errors.ShapeError):
        Matrix(GF2, entries)
    with pytest.raises(errors.ShapeError):
        Matrix.from_rows(GF2, rows)
    # zero-width spanning vectors: they build their matrix unvalidated
    with pytest.raises(errors.ShapeError):
        Subspace.from_vectors(GF2, 0, rows)
    obj = {"field": {"kind": "prime", "p": 2}, "rows": len(rows), "cols": len(rows[0]) if rows else 0, "entries": rows}
    with pytest.raises(errors.ParseError):
        matrix_from_json(obj)


def test_matrix_entries_must_be_tuples():
    with pytest.raises(errors.ShapeError):
        Matrix(GF2, [(1,)])
    with pytest.raises(errors.ShapeError):
        Matrix(GF2, ([1],))


@pytest.mark.parametrize("rows, cols", [(0, 2), (2, 0), (0, 0), (-1, 1)])
def test_zero_and_identity_check_their_shape(rows, cols):
    with pytest.raises(errors.ShapeError):
        Matrix.zero(GF2, rows, cols)
    if rows == cols:
        with pytest.raises(errors.ShapeError):
            Matrix.identity(GF2, rows)


@pytest.mark.parametrize("field", [GF2, GF4, QQ])
def test_trusted_results_equal_and_hash_like_validated_ones(field):
    rng = random.Random(12)
    for _ in range(10):
        a = random_matrix(rng, field, 2, 3)
        b = random_matrix(rng, field, 3, 2)
        results = [a * b, a + a, -a, matrix_module._add_scaled(a, field.one, a), rref(a).rref]
        ident = Matrix.identity(field, 2)
        results += [find_gl_transform(ident, ident), Matrix.zero(field, 2, 3), ident]
        for m in results:
            rebuilt = Matrix(field, tuple(tuple(row) for row in m.entries))
            parsed = matrix_from_json(matrix_to_json(m))
            assert m == rebuilt == parsed
            assert hash(m) == hash(rebuilt) == hash(parsed)
        assert len({Matrix.zero(field, 2, 2), Matrix.identity(field, 2) * Matrix.zero(field, 2, 2)}) == 1


def test_matrix_is_immutable():
    m = Matrix.identity(GF2, 2)
    for name, value in (("entries", ((0,),)), ("field", GF3), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
    with pytest.raises(AttributeError):
        del m.entries
    assert m == Matrix.identity(GF2, 2)


def test_basic_ops_and_shapes():
    m = Matrix.from_rows(GF3, [[1, 2], [0, 1]])
    ident = Matrix.identity(GF3, 2)
    assert ident * m == m
    assert m + (-m) == Matrix.zero(GF3, 2, 2)
    with pytest.raises(errors.ShapeError):
        m * Matrix.from_rows(GF3, [[1, 0, 0]])
    with pytest.raises(errors.FieldMismatchError):
        m * Matrix.identity(GF2, 2)
    with pytest.raises(errors.ShapeError):
        m + Matrix.from_rows(GF3, [[1, 0]])
    with pytest.raises(errors.FieldMismatchError):
        m + Matrix.identity(GF2, 2)


# rref

def test_rref_identity():
    res = rref(Matrix.identity(GF3, 2))
    assert res.rref == Matrix.identity(GF3, 2)
    assert res.pivot_cols == (0, 1)
    assert res.rank == 2


def test_rref_rank_one_gf2():
    res = rref(Matrix.from_rows(GF2, [[1, 1], [1, 1]]))
    assert res.rref == Matrix.from_rows(GF2, [[1, 1], [0, 0]])
    assert res.rank == 1


def test_rref_zero_matrix():
    res = rref(Matrix.zero(QQ, 2, 3))
    assert res.rref == Matrix.zero(QQ, 2, 3)
    assert res.rank == 0
    assert res.pivot_cols == ()


@pytest.mark.parametrize("field", [GF3, QQ])
def test_rref_is_row_equivalent(field):
    rng = random.Random(11)
    for _ in range(30):
        m = random_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 4))
        res = rref(m)
        # the rank counts the pivots, which are the nonzero rows of the RREF
        nonzero_rows = sum(1 for row in res.rref.entries if any(c != field.zero for c in row))
        assert res.rank == len(res.pivot_cols) == nonzero_rows
        # each row of the RREF lies in m's row span and vice versa
        for row in res.rref.entries:
            assert span_solve(field, [row], m.entries) != [None]
        for row in m.entries:
            assert span_solve(field, [row], res.rref.entries) != [None]


# kernel

def test_kernel_canonical_example():
    m = Matrix.from_rows(QQ, [[1, 0, 1], [0, 1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert basis == [(Fraction(-1), Fraction(-1), Fraction(1))]


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []


def test_kernel_of_zero_matrix():
    basis = kernel_basis(Matrix.zero(GF2, 2, 2))
    assert basis == [(1, 0), (0, 1)]


@pytest.mark.parametrize("field", [GF2, GF3, QQ])
def test_kernel_properties(field):
    rng = random.Random(13)
    for _ in range(30):
        m = random_matrix(rng, field, rng.randint(1, 3), rng.randint(1, 4))
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rref(m).rank
        for v in basis:
            assert (m * Matrix.from_rows(field, [[e] for e in v])).is_zero()
        if basis:
            assert rref(Matrix.from_rows(field, basis)).rank == len(basis)


# determinant

def test_det_examples():
    assert det(Matrix.identity(QQ, 3)) == Fraction(1)
    assert det(Matrix.from_rows(GF2, [[0, 1], [1, 1]])) == 1
    assert det(Matrix.from_rows(QQ, [[1, 1], [1, 1]])) == 0
    with pytest.raises(errors.ShapeError):
        det(Matrix.zero(QQ, 2, 3))


@pytest.mark.parametrize("field", [GF3, QQ, GF4])
def test_det_multiplicative(field):
    rng = random.Random(17)
    for _ in range(30):
        a = random_matrix(rng, field, 3, 3)
        b = random_matrix(rng, field, 3, 3)
        assert det(a * b) == field.mul(det(a), det(b))


def test_det_nonzero_iff_full_rank_exhaustive_gf2():
    from itertools import product

    for flat in product([0, 1], repeat=4):
        m = Matrix(GF2, (flat[:2], flat[2:]))
        assert (det(m) != 0) == (rref(m).rank == 2)


def test_inverse():
    # The transform onto the identity is the inverse, and there is none for a singular matrix.
    rng = random.Random(19)
    for field in (GF3, QQ):
        ident = Matrix.identity(field, 3)
        for _ in range(10):
            m = random_invertible(rng, field, 3)
            assert m * find_gl_transform(m, ident) == ident
    assert find_gl_transform(Matrix.from_rows(QQ, [[1, 1], [1, 1]]), Matrix.identity(QQ, 2)) is None


def test_transform_refuses_mixed_fields_and_shapes():
    with pytest.raises(errors.FieldMismatchError):
        find_gl_transform(Matrix.identity(GF2, 2), Matrix.identity(GF3, 2))
    with pytest.raises(errors.ShapeError):
        find_gl_transform(Matrix.identity(GF3, 2), Matrix.from_rows(GF3, [[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(errors.ShapeError):
        find_gl_transform(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3))


# span solving

def test_span_solve_examples():
    e1, e2 = (1, 0), (0, 1)
    assert span_solve(GF3, [(1, 1)], [e1, e2]) == [[1, 1]]
    assert span_solve(GF3, [(0, 0), (0, 1)], [e1]) == [[0], None]
    assert span_solve(GF3, [], [e1]) == []


def test_span_solve_empty_generators():
    assert span_solve(QQ, [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))], []) == [[], None]


def test_span_solve_puts_zero_on_redundant_generators():
    # the canonical solution leaves free (dependent) generators unused
    v = (Fraction(1), Fraction(2))
    assert span_solve(QQ, [v], [v, v]) == [[Fraction(1), Fraction(0)]]
    assert span_solve(QQ, [(Fraction(2), Fraction(4))], [v, (Fraction(3), Fraction(6)), v]) == [
        [Fraction(2), Fraction(0), Fraction(0)]
    ]


@pytest.mark.parametrize("field", [GF2, QQ])
def test_span_solve_matches_rank_criterion(field):
    rng = random.Random(23)
    for _ in range(40):
        length = rng.randint(1, 4)
        gens = [tuple(random_matrix(rng, field, 1, length).entries[0]) for _ in range(rng.randint(0, 4))]
        target = tuple(random_matrix(rng, field, 1, length).entries[0])
        [coeffs] = span_solve(field, [target], gens)
        if gens:
            r_gens = rref(Matrix.from_rows(field, gens)).rank
            r_aug = rref(Matrix.from_rows(field, gens + [target])).rank
            assert (coeffs is not None) == (r_gens == r_aug)
        if coeffs is not None and gens:
            combo = [field.zero] * length
            for c, gen in zip(coeffs, gens):
                combo = [field.add(x, field.mul(c, e)) for x, e in zip(combo, gen)]
            assert tuple(combo) == target


@pytest.mark.parametrize("field", [GF2, GF4, QQ])
def test_span_solve_many_matches_span_solve(field):
    # Many targets over one elimination get the answers each target gets alone.
    # An out-of-span target ahead of later ones: pivoting in target columns as
    # well would take the last target, in the span of the generators and the
    # first target only, for a member of the span.
    z, o = field.zero, field.one
    gens = [(o, z, z)]
    targets = [(z, o, z), (o, z, z), (o, o, z)]
    assert span_solve(field, targets, gens) == [None, [o], None]
    rng = random.Random(37)
    for _ in range(40):
        length = rng.randint(1, 4)
        pool = [tuple(random_matrix(rng, field, 1, length).entries[0]) for _ in range(3)]
        gens = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        targets = [tuple(random_matrix(rng, field, 1, length).entries[0]) for _ in range(rng.randint(0, 3))]
        targets += [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        rng.shuffle(targets)
        assert span_solve(field, targets, gens) == [span_solve(field, [t], gens)[0] for t in targets]


def test_span_solve_validates_its_entries():
    # span_solve takes canonical elements, as Matrix rows and Subspace bases
    # hold them; it only checks that the vectors have one length.
    one, two, three = Fraction(1), Fraction(2), Fraction(3)
    with pytest.raises(errors.ShapeError):
        span_solve(QQ, [(one, two)], [(one, two, three)])


# completion of the coordinate columns inside find_gl_transform

def test_transform_completes_with_the_smallest_unit_vectors():
    # (1, 1) is completed by e1 to p1 = [[1, 1], [1, 0]], and (1, 0) by e2 to
    # p2 = I, so g = p1^-1; completing (1, 1) by e2 would give [[1, 0], [-1, 1]].
    g = find_gl_transform(Matrix.from_rows(QQ, [[1], [1]]), Matrix.from_rows(QQ, [[1], [0]]))
    assert g == Matrix.from_rows(QQ, [[0, 1], [1, -1]])


# QQ elimination runs on integers, and finite-field elimination skips the
# columns left of the pivot; both must give exactly what textbook Gauss-Jordan
# gives in the field's own arithmetic (on Fractions over QQ), and the QQ
# product what the same product gives on Fractions.

def _reference_gauss_jordan(field, rows, limit, reduce=True):
    """Gauss-Jordan with first-nonzero pivots scaled to 1 and every row
    updated over its full length; the factor is the product of the pivots,
    negated once per row swap.  The rows are always reduced, whatever det
    asks for."""
    z, mul = field.zero, field.mul
    work = [list(row) for row in rows]
    pivot_cols, factor = [], field.one
    for col in range(limit):
        pr = len(pivot_cols)
        pivot = next((r for r in range(pr, len(work)) if work[r][col] != z), None)
        if pivot is None:
            continue
        if pivot != pr:
            work[pr], work[pivot] = work[pivot], work[pr]
            factor = field.neg(factor)
        pv = work[pr][col]
        factor = mul(factor, pv)
        scale = field.inv(pv)
        src = work[pr] = [mul(scale, e) for e in work[pr]]
        for r, row in enumerate(work):
            c = row[col]
            if r != pr and c != z:
                work[r] = [field.sub(e, mul(c, s)) for e, s in zip(row, src)]
        pivot_cols.append(col)
    return work, tuple(pivot_cols), factor


def _reference_product(a, b):
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b.entries)) for row in a.entries
    )


def _on_fractions(fn, *args):
    """fn(*args) with the module's elimination replaced by the reference."""
    with mock.patch.object(matrix_module, "_gauss_jordan", _reference_gauss_jordan):
        return fn(*args)


def _leibniz_det(m):
    """sum over permutations s of sign(s) * prod_i m[i][s(i)], on Fractions."""
    total = Fraction(0)
    for perm in itertools.permutations(range(m.rows)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for row, c in zip(m.entries, perm):
            term *= row[c]
        total += term
    return total


def _assert_fractions(vectors):
    # == alone would let an int through: 0 == Fraction(0)
    for vec in vectors:
        for e in vec:
            QQ.validate(e)


_QQ_ENTRY = st.one_of(
    st.just(0), st.integers(-3, 3), st.fractions(-10**6, 10**6, max_denominator=10**6)
).map(Fraction)


@st.composite
def _qq_matrices(draw, rows=st.integers(1, 6), cols=st.integers(1, 7), square=False):
    """Rows that are fresh, zero or a multiple of an earlier row; entries are
    zero, small integers, or fractions with denominators up to 10^6."""
    nrows = draw(rows)
    ncols = nrows if square else draw(cols)
    out = []
    for _ in range(nrows):
        how = draw(st.sampled_from(("fresh", "fresh", "fresh", "fresh", "zero", "multiple")))
        if how == "zero":
            out.append((Fraction(0),) * ncols)
        elif how == "multiple" and out:
            k = draw(st.integers(-3, 3))
            out.append(tuple(k * e for e in draw(st.sampled_from(out))))
        else:
            out.append(tuple(draw(_QQ_ENTRY) for _ in range(ncols)))
    return Matrix(QQ, tuple(out))


@settings(max_examples=100, deadline=None)
@example(Matrix.from_rows(QQ, [[0, 1], [1, 0]]))
@example(Matrix.from_rows(QQ, [[0, 2, 1], [3, 1, 0], [1, 0, 0]]))
@given(_qq_matrices(square=True))
def test_qq_det_and_inverse_match_fraction_reference(m):
    d = det(m)
    assert d == _on_fractions(det, m)
    assert d == _leibniz_det(m)
    assert d == 0 or rref(m).rank == m.rows
    QQ.validate(d)
    ident = Matrix.identity(QQ, m.rows)
    inv = find_gl_transform(m, ident)
    assert inv == _on_fractions(find_gl_transform, m, ident)
    assert (inv is None) == (d == 0)
    if d != 0:
        _assert_fractions(inv.entries)


@settings(max_examples=100, deadline=None)
@given(_qq_matrices(), st.data())
def test_qq_elimination_matches_fraction_reference(m, data):
    reduced = rref(m)
    assert reduced == _on_fractions(rref, m)
    _assert_fractions(reduced.rref.entries)
    kernel = kernel_basis(m)
    assert kernel == _on_fractions(kernel_basis, m)
    _assert_fractions(kernel)
    # targets inside the row span (small combinations, zero) and mostly outside it
    coeffs = [data.draw(st.integers(-2, 2)) for _ in range(m.rows)]
    inside = tuple(sum((c * e for c, e in zip(coeffs, col)), Fraction(0)) for col in zip(*m.entries))
    outside = tuple(data.draw(_QQ_ENTRY) for _ in range(m.cols))
    targets = [inside, outside, (Fraction(0),) * m.cols]
    solved = span_solve(QQ, targets, m.entries)
    assert solved == _on_fractions(span_solve, QQ, targets, m.entries)
    assert solved[0] is not None and solved[2] is not None
    _assert_fractions(c for c in solved if c is not None)


GF31 = PrimeField(31)
GF16 = ExtensionField(2, 4)
GF9 = ExtensionField(3, 2)
# Above 256 elements there are no tables: GF(2^16) runs the polynomial arithmetic.
GF65536 = ExtensionField(2, 16, modulus=(1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,))


@st.composite
def _finite_systems(draw, field=st.sampled_from((GF2, GF3, GF31, GF16, GF9))):
    """(field, rows, limit): rows that are fresh, zero, a multiple of an
    earlier row or the sum of two earlier ones; fresh entries are zero half
    the time, so free columns come before later pivots.  limit < cols leaves
    the trailing columns as an augmented part."""
    field = draw(field)
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    element = st.integers(0, field.cardinality - 1).map(field.element_from_index)
    entry = st.one_of(st.just(field.zero), element)
    out = []
    for _ in range(nrows):
        how = draw(st.sampled_from(("fresh", "fresh", "fresh", "zero", "multiple", "sum")))
        if how == "zero":
            out.append((field.zero,) * ncols)
        elif how == "multiple" and out:
            c, row = draw(element), draw(st.sampled_from(out))
            out.append(tuple(field.mul(c, e) for e in row))
        elif how == "sum" and out:
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            out.append(tuple(map(field.add, a, b)))
        else:
            out.append(tuple(draw(entry) for _ in range(ncols)))
    return field, tuple(out), draw(st.integers(1, ncols))


def _assert_matches_full_row_reference(field, rows, limit):
    work, pivot_cols, factor = matrix_module._gauss_jordan(field, rows, limit)
    ref_work, ref_pivots, ref_factor = _reference_gauss_jordan(field, rows, limit)
    assert work == ref_work
    assert pivot_cols == ref_pivots
    assert factor == ref_factor


@settings(max_examples=300, deadline=None)
@example((GF3, ((0, 1, 2), (0, 2, 1), (1, 0, 0)), 3))
@example((GF2, ((0, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)), 2))
@given(_finite_systems())
def test_finite_elimination_matches_full_row_reference(system):
    _assert_matches_full_row_reference(*system)


@st.composite
def _qq_systems(draw):
    m = draw(_qq_matrices())
    return QQ, m.entries, draw(st.integers(1, m.cols))


@settings(max_examples=300, deadline=None)
@example((GF3, ((0, 1, 2), (0, 2, 1), (1, 0, 0)), 3))
@example((QQ, ((Fraction(0), Fraction(2), Fraction(1)), (Fraction(3), Fraction(1), Fraction(0)),
               (Fraction(6), Fraction(4), Fraction(1))), 3))
@given(st.one_of(_finite_systems(), _qq_systems()))
def test_forward_elimination_keeps_the_pivots_and_the_determinant(system):
    # det, and with it every determinant of the correction step, and the
    # column completion of find_gl_transform run the forward pass only.
    field, rows, limit = system
    _, pivot_cols, factor = matrix_module._gauss_jordan(field, rows, limit, reduce=False)
    _, full_pivot_cols, full_factor = matrix_module._gauss_jordan(field, rows, limit)
    assert pivot_cols == full_pivot_cols
    assert factor == full_factor
    n = min(len(rows), len(rows[0]))
    square = Matrix(field, tuple(row[:n] for row in rows[:n]))
    _, full_pivot_cols, full_factor = matrix_module._gauss_jordan(field, square.entries, n)
    assert det(square) == (full_factor if len(full_pivot_cols) == n else field.zero)


@pytest.mark.parametrize("rows, limit", [
    (((0, 3, 7), (5, 0, 9), (0, 0, 0)), 3),
    # column 1 is free but nonzero in the pivot row above it; the update from column 2 must keep it
    (((1, 2, 0, 5), (0, 0, 3, 1), (1, 2, 9, 9)), 4),
    (((2, 4, 6, 1), (1, 2, 3, 5), (0, 0, 7, 2)), 3),
    (((1, 9, 40000, 3), (65535, 2, 0, 0), (0, 0, 0, 0), (7, 7, 7, 7)), 2),
])
def test_gf65536_elimination_matches_full_row_reference(rows, limit):
    field = GF65536
    rows = tuple(tuple(map(field.element_from_index, row)) for row in rows)
    _assert_matches_full_row_reference(field, rows, limit)


class _CountingField:
    """A finite field that counts its add and mul calls; everything else is the wrapped field's."""

    def __init__(self, field):
        self._field = field
        self.adds = self.muls = 0

    def __getattr__(self, name):
        return getattr(self._field, name)

    def add(self, a, b):
        self.adds += 1
        return self._field.add(a, b)

    def mul(self, a, b):
        self.muls += 1
        return self._field.mul(a, b)


def _sparse_pivot_system(rng, field, n, r):
    """(rows, updates): an n x n system whose pivot rows are mostly zero, and
    the number of entries its row updates must compute.

    A zero row, then r rows [e_i | A_i] with A_i three-quarters zero, then
    n - r - 1 rows that combine them.  The zero row is swapped down at every
    pivot; the pivot rows are the [e_i | A_i], pivot 1, never updated
    themselves (column i is zero in every other one), so no pivot is scaled.
    A combination with a nonzero weight on row i is updated once, by pivot i,
    and that update has 1 + nnz(A_i) nonzero pivot-row entries."""
    z = field.zero

    def element(nonzero_share):
        if rng.random() >= nonzero_share:
            return z
        return field.element_from_index(rng.randrange(1, field.cardinality))

    pivots = [
        tuple(field.one if j == i else z for j in range(r)) + tuple(element(0.25) for _ in range(n - r))
        for i in range(r)
    ]
    combinations, updates = [], 0
    for _ in range(n - r - 1):
        row = (z,) * n
        for pivot_row in pivots:
            w = element(0.5)
            if w != z:
                row = tuple(field.add(e, field.mul(w, s)) for e, s in zip(row, pivot_row))
                updates += sum(s != z for s in pivot_row)
        combinations.append(row)
    return ((z,) * n, *pivots, *combinations), updates


@pytest.mark.parametrize("field", [GF2, GF31, GF16], ids=repr)
@pytest.mark.parametrize("seed", range(3))
def test_finite_row_update_costs_one_mul_and_add_per_nonzero_pivot_row_entry(field, seed):
    rows, updates = _sparse_pivot_system(random.Random(seed), field, 12, 7)
    assert updates
    for run, expected in ((lambda m: rref(m).rank, 7), (det, field.zero)):
        counting = _CountingField(field)
        assert run(Matrix.from_rows(counting, rows)) == expected
        assert (counting.muls, counting.adds) == (updates, updates)


@st.composite
def _qq_products(draw):
    inner = draw(st.integers(1, 7))
    return draw(_qq_matrices(cols=st.just(inner))), draw(_qq_matrices(rows=st.just(inner)))


def _no_fraction_arithmetic(*args):
    raise AssertionError("the QQ product took the Fraction path")


@settings(max_examples=50, deadline=None)
@given(_qq_products())
def test_qq_product_matches_fraction_reference(pair):
    a, b = pair
    # the product must run on integers: QQ's add and mul are never called
    with mock.patch.object(RationalField, "add", _no_fraction_arithmetic), \
            mock.patch.object(RationalField, "mul", _no_fraction_arithmetic):
        product = a * b
    assert product.entries == _reference_product(a, b)
    _assert_fractions(product.entries)


@st.composite
def _same_shape_pairs(draw):
    field = draw(st.sampled_from((GF2, GF4, GF101, QQ)))
    if field == QQ:
        a = draw(_qq_matrices())
        return a, draw(_qq_matrices(rows=st.just(a.rows), cols=st.just(a.cols)))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    element = st.integers(0, field.cardinality - 1).map(field.element_from_index)
    return tuple(
        Matrix(field, tuple(tuple(draw(element) for _ in range(cols)) for _ in range(rows))) for _ in range(2)
    )


@settings(max_examples=100, deadline=None)
@given(_same_shape_pairs(), st.data())
def test_add_scaled_matches_sum_of_scaling(pair, data):
    a, b = pair
    f = a.field
    if f == QQ:
        c = data.draw(_QQ_ENTRY)
    else:
        c = data.draw(st.integers(0, f.cardinality - 1).map(f.element_from_index))
    expected = a + scaled(b, c)
    if f == QQ:
        # over QQ the helper runs on integer rows: QQ's add and mul are never called
        with mock.patch.object(RationalField, "add", _no_fraction_arithmetic), \
                mock.patch.object(RationalField, "mul", _no_fraction_arithmetic):
            got = matrix_module._add_scaled(a, c, b)
        _assert_fractions(got.entries)
    else:
        got = matrix_module._add_scaled(a, c, b)
    assert got == expected


# JSON

@pytest.mark.parametrize("field", [GF2, GF4, QQ])
def test_matrix_json_round_trip(field):
    rng = random.Random(31)
    for _ in range(10):
        m = random_matrix(rng, field, rng.randint(1, 3), rng.randint(1, 3))
        assert matrix_from_json(matrix_to_json(m)) == m


def test_matrix_json_rejects_bad_input():
    obj = matrix_to_json(Matrix.identity(GF2, 2))
    broken = dict(obj)
    del broken["entries"]
    with pytest.raises(errors.ParseError):
        matrix_from_json(broken)
    broken = dict(obj, rows=3)
    with pytest.raises(errors.ParseError):
        matrix_from_json(broken)
    broken = dict(obj, entries=[["2", "0"], ["0", "1"]])
    with pytest.raises(errors.ParseError):
        matrix_from_json(broken)
