"""Row spaces, invertible transforms between row-equivalent matrices, and
GL(n)-dependence of subspace families."""

import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import random_invertible, random_matrix
from glndep import errors, subspaces
from glndep.fields import ExtensionField, PrimeField
from glndep.matrix import Matrix, det, rref
from glndep.rational_solver import find_gl_transform
from glndep.rationals import RationalField
from glndep.subspaces import (
    FLAG_FULL,
    FLAG_ZERO,
    Subspace,
    SubspaceVerificationError,
    SubspaceWitness,
    _subspaces_from_rows,
    representative_matrix,
    solve_subspace_dependence,
    subspace_to_json,
    subspace_witness_from_json,
    subspace_witness_to_json,
    verify_subspace_witness,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = ExtensionField(2, 2)
QQ = RationalField()


def qmat(rows):
    return Matrix.from_rows(QQ, rows)


def line(field, vector):
    return Subspace.from_vectors(field, len(vector), [vector])


# row spaces

@pytest.mark.parametrize(
    "basis",
    [((2, 0),), ((1, 0), (2, 0)), ((0, 1), (1, 0)), ((1, 1), (0, 1)), ((0, 0),)],
    ids=["lead-not-one", "repeated-lead", "leads-decrease", "lead-column-not-cleared", "zero-row"],
)
def test_subspace_rejects_a_basis_that_is_not_canonical(basis):
    # a raw basis is trusted as canonical, so a bad one would compare unequal
    # to its own span and report the wrong dimension; 2 stands for an element
    # other than 0 and 1
    for field, two in ((QQ, Fraction(2)), (GF3, 2), (GF4, (0, 1))):
        elements = {0: field.zero, 1: field.one, 2: two}
        with pytest.raises(ValueError):
            Subspace(field, 2, tuple(tuple(elements[e] for e in row) for row in basis))


def test_subspace_is_immutable():
    space = Subspace.from_vectors(QQ, 2, [[1, 2]])
    for name in ("field", "ambient", "basis", "extra"):
        with pytest.raises(AttributeError):
            setattr(space, name, None)
    with pytest.raises(AttributeError):
        del space.basis


def test_row_space_of_identity_is_everything():
    m = Matrix.identity(QQ, 2)
    space = Subspace.from_vectors(m.field, m.cols, m.entries)
    assert space.dim == 2
    assert space.basis == ((1, 0), (0, 1))


def test_row_space_collapses_parallel_rows():
    m = qmat([[1, 1], [2, 2]])
    space = Subspace.from_vectors(m.field, m.cols, m.entries)
    assert space.basis == ((1, 1),)


def test_row_space_of_zero_matrix_is_trivial():
    m = Matrix.zero(QQ, 2, 3)
    space = Subspace.from_vectors(m.field, m.cols, m.entries)
    assert space.dim == 0
    assert space.basis == ()


def test_subspace_equality_is_canonical():
    a = Subspace.from_vectors(QQ, 2, [(1, 1), (2, 2)])
    b = Subspace.from_vectors(QQ, 2, [(3, 3)])
    assert a == b
    assert a != Subspace.from_vectors(QQ, 2, [(1, 0)])


def test_from_vectors_eliminates_once(monkeypatch):
    # The basis is the nonzero rows of the vectors' rref, canonical by
    # construction; checking it as Subspace(...) does took a second rref.
    calls = []
    monkeypatch.setattr(subspaces, "rref", lambda m: calls.append(m) or rref(m))
    space = Subspace.from_vectors(QQ, 3, [(1, 2, 3), (2, 4, 6), (0, 1, 1)])
    assert len(calls) == 1
    monkeypatch.undo()
    assert Subspace(QQ, 3, space.basis) == space
    assert space.basis == ((1, 0, 1), (0, 1, 1))


def test_from_vectors_keeps_its_refusals():
    with pytest.raises(errors.ShapeError, match="^spanning vector of the wrong length$"):
        Subspace.from_vectors(QQ, 2, [(1, 2, 3)])
    with pytest.raises(errors.ShapeError, match="^ambient dimension must be >= 1$"):
        Subspace.from_vectors(QQ, 0, [])
    with pytest.raises(TypeError, match="^rational element must be an int or Fraction, got 0.5$"):
        Subspace.from_vectors(QQ, 2, [(1, 2), (0.5, 1)])


@pytest.mark.parametrize("ambient", [2.0, True, "2", None])
def test_from_vectors_refuses_an_ambient_that_is_not_an_int(ambient):
    # 2.0 passed as 2: subspace_to_json wrote "ambient": 2.0, which the
    # subspace-solve input rules refuse.
    with pytest.raises(errors.ShapeError, match="^ambient dimension must be >= 1$"):
        Subspace.from_vectors(QQ, ambient, [(1, 0)])
    with pytest.raises(errors.ShapeError, match="^ambient dimension must be >= 1$"):
        Subspace.from_vectors(QQ, ambient, [])


@pytest.mark.parametrize("ambient", [2.0, True, "2", None])
def test_subspace_refuses_an_ambient_that_is_not_an_int(ambient):
    with pytest.raises(errors.ShapeError, match="^ambient dimension must be >= 1$"):
        Subspace(QQ, ambient, ())
    with pytest.raises(errors.ShapeError, match="^ambient dimension must be >= 1$"):
        Subspace(QQ, ambient, ((Fraction(1), Fraction(0)),))


# invertible transforms between matrices with equal row spaces

def test_transform_equal_inputs_gives_identity():
    m = qmat([[1, 2], [0, 0]])
    assert find_gl_transform(m, m) == Matrix.identity(QQ, 2)


def test_transform_scaled_rank_deficient():
    m1 = qmat([[1, 0], [0, 0]])
    m2 = qmat([[2, 0], [0, 0]])
    g = find_gl_transform(m1, m2)
    assert g is not None
    assert g * m1 == m2
    assert det(g) != 0


def test_transform_none_when_ranks_differ():
    assert find_gl_transform(qmat([[1, 0], [0, 1]]), qmat([[1, 0], [0, 0]])) is None


def test_transform_permuted_zero_rows():
    m1 = qmat([[1, 0], [0, 0]])
    m2 = qmat([[0, 0], [1, 0]])
    g = find_gl_transform(m1, m2)
    assert g is not None and g * m1 == m2 and det(g) != 0


@pytest.mark.parametrize("field", [GF3, QQ])
def test_transform_round_trip_random(field):
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        matrix = random_matrix(rng, field, n, m)
        g = random_invertible(rng, field, n)
        h = find_gl_transform(matrix, g * matrix)
        assert h is not None
        assert h * matrix == g * matrix
        assert det(h) != field.zero


@pytest.mark.parametrize("field", [GF3, QQ])
def test_transform_rejects_unequal_row_spaces(field):
    rng = random.Random(103)
    rejected = 0
    while rejected < 40:
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        m1 = random_matrix(rng, field, n, m)
        m2 = random_matrix(rng, field, n, m)
        s1 = Subspace.from_vectors(field, m, m1.entries)
        if s1 == Subspace.from_vectors(field, m, m2.entries):
            continue
        assert find_gl_transform(m1, m2) is None
        rejected += 1


# representative matrices

def test_representative_matrix_pads_with_zero_rows():
    space = Subspace.from_vectors(QQ, 3, [(1, 0, 0)])
    rep = representative_matrix(space, 2)
    assert rep == qmat([[1, 0, 0], [0, 0, 0]])
    assert Subspace.from_vectors(rep.field, rep.cols, rep.entries) == space


def test_representative_matrix_rejects_large_dimension():
    space = Subspace.from_vectors(QQ, 2, [(1, 0), (0, 1)])
    with pytest.raises(errors.DimensionTooLargeError):
        representative_matrix(space, 1)


# dependence of subspace families

def test_three_lines_in_the_plane_gl1():
    lines = [line(QQ, v) for v in [(1, 0), (0, 1), (1, 1)]]
    witness = solve_subspace_dependence(lines, 1)
    assert witness is not None
    verify_subspace_witness(lines, witness)


def test_coordinate_axes_are_independent_for_every_n():
    for m in (2, 3):
        axes = [
            line(GF2, tuple(1 if i == j else 0 for i in range(m)))
            for j in range(m)
        ]
        for n in (1, 2):
            assert solve_subspace_dependence(axes, n) is None


def test_repeated_line_is_dependent():
    lines = [line(QQ, (2, 0)), line(QQ, (1, 0)), line(QQ, (3, 0))]
    witness = solve_subspace_dependence(lines, 1)
    assert witness is not None
    verify_subspace_witness(lines, witness)


def test_dimension_gate():
    plane = Subspace.from_vectors(GF2, 2, [(1, 0), (0, 1)])
    with pytest.raises(errors.DimensionTooLargeError):
        solve_subspace_dependence([plane, plane, plane], 1)


def test_empty_family_is_refused():
    with pytest.raises(errors.ShapeError):
        solve_subspace_dependence([], 1)


def test_family_over_mixed_fields_is_refused():
    family = [line(GF2, (1, 0)), line(GF3, (1, 0)), line(GF2, (0, 1))]
    with pytest.raises(errors.FieldMismatchError):
        solve_subspace_dependence(family, 1)


@pytest.mark.parametrize(
    "field,k", [(GF2, 4), (GF2, 2), (QQ, 2)], ids=["gf2-solver", "gf2-oracle", "qq-too-few"]
)
def test_family_of_mixed_ambients_is_refused(field, k):
    # m = 2 from the first subspace: k >= 3 subspaces go to the solver, fewer
    # to the oracle over GF(2) and to the too-few refusal over QQ.
    family = [line(field, (1, 0)), line(field, (0, 1, 0))] + [line(field, (1, 1))] * (k - 2)
    with pytest.raises(errors.ShapeError):
        solve_subspace_dependence(family, 1)


@pytest.mark.parametrize("n", [0, -1])
def test_n_below_one_is_refused(n):
    # With n = 0 a representative matrix would have no rows at all.
    trivial = Subspace.from_vectors(GF2, 2, [])
    with pytest.raises(ValueError, match="n must be an int >= 1"):
        solve_subspace_dependence([trivial, trivial, trivial], n)


def test_zero_subspace_alone_is_dependent():
    trivial = Subspace.from_vectors(GF2, 2, [])
    witness = solve_subspace_dependence([trivial], 1)
    assert witness is not None
    assert witness.flags == (FLAG_FULL,)
    verify_subspace_witness([trivial], witness)


def test_rational_small_families_are_undecided():
    with pytest.raises(errors.TooFewMatricesError):
        solve_subspace_dependence([line(QQ, (1, 0))], 1)


def test_family_over_extension_field():
    lines = [
        Subspace.from_vectors(GF4, 2, [((1, 0), (0, 0))]),
        Subspace.from_vectors(GF4, 2, [((0, 0), (1, 0))]),
        Subspace.from_vectors(GF4, 2, [((1, 0), (0, 1))]),
    ]
    witness = solve_subspace_dependence(lines, 1)
    assert witness is not None
    verify_subspace_witness(lines, witness)


def test_solver_route_over_rationals():
    spaces = [
        Subspace.from_vectors(QQ, 2, [(1, 0), (0, 1)]),
        Subspace.from_vectors(QQ, 2, [(1, 1)]),
        Subspace.from_vectors(QQ, 2, [(1, 2)]),
    ]
    witness = solve_subspace_dependence(spaces, 2)
    assert witness is not None
    verify_subspace_witness(spaces, witness)


# witness verification

def _plane_pair_witness():
    plane = Subspace.from_vectors(QQ, 2, [(1, 0), (0, 1)])
    vectors = (((1, 0), (0, 1)), ((-1, 0), (0, -1)))
    vecs = tuple(tuple(QQ.vector(v) for v in group) for group in vectors)
    return [plane, plane], SubspaceWitness(QQ, 2, 2, vecs, (FLAG_FULL, FLAG_FULL))


def test_verify_accepts_identity_style_witness():
    spaces, witness = _plane_pair_witness()
    verify_subspace_witness(spaces, witness)


def test_verify_rejects_span_shrink():
    spaces, witness = _plane_pair_witness()
    zero = (QQ.zero, QQ.zero)
    shrunk = SubspaceWitness(
        QQ,
        2,
        2,
        ((witness.vectors[0][0], zero), (witness.vectors[1][0], zero)),
        witness.flags,
    )
    with pytest.raises(SubspaceVerificationError) as exc:
        verify_subspace_witness(spaces, shrunk)
    assert exc.value.reason == "span"


def test_verify_checks_spans_by_rank_without_building_subspaces(monkeypatch):
    spaces, witness = _plane_pair_witness()
    zero = (QQ.zero, QQ.zero)
    shrunk = SubspaceWitness(
        QQ, 2, 2, ((witness.vectors[0][0], zero), (witness.vectors[1][0], zero)), witness.flags
    )

    def refuse(*args):
        raise AssertionError("the verifier built a Subspace")

    monkeypatch.setattr(subspaces.Subspace, "from_vectors", refuse)
    verify_subspace_witness(spaces, witness)
    with pytest.raises(SubspaceVerificationError) as exc:
        verify_subspace_witness(spaces, shrunk)
    assert exc.value.reason == "span"


@pytest.mark.parametrize("ambient,n", [(2, 0), (0, 1), (2, -1), (2, True), (2.0, 1)])
def test_witness_refuses_a_shape_below_one(ambient, n):
    # With n = 0 two zero subspaces of QQ^2 had a "witness" of no vectors at all.
    group = ((QQ.zero,) * int(ambient),) * max(int(n), 0)
    with pytest.raises(ValueError, match="must be an int >= 1"):
        SubspaceWitness(QQ, ambient, n, (group, group), (FLAG_FULL, FLAG_FULL))


@pytest.mark.parametrize(
    "spaces, reason",
    [
        # Without the count check zip drops the second group from the
        # membership and span checks, and one line would pass as GL(1)-dependent.
        ([line(GF3, (1, 0))], "shape-mismatch"),
        ([line(PrimeField(5), (1, 0))] * 2, "field-mismatch"),
        ([line(GF3, (1, 0, 0))] * 2, "shape-mismatch"),
    ],
    ids=["group-count", "field", "ambient"],
)
def test_verify_refuses_a_family_the_witness_does_not_fit(spaces, reason):
    # The groups (1, 0) and (2, 0) with n = 1 are a witness for two equal lines over GF(3).
    witness = SubspaceWitness(GF3, 2, 1, (((1, 0),), ((2, 0),)), (FLAG_FULL, FLAG_FULL))
    verify_subspace_witness([line(GF3, (1, 0))] * 2, witness)
    with pytest.raises(SubspaceVerificationError) as exc:
        verify_subspace_witness(spaces, witness)
    assert exc.value.reason == reason


def test_verify_rejects_all_zero_flags():
    spaces, witness = _plane_pair_witness()
    zeros = tuple(
        tuple((QQ.zero, QQ.zero) for _ in range(2)) for _ in range(2)
    )
    bad = SubspaceWitness(QQ, 2, 2, zeros, (FLAG_ZERO, FLAG_ZERO))
    with pytest.raises(SubspaceVerificationError) as exc:
        verify_subspace_witness(spaces, bad)
    assert exc.value.reason == "all-zero"


def test_verify_rejects_membership_violation():
    spaces = [line(QQ, (1, 0)), line(QQ, (1, 0))]
    vecs = (
        (QQ.vector((0, 1)),),
        (QQ.vector((0, -1)),),
    )
    bad = SubspaceWitness(QQ, 2, 1, vecs, (FLAG_FULL, FLAG_FULL))
    with pytest.raises(SubspaceVerificationError) as exc:
        verify_subspace_witness(spaces, bad)
    assert exc.value.reason == "membership"


def test_verify_reports_the_first_vector_outside_its_subspace():
    # subspace 1's second vector is the first to leave its subspace; subspace
    # 2's first vector leaves it too, but comes later in (subspace, vector) order
    spaces = [line(QQ, (1, 0)), line(QQ, (0, 1)), line(QQ, (1, 1))]
    vecs = tuple(
        tuple(QQ.vector(v) for v in group)
        for group in (((1, 0), (0, 0)), ((0, 1), (1, 0)), ((1, 0), (0, 0)))
    )
    bad = SubspaceWitness(QQ, 2, 2, vecs, (FLAG_FULL, FLAG_FULL, FLAG_FULL))
    with pytest.raises(SubspaceVerificationError) as exc:
        verify_subspace_witness(spaces, bad)
    assert (exc.value.reason, exc.value.subspace, exc.value.vector) == ("membership", 1, 1)


def test_verify_rejects_sum_violation():
    spaces = [line(QQ, (1, 0)), line(QQ, (1, 0))]
    vecs = (
        (QQ.vector((1, 0)),),
        (QQ.vector((1, 0)),),
    )
    bad = SubspaceWitness(QQ, 2, 1, vecs, (FLAG_FULL, FLAG_FULL))
    with pytest.raises(SubspaceVerificationError) as exc:
        verify_subspace_witness(spaces, bad)
    assert exc.value.reason == "sum-nonzero"


def test_verify_rejects_zero_flag_on_nonzero_vectors():
    spaces = [line(QQ, (1, 0)), line(QQ, (1, 0))]
    vecs = (
        (QQ.vector((1, 0)),),
        (QQ.vector((-1, 0)),),
    )
    bad = SubspaceWitness(QQ, 2, 1, vecs, (FLAG_ZERO, FLAG_FULL))
    with pytest.raises(SubspaceVerificationError) as exc:
        verify_subspace_witness(spaces, bad)
    assert exc.value.reason == "span"


def test_full_flag_on_large_subspace_is_structurally_impossible():
    # n vectors cannot span a subspace of dimension > n, so any such claim fails
    plane = Subspace.from_vectors(GF2, 3, [(1, 0, 0), (0, 1, 0)])
    for x in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]:
        vecs = ((tuple(x),),)
        claimed = SubspaceWitness(GF2, 3, 1, vecs, (FLAG_FULL,))
        with pytest.raises(SubspaceVerificationError):
            verify_subspace_witness([plane], claimed)


def test_linearly_independent_families_are_independent_for_all_n():
    # whenever the union of the bases is independent, no witness exists;
    # exhaustive over families of distinct lines (and line/plane pairs) in GF(2)^3
    vectors = [v for v in product([0, 1], repeat=3) if any(v)]
    lines = [Subspace.from_vectors(GF2, 3, [v]) for v in vectors]
    checked = 0
    for k in (2, 3):
        for combo in product(lines, repeat=k):
            stacked = Matrix.from_rows(GF2, [L.basis[0] for L in combo])
            if rref(stacked).rank != k:
                continue  # not an independent family
            for n in (1, 2):
                assert solve_subspace_dependence(list(combo), n) is None
            checked += 1
    planes = [
        Subspace.from_vectors(GF2, 3, [v, w])
        for i, v in enumerate(vectors)
        for w in vectors[i + 1 :]
    ]
    for plane in planes:
        for line_space in lines:
            stacked = Matrix.from_rows(GF2, list(plane.basis) + list(line_space.basis))
            if rref(stacked).rank != 3:
                continue
            assert solve_subspace_dependence([plane, line_space], 2) is None
            checked += 1
    assert checked > 100


def test_linearly_dependent_planes_without_gl1_witness():
    # two distinct planes in K^3 overlap (dimensions 2+2 > 3) yet admit no
    # single-vector witness: an exhaustive scan over both planes finds none
    p1 = Subspace.from_vectors(GF2, 3, [(1, 0, 0), (0, 1, 0)])
    p2 = Subspace.from_vectors(GF2, 3, [(0, 1, 0), (0, 0, 1)])
    assert p1 != p2
    stacked = Matrix.from_rows(GF2, list(p1.basis) + list(p2.basis))
    assert rref(stacked).rank < p1.dim + p2.dim  # linearly dependent as a family
    members = lambda s: [
        tuple(
            GF2.add(GF2.mul(c1, s.basis[0][i]), GF2.mul(c2, s.basis[1][i]))
            for i in range(3)
        )
        for c1 in (0, 1)
        for c2 in (0, 1)
    ]
    found = False
    for x1 in members(p1):
        for x2 in members(p2):
            if any(GF2.add(a, b) != 0 for a, b in zip(x1, x2)):
                continue
            flags_ok = False
            for f1 in (FLAG_FULL, FLAG_ZERO):
                for f2 in (FLAG_FULL, FLAG_ZERO):
                    if (f1, f2) == (FLAG_ZERO, FLAG_ZERO):
                        continue
                    try:
                        verify_subspace_witness(
                            [p1, p2],
                            SubspaceWitness(GF2, 3, 1, ((x1,), (x2,)), (f1, f2)),
                        )
                        flags_ok = True
                    except SubspaceVerificationError:
                        pass
            found = found or flags_ok
    assert not found


# JSON

def test_subspace_json_round_trip():
    # subspace_to_json writes the basis as spanning rows, which the family decoder reads back
    space = Subspace.from_vectors(GF3, 3, [(1, 2, 0), (0, 0, 1)])
    obj = subspace_to_json(space)
    assert _subspaces_from_rows(GF3, obj["ambient"], [obj["basis"]]) == [space]


def test_subspace_json_canonicalizes():
    spaces = _subspaces_from_rows(QQ, 2, [[["2", "2"], ["1", "1"]]])
    assert spaces == [Subspace.from_vectors(QQ, 2, [(1, 1)])]


@pytest.mark.parametrize(
    "ambient, basis",
    [(0, []), (2, [["1", "0", "0"]]), ("2", [])],
    ids=["ambient-zero", "row-wrong-length", "ambient-string"],
)
def test_subspace_from_json_rejects_bad_shape(ambient, basis):
    with pytest.raises(errors.ParseError):
        _subspaces_from_rows(QQ, ambient, [basis])


def test_subspace_witness_json_round_trip():
    lines = [line(QQ, v) for v in [(1, 0), (0, 1), (1, 1)]]
    witness = solve_subspace_dependence(lines, 1)
    assert subspace_witness_from_json(subspace_witness_to_json(witness)) == witness


def test_subspace_witness_json_rejects_missing_key():
    lines = [line(QQ, v) for v in [(1, 0), (0, 1), (1, 1)]]
    obj = subspace_witness_to_json(solve_subspace_dependence(lines, 1))
    del obj["flags"]
    with pytest.raises(errors.ParseError):
        subspace_witness_from_json(obj)


def test_subspace_witness_json_quotes_a_huge_n_briefly():
    # The refusal used to print n whole: 1,500 digits.
    lines = [line(QQ, v) for v in [(1, 0), (0, 1), (1, 1)]]
    obj = subspace_witness_to_json(solve_subspace_dependence(lines, 1))
    obj["n"] = 10 ** 1499
    with pytest.raises(errors.ParseError) as info:
        subspace_witness_from_json(obj)
    assert len(str(info.value)) < 1024


@pytest.mark.parametrize("key", ["n", "ambient"])
@pytest.mark.parametrize("value", [True, 1.0, 2.0, "2"])
def test_subspace_witness_json_rejects_non_int_shape(key, value):
    # A bool or a float must not pass for an int: true would read as 1, and a
    # float would reach the verifier as a bare TypeError.
    lines = [line(QQ, v) for v in [(1, 0), (0, 1), (1, 1)]]
    obj = subspace_witness_to_json(solve_subspace_dependence(lines, 1))
    obj[key] = value
    with pytest.raises(errors.ParseError):
        subspace_witness_from_json(obj)
