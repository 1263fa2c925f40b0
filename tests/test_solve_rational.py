"""Recursive solver over the rationals: bases, projection, correction, instrumentation."""

import ast
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    KINDS,
    assert_correction_invariants,
    golden_instances,
    golden_matrix,
    random_matrix,
    recorded_corrections,
    scaled,
)
from glndep import errors, rational_solver
from glndep.certificate import TAG_INVERTIBLE, TAG_ZERO, Witness, verify_witness, witness_to_json
from glndep.fields import ExtensionField, PrimeField
from glndep.matrix import Matrix, det, kernel_basis
from glndep.rational_solver import (
    choose_correction_scalar,
    correct_bad_index,
    find_row_outside_span,
    project_and_recurse,
    row_dependences,
    solve_column_pair,
    solve_rational,
    solve_unsafe_finite,
)
from glndep.rationals import RationalField

QQ = RationalField()


def qmat(rows):
    return Matrix.from_rows(QQ, rows)


# entry-level behavior

def test_zero_matrix_shortcut():
    mats = [qmat([[1, 0], [0, 0]]), Matrix.zero(QQ, 2, 2), qmat([[0, 1], [0, 0]])]
    witness = solve_rational(mats)
    verify_witness(mats, witness)
    assert witness.tags == (TAG_ZERO, TAG_INVERTIBLE, TAG_ZERO)
    assert witness.entries[1] == Matrix.identity(QQ, 2)


def test_n1_scalar_dependence_is_canonical():
    mats = [qmat([[1, 0]]), qmat([[0, 1]]), qmat([[1, 1]])]
    witness = solve_rational(mats)
    verify_witness(mats, witness)
    scalars = [g.entries[0][0] for g in witness.entries]
    assert scalars == [Fraction(-1), Fraction(-1), Fraction(1)]
    # agreement with the canonical kernel of the stacked columns
    stacked = qmat([[1, 0, 1], [0, 1, 1]])
    assert tuple(scalars) == kernel_basis(stacked)[0]


def test_n2_m2_example_verifies():
    mats = [qmat([[1, 0], [0, 1]]), qmat([[0, 1], [1, 0]]), qmat([[1, 1], [1, 1]])]
    witness = solve_rational(mats)
    verify_witness(mats, witness)


def test_extra_matrices_receive_zero():
    rng = random.Random(61)
    mats = [random_matrix(rng, QQ, 2, 1) for _ in range(4)]
    while any(m.is_zero() for m in mats):
        mats = [random_matrix(rng, QQ, 2, 1) for _ in range(4)]
    witness = solve_rational(mats)
    verify_witness(mats, witness)
    assert witness.tags[2:] == (TAG_ZERO, TAG_ZERO)


def test_too_few_matrices():
    with pytest.raises(errors.TooFewMatricesError):
        solve_rational([qmat([[1, 0]]), qmat([[0, 1]])])


def test_mixed_shapes_rejected():
    with pytest.raises(errors.ShapeError):
        solve_rational([qmat([[1, 0]]), qmat([[1], [0]])])


def test_rejects_finite_field_matrices():
    gf2 = PrimeField(2)
    with pytest.raises(ValueError):
        solve_rational([Matrix.identity(gf2, 1), Matrix.identity(gf2, 1)])


def test_deterministic_output():
    rng = random.Random(67)
    mats = [random_matrix(rng, QQ, 3, 2) for _ in range(3)]
    assert solve_rational(mats) == solve_rational(mats)


def test_fractional_entries():
    mats = [
        qmat([[Fraction(1, 2), Fraction(-7, 3)], [Fraction(0), Fraction(2, 5)]]),
        qmat([[Fraction(3), Fraction(1, 6)], [Fraction(-1, 2), Fraction(1)]]),
        qmat([[Fraction(2, 3), Fraction(0)], [Fraction(5), Fraction(-1, 4)]]),
    ]
    witness = solve_rational(mats)
    verify_witness(mats, witness)


def test_zero_matrix_beyond_first_m_plus_one():
    mats = [qmat([[1], [2]]), qmat([[3], [4]]), qmat([[5], [6]]), Matrix.zero(QQ, 2, 1)]
    witness = solve_rational(mats)
    verify_witness(mats, witness)
    assert witness.tags == (TAG_ZERO, TAG_ZERO, TAG_ZERO, TAG_INVERTIBLE)


# column-pair base case

def test_column_pair_swap():
    gs = solve_column_pair(qmat([[1], [0]]), qmat([[0], [1]]))
    assert gs[0] == qmat([[0, 1], [1, 0]])
    assert gs[1] == -Matrix.identity(QQ, 2)


def test_column_pair_scaling():
    w1 = qmat([[2], [0]])
    w2 = qmat([[1], [0]])
    gs = solve_column_pair(w1, w2)
    verify_witness([w1, w2], Witness(tuple(gs)))
    assert gs[0] * w1 == w2
    assert gs[1] == -Matrix.identity(QQ, 2)
    assert det(gs[0]) != 0


# row dependences

def test_row_dependences_single_column():
    mats = [qmat([[1], [1]]), qmat([[2], [2]])]
    deps = row_dependences(mats)
    assert deps == [(Fraction(-2), Fraction(1)), (Fraction(-2), Fraction(1))]


def test_row_dependences_zero_rows_take_first_free_variable():
    mats = [Matrix.zero(QQ, 1, 2) for _ in range(3)]
    deps = row_dependences(mats)
    assert deps == [(Fraction(1), Fraction(0), Fraction(0))]


def test_row_dependences_assemble_to_zero_sum():
    rng = random.Random(71)
    mats = [random_matrix(rng, QQ, 3, 2) for _ in range(3)]
    deps = row_dependences(mats)
    total = Matrix.zero(QQ, 3, 2)
    for i, m in enumerate(mats):
        diag = Matrix.from_rows(
            QQ, [[deps[r][i] if r == c else 0 for c in range(3)] for r in range(3)]
        )
        total = total + diag * m
    assert total.is_zero()


# row-outside-span detection

def test_detection_none_for_n1_spanning_rows():
    mats = [qmat([[1, 0]]), qmat([[0, 1]]), qmat([[1, 1]])]
    hit, expansions = find_row_outside_span(mats)
    assert hit is None
    # every matrix expanded; row 0 of matrix 2 is the sum of the other rows
    assert len(expansions) == 3
    assert expansions[2] == [[1, 1]]


def test_detection_finds_smallest_pair():
    mats = [qmat([[1, 0], [0, 0]]), qmat([[1, 0], [0, 0]]), qmat([[0, 1], [0, 0]])]
    hit, expansions = find_row_outside_span(mats)
    assert hit == 2
    # the scan stops at the hit, whose expansion marks the escaping row
    assert len(expansions) == 3
    assert expansions[2][0] is None


def test_detection_none_when_all_matrices_equal():
    m = qmat([[1, 2], [3, 4]])
    assert find_row_outside_span([m, m, m])[0] is None


# projection

def test_project_and_recurse_example():
    mats = [qmat([[1, 0], [0, 0]]), qmat([[1, 0], [0, 0]]), qmat([[0, 1], [0, 0]])]
    gs = project_and_recurse(mats, 2)
    assert gs[0] == Matrix.identity(QQ, 2)
    assert gs[1] == -Matrix.identity(QQ, 2)
    assert gs[2].is_zero()
    witness = solve_rational(mats)
    verify_witness(mats, witness)
    assert list(witness.entries) == gs


def test_projection_strictly_narrows():
    # three matrices whose kept rows span a line: the recursion sees width 1
    mats = [qmat([[2, 4], [0, 0]]), qmat([[1, 2], [3, 6]]), qmat([[0, 1], [1, 0]])]
    hit, expansions = find_row_outside_span(mats)
    assert hit == 2 and expansions[2].index(None) == 0
    gs = project_and_recurse(mats, 2)
    total = Matrix.zero(QQ, 2, 2)
    for g, m in zip(gs, mats):
        total = total + g * m
    assert total.is_zero()


def test_two_level_projection():
    # dropping matrix 2 projects to width 2, where dropping the image of
    # matrix 3 projects again to width 1
    mats = [
        qmat([[1, 0, 0], [1, 0, 0]]),
        qmat([[1, 0, 0], [1, 0, 0]]),
        qmat([[0, 1, 0], [0, 1, 0]]),
        qmat([[0, 0, 1], [0, 0, 1]]),
    ]
    hit, expansions = find_row_outside_span(mats)
    assert hit == 2 and expansions[2].index(None) == 0
    witness = solve_rational(mats)
    verify_witness(mats, witness)
    assert list(witness.entries) == [
        Matrix.identity(QQ, 2),
        -Matrix.identity(QQ, 2),
        Matrix.zero(QQ, 2, 2),
        Matrix.zero(QQ, 2, 2),
    ]


# correction step

def test_correction_on_identical_identities():
    ident = Matrix.identity(QQ, 2)
    mats = [ident, ident, ident]
    with recorded_corrections() as records:
        witness = solve_rational(mats)
    verify_witness(mats, witness)
    assert [g for g in witness.entries] == [
        qmat([[-2, 0], [0, -2]]),
        ident,
        ident,
    ]
    assert len(records) == 1
    rec = records[0]
    assert rec.matrices == mats
    assert rec.j == 2
    assert rec.x == Fraction(1)
    assert rec.good == frozenset({0, 1})
    assert rec.good_after == frozenset({0, 1, 2})


def test_correct_bad_index_preserves_sum_and_goodness():
    ident = Matrix.identity(QQ, 2)
    mats = [ident, ident, ident]
    gs = [qmat([[-1, 0], [0, -1]]), ident, Matrix.zero(QQ, 2, 2)]
    expansions = find_row_outside_span(mats)[1]
    new_gs, good_after = correct_bad_index(gs, frozenset({0, 1}), 2, expansions[2])
    total = Matrix.zero(QQ, 2, 2)
    for g, m in zip(new_gs, mats):
        total = total + g * m
    assert total.is_zero()
    assert det(new_gs[2]) != 0
    assert good_after == frozenset({0, 1, 2})
    # x = 1: g_2 gains I, and g_0 = -I pays the coefficient of M_2's rows on M_0's
    assert new_gs == [qmat([[-2, 0], [0, -2]]), ident, ident]


def test_correct_bad_index_rejects_good_index():
    ident = Matrix.identity(QQ, 2)
    expansions = find_row_outside_span([ident, ident, ident])[1]
    with pytest.raises(ValueError):
        correct_bad_index([ident, ident, ident], frozenset({0, 1, 2}), 0, expansions[0])


def test_correction_raises_when_rows_not_expressible():
    # precondition violation: rows of matrix 2 escape the others' span
    mats = [qmat([[1, 0], [0, 0]]), qmat([[1, 0], [0, 0]]), qmat([[0, 1], [0, 0]])]
    gs = [Matrix.identity(QQ, 2), -Matrix.identity(QQ, 2), Matrix.zero(QQ, 2, 2)]
    expansions = find_row_outside_span(mats)[1]
    with pytest.raises(errors.SpanExpansionError):
        correct_bad_index(gs, frozenset({0, 1}), 2, expansions[2])


# correction-scalar choice

def _diag(*values):
    return qmat([[v if r == c else 0 for c in range(len(values))] for r, v in enumerate(values)])


def test_choose_scalar_single_monic_condition():
    # det(0 + x I) = x^2: the first nonzero candidate works
    new_gs, good_after = choose_correction_scalar([Matrix.zero(QQ, 2, 2)], frozenset(), 0, {})
    assert new_gs == [Matrix.identity(QQ, 2)]
    assert good_after == frozenset({0})


def test_choose_scalar_skips_forbidden_values():
    # det(diag(-1,-2) + x I) = (x-1)(x-2) forbids 1 and 2
    new_gs, good_after = choose_correction_scalar([_diag(-1, -2)], frozenset(), 0, {})
    assert new_gs == [_diag(2, 1)]
    assert good_after == frozenset({0})


def _counted_dets():
    """(calls, a det that appends each matrix it is given to calls)."""
    calls = []

    def counted_det(matrix):
        calls.append(matrix)
        return det(matrix)

    return calls, counted_det


def test_choose_scalar_takes_the_other_determinants_only_at_the_accepted_scalar():
    # The scan above beside a singular g_1 outside good, which the step need
    # not repair: x = 1 and x = 2 stop at det(g_0), and x = 3 takes det(g_0),
    # then det(g_1) for the invertible set.
    calls, counted_det = _counted_dets()
    zero = Matrix.zero(QQ, 2, 2)
    with mock.patch.object(rational_solver, "det", counted_det):
        new_gs, good_after = choose_correction_scalar([_diag(-1, -2), zero], frozenset(), 0, {1: zero})
    assert new_gs == [_diag(2, 1), zero]
    assert good_after == frozenset({0})
    assert calls == [_diag(0, -1), _diag(1, 0), _diag(2, 1), zero]


def test_choose_scalar_respects_scan_bound():
    # g_0 forbids x = 1, 2 and det(diag(3, 4) - x I) forbids 3, 4: the usable
    # x is 5, the last of the n*(|good| + 1) + 1 candidates.
    gs = [_diag(-1, -2), _diag(3, 4), Matrix.zero(QQ, 2, 2)]
    corrections = {1: Matrix.identity(QQ, 2), 2: Matrix.identity(QQ, 2)}
    new_gs, good_after = choose_correction_scalar(gs, frozenset({1}), 0, corrections)
    assert new_gs == [_diag(4, 3), _diag(-2, -1), _diag(-5, -5)]
    assert good_after == frozenset({0, 1, 2})


def test_choose_scalar_stops_at_the_scan_bound():
    # A claimed invertible g_1 that is singular and stays so: no candidate is
    # usable, and the scan gives up after n*(|good| + 1) + 1 of them, each
    # stopping at the zero determinant of g_1, the first one it takes.
    zero = Matrix.zero(QQ, 2, 2)
    calls, counted_det = _counted_dets()
    with mock.patch.object(rational_solver, "det", counted_det), pytest.raises(errors.ExhaustedBoundError):
        choose_correction_scalar([zero, zero], frozenset({1}), 0, {1: zero})
    assert calls == [zero] * (2 * 2 + 1)


def _det_scan(conditions):
    """The QQ scan on Fractions: x = 1, 2, ... up to the bound, with one
    determinant of base + x * direction per condition and candidate."""
    n = conditions[0][0].rows
    for v in range(1, n * len(conditions) + 2):
        x = Fraction(v)
        if all(det(base + scaled(direction, x)) != 0 for base, direction in conditions):
            return x
    return errors.ExhaustedBoundError


_SCAN_ENTRY = st.one_of(st.integers(-3, 3), st.fractions(-20, 20, max_denominator=12)).map(Fraction)


@st.composite
def _correction_steps(draw):
    """(gs, good, j, corrections) over QQ, good the indices other than j of
    the invertible multipliers.  Multipliers are random, singular, shifted
    (-c*I at j, c * corrections[i] elsewhere, singular at x = c) or diagonal
    (-diag(k_1, ...) at j, diag(k_1, ...) against the identity elsewhere,
    which forbid x = k_i); the last two push the scan past 1."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    j = draw(st.integers(0, k - 1))
    ident = Matrix.identity(QQ, n)

    def square():
        return Matrix(QQ, tuple(tuple(draw(_SCAN_ENTRY) for _ in range(n)) for _ in range(n)))

    gs, corrections = [], {}
    for i in range(k):
        kind = draw(st.sampled_from(("random", "singular", "shifted", "diagonal")))
        direction = ident if kind == "diagonal" or i == j or draw(st.booleans()) else square()
        sign = -1 if i == j else 1
        if kind == "diagonal":
            g = _diag(*(sign * draw(st.integers(1, 4)) for _ in range(n)))
        elif kind == "shifted":
            g = scaled(direction, Fraction(sign * draw(st.integers(1, 3))))
        else:
            g = square()
            if kind == "singular":
                rows = list(g.entries)
                c = draw(st.integers(0, 2))
                rows[draw(st.integers(0, n - 1))] = tuple(c * e for e in rows[draw(st.integers(0, n - 1))])
                g = Matrix(QQ, tuple(rows))
        gs.append(g)
        if i != j:
            corrections[i] = direction
    good = frozenset(i for i, g in enumerate(gs) if i != j and det(g) != 0)
    return gs, good, j, corrections


@settings(max_examples=150, deadline=None)
@example(([_diag(-1, -2), _diag(3, 4)], frozenset({1}), 0, {1: Matrix.identity(QQ, 2)}))
@example(([_diag(-1, -2), _diag(3, 4), _diag(5, 6)], frozenset({1, 2}), 0,
          {1: Matrix.identity(QQ, 2), 2: Matrix.identity(QQ, 2)}))
@example(([qmat([[1, 2], [2, 4]]), Matrix.identity(QQ, 2)], frozenset({1}), 0,
          {1: qmat([[Fraction(1, 2), 0], [0, Fraction(-1, 3)]])}))
@example(([qmat([[1, 2], [2, 4]])], frozenset(), 0, {}))
@given(_correction_steps())
def test_correction_step_takes_the_first_scalar_of_the_determinant_scan(step):
    # The reference keeps g_j + x*I and each invertible g_i - x*A_i nonzero;
    # the step must stop at the same x and return the multipliers it gives.
    gs, good, j, corrections = step
    ident = Matrix.identity(QQ, gs[0].rows)
    conditions = [(gs[j], ident)] + [(gs[i], scaled(corrections[i], Fraction(-1))) for i in sorted(good)]
    x = _det_scan(conditions)
    assert x is not errors.ExhaustedBoundError, "the scan bound left no usable scalar"
    new_gs, good_after = choose_correction_scalar(gs, good, j, corrections)
    assert new_gs == [
        g + scaled(ident if i == j else corrections[i], x if i == j else -x) for i, g in enumerate(gs)
    ]
    assert good_after == frozenset(i for i, g in enumerate(new_gs) if det(g) != 0)


# experimental finite-field mode

def test_recursive_mode_exhausts_tiny_field():
    # over GF(2) the only candidate is x = 1, and det(I + 1*I) = det(0) = 0
    gf2 = PrimeField(2)
    ident = Matrix.identity(gf2, 2)
    with pytest.raises(errors.ExhaustedBoundError):
        choose_correction_scalar([ident], frozenset(), 0, {})


def test_unsafe_finite_guard_rejects_small_fields():
    gf2 = PrimeField(2)
    ident = Matrix.identity(gf2, 2)
    with pytest.raises(ValueError):
        solve_unsafe_finite([ident, ident, ident])


def test_unsafe_finite_on_large_prime_field():
    gf101 = PrimeField(101)
    rng = random.Random(73)
    mats = [random_matrix(rng, gf101, 2, 2) for _ in range(3)]
    witness = solve_unsafe_finite(mats)
    verify_witness(mats, witness)


# (n, m) -> (p, (q, k)): GF(p) is the smallest prime field and GF(q^k) the
# smallest field of non-prime order with |K| > n*(m+2).
SMALLEST_ADMISSIBLE = {
    (1, 1): (5, (2, 2)), (1, 2): (5, (2, 3)), (1, 3): (7, (2, 3)),
    (2, 1): (7, (2, 3)), (2, 2): (11, (3, 2)), (2, 3): (11, (2, 4)),
    (3, 1): (11, (2, 4)), (3, 2): (13, (2, 4)), (3, 3): (17, (2, 4)),
}


@pytest.mark.parametrize("n, m", sorted(SMALLEST_ADMISSIBLE))
def test_unsafe_finite_never_exhausts_at_the_guard(n, m):
    # At most n*(m+1) nonzero scalars are bad for a correction, fewer than the
    # |K| - 1 candidates, so the scan succeeds even on the smallest fields.
    p, (q, k) = SMALLEST_ADMISSIBLE[n, m]
    rng = random.Random(83 * n + m)
    with recorded_corrections() as corrections:
        for field in (PrimeField(p), ExtensionField(q, k)):
            assert field.cardinality > n * (m + 2)
            for t in range(30):
                mats = [golden_matrix(rng, field, n, m, KINDS[t % 3]) for _ in range(m + 1)]
                verify_witness(mats, solve_unsafe_finite(mats))
    if n > 1 and m > 1:  # otherwise the column-pair and n == 1 cases need no correction
        assert corrections, "no instance reached the correction scan"
    for rec in corrections:
        assert_correction_invariants(rec)


def test_postcondition_checks_survive_optimize_flag():
    # A forced violation must raise even under python -O, which strips asserts.
    import os
    import subprocess
    import sys

    import glndep

    script = "\n".join([
        "import glndep.rational_solver as rs",
        "from glndep.errors import PostconditionError",
        "from glndep.rationals import RationalField",
        "from glndep.matrix import Matrix",
        "QQ = RationalField()",
        "weighted_sum = rs._weighted_sum",
        "rs._weighted_sum = lambda gs, ms: Matrix.identity(QQ, 1)",
        "try:",
        "    rs.solve_rational([Matrix.identity(QQ, 1), Matrix.identity(QQ, 1)])",
        "except PostconditionError as exc:",
        "    print('PostconditionError:', exc)",
        # The rows of each identity lie in the span of the others, so the
        # solver corrects; a step that returns the multipliers unchanged
        # leaves g_j singular.
        "rs._weighted_sum = weighted_sum",
        "rs.choose_correction_scalar = lambda gs, good, j, corrections: (gs, good)",
        "try:",
        "    rs.solve_rational([Matrix.identity(QQ, 2)] * 3)",
        "except PostconditionError as exc:",
        "    print('PostconditionError:', exc)",
    ])
    src = os.path.dirname(os.path.dirname(glndep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("PostconditionError:") for line in lines)
    assert "left it singular or lost an invertible multiplier" in lines[1]


# The post-conditions of rational_solver, by the text of their errors.check
# messages ({} for an interpolated value).  A change that drops or rewords one
# has to edit this list.
RATIONAL_SOLVER_CHECKS = [
    "the witness sum is nonzero",
    "the row-dependence multipliers do not sum to zero",
    "correcting index {} broke the witness sum",
    "row slice {}: {} vectors of length {} are independent",
    "span of the other rows has dimension {}, expected <= {}",
    "the lifted multipliers do not sum to zero",
    "correcting index {} left it singular or lost an invertible multiplier",
    "the coordinate columns are dependent",
    "the transform is singular or misses m2",
]


def _check_message(node):
    if isinstance(node, ast.Constant):
        return node.value
    return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)


def test_rational_solver_postconditions_are_pinned():
    tree = ast.parse(Path(rational_solver.__file__).read_text())
    found = [
        _check_message(node.args[1])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "check"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "errors"
    ]
    assert sorted(found) == sorted(RATIONAL_SOLVER_CHECKS)


def test_solver_does_not_revalidate_entries():
    # Entries are validated where they enter (Matrix constructors, JSON parsing);
    # the solver and its span solving pass canonical elements along.
    rng = random.Random(97)
    instances = [[golden_matrix(rng, QQ, n, m, "rank1") for _ in range(m + 1)] for n, m in [(2, 2), (3, 2), (3, 3)]]
    instances.append([Matrix.identity(QQ, 2)] * 3)

    def refuse(self, a):
        raise AssertionError("RationalField.vector or validate called")

    with mock.patch.object(RationalField, "vector", refuse), mock.patch.object(RationalField, "validate", refuse), \
            recorded_corrections() as records:
        for mats in instances:
            verify_witness(mats, solve_rational(mats))
    assert records, "no instance reached the correction step"


def test_unsafe_finite_rejects_rational_matrices():
    with pytest.raises(ValueError):
        solve_unsafe_finite([Matrix.identity(QQ, 1), Matrix.identity(QQ, 1)])


# randomized round trips and instrumentation

def test_random_round_trip_with_instrumentation():
    rng = random.Random(83)
    with recorded_corrections() as records:
        for _ in range(60):
            n = rng.choice([1, 2, 3])
            m = rng.choice([1, 2, 3])
            mats = [random_matrix(rng, QQ, n, m) for _ in range(m + 1)]
            witness = solve_rational(mats)
            verify_witness(mats, witness)
    for rec in records:
        assert_correction_invariants(rec)


# pinned witness bytes of the recursive algorithm

GOLDEN_RUNS = [
    (solve_rational, QQ, 1, 60),
    (solve_unsafe_finite, PrimeField(101), 2, 30),
    (solve_unsafe_finite, PrimeField(1009), 3, 30),
]


def test_golden_corrections_keep_their_level_invariants():
    # Some corrections of the pinned instances run inside a projection, on the
    # narrower matrices of their own recursion level; each is checked there.
    total = nested = 0
    for solve, field, seed, count in GOLDEN_RUNS:
        for mats in golden_instances(field, seed, count):
            with recorded_corrections() as records:
                verify_witness(mats, solve(mats))
            for rec in records:
                assert_correction_invariants(rec)
                nested += rec.matrices[0].cols < mats[0].cols
            total += len(records)
    assert (total, nested) == (122, 25)

def test_recursive_witness_bytes_are_pinned():
    # sha256 over the witness JSON of seeded instances, one line per witness;
    # a refactor of the recursive algorithm must leave every byte unchanged.
    h = hashlib.sha256()
    for solve, field, seed, count in GOLDEN_RUNS:
        for mats in golden_instances(field, seed, count):
            witness = solve(mats)
            verify_witness(mats, witness)
            h.update(json.dumps(witness_to_json(witness), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == "a6b3f25ce49414dc5bab338e4dfbec129a22263c19e5a518349c53c3c1e1aa86"
