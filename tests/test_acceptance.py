"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria, in order: exhaustive dependence certification over small finite
fields; full-rank subspace construction checks; rational-solver round trips;
correction-loop invariants; GL(n, q) enumeration counts; row-equivalence
transform round trips; subspace-form properties; matrix/subspace equivalence;
and the exact-arithmetic guard.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from conftest import assert_correction_invariants, random_element, random_invertible, random_matrix, recorded_corrections
from glndep.certificate import verify_witness
from glndep.fields import ExtensionField, PrimeField, field_from_order
from glndep.finite_solver import solve_finite
from glndep.fullrank import build_fullrank_basis, check_fullrank_basis
from glndep.matrix import Matrix, det, rref
from glndep.oracle import brute_force_witness, enumerate_gl, exhaustive_theorem_check
from glndep.rational_solver import find_gl_transform, solve_rational
from glndep.rationals import RationalField
from glndep.subspaces import (
    FLAG_FULL,
    FLAG_ZERO,
    Subspace,
    SubspaceVerificationError,
    SubspaceWitness,
    solve_subspace_dependence,
    verify_subspace_witness,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)
QQ = RationalField()


# criterion 3 and 4 share one instrumented sweep

@pytest.fixture(scope="module")
def rational_suite():
    rng = random.Random(20260808)
    runs = []
    t0 = time.perf_counter()
    for _ in range(500):
        n = rng.choice([1, 2, 3])
        m = rng.choice([1, 2, 3, 4])
        mats = [
            Matrix.from_rows(QQ, [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)])
            for _ in range(m + 1)
        ]
        with recorded_corrections() as records:
            witness = solve_rational(mats)
        verify_witness(mats, witness)
        runs.append((mats, witness, records))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_1_exhaustive_theorem_certification():
    budgets = {(2, 2, 2): 10.0}
    for q, n, m in [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 2, 1)]:
        field = field_from_order(q)
        start = time.perf_counter()
        report = exhaustive_theorem_check(field, n, m)
        elapsed = time.perf_counter() - start
        assert report.all_have_witness, f"missing witness at (q={q}, n={n}, m={m})"
        assert report.solver_agrees, f"solver failure at (q={q}, n={n}, m={m})"
        assert report.instances == q ** (n * m * (m + 1))
        assert elapsed < budgets.get((q, n, m), 2.0), f"(q={q}, n={n}, m={m}) took {elapsed:.2f}s"
    print("CRITERION 1 PASS: every instance certified for all six (q, n, m) shapes")


def test_criterion_2_fullrank_subspaces():
    start = time.perf_counter()
    for q, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
        field = field_from_order(q)
        assert check_fullrank_basis(build_fullrank_basis(field, n)), f"(q={q}, n={n})"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"full-rank checks took {elapsed:.2f}s"
    print("CRITERION 2 PASS: all nonzero combinations invertible for the six (q, n) pairs")


def test_criterion_3_rational_round_trip(rational_suite):
    runs, elapsed = rational_suite
    assert len(runs) == 500
    assert elapsed < 30.0, f"500 instances took {elapsed:.2f}s"
    print(f"CRITERION 3 PASS: 500/500 rational witnesses verified in {elapsed:.2f}s")


def test_criterion_4_correction_loop_invariants(rational_suite):
    runs, _ = rational_suite
    corrections = 0
    for _mats, _witness, records in runs:
        for rec in records:
            corrections += 1
            assert_correction_invariants(rec)
    print(f"CRITERION 4 PASS: zero violations across {corrections} corrections")


def test_criterion_5_gl_counts():
    expected = {(2, 1): 1, (2, 2): 6, (3, 2): 48, (2, 3): 168}
    for (q, n), count in expected.items():
        enum = enumerate_gl(field_from_order(q), n)
        assert len(enum) == count
        closed_form = 1
        for t in range(n):
            closed_form *= q ** n - q ** t
        assert len(enum) == closed_form
    print("CRITERION 5 PASS: GL(n, q) enumeration counts 1, 6, 48, 168 match the closed form")


def test_criterion_6_row_equivalence_round_trip():
    accepted = 0
    rejected = 0
    for field in (GF3, QQ):
        rng = random.Random(606)
        for _ in range(200):
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            matrix = random_matrix(rng, field, n, m)
            g = random_invertible(rng, field, n)
            h = find_gl_transform(matrix, g * matrix)
            assert h is not None
            assert det(h) != field.zero
            assert h * matrix == g * matrix
            accepted += 1
        field_rejections = 0
        while field_rejections < 200:
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            m1 = random_matrix(rng, field, n, m)
            m2 = random_matrix(rng, field, n, m)
            s1 = Subspace.from_vectors(field, m, m1.entries)
            if s1 == Subspace.from_vectors(field, m, m2.entries):
                continue
            assert find_gl_transform(m1, m2) is None
            field_rejections += 1
        rejected += field_rejections
    assert accepted == 400 and rejected == 400
    print("CRITERION 6 PASS: 400 transform round trips and 400 verified rejections")


def _gf2_vectors(m):
    return [v for v in product([0, 1], repeat=m)]


def test_criterion_7_subspace_properties():
    # ordinary linear dependence agrees with the n = 1 subspace decision,
    # exhaustively over all families of lines in GF(2)^m for m <= 3
    checked = 0
    for m in (1, 2, 3):
        lines = [Subspace.from_vectors(GF2, m, [v]) for v in _gf2_vectors(m) if any(v)]
        for k in range(1, m + 2):
            for family in product(lines, repeat=k):
                generators = Matrix.from_rows(GF2, [L.basis[0] for L in family])
                ordinary = rref(generators).rank < k
                witness = solve_subspace_dependence(list(family), 1)
                if witness is not None:
                    verify_subspace_witness(list(family), witness)
                assert (witness is not None) == ordinary
                checked += 1

    # m independent lines stay independent for every multiplier size
    for m in (2, 3):
        axes = [
            Subspace.from_vectors(GF2, m, [tuple(1 if i == j else 0 for i in range(m))])
            for j in range(m)
        ]
        for n in (1, 2):
            assert solve_subspace_dependence(axes, n) is None

    # a full flag on a subspace of dimension > n can never verify
    plane = Subspace.from_vectors(GF2, 3, [(1, 0, 0), (0, 1, 0)])
    plane_members = [
        tuple(GF2.add(GF2.mul(a, plane.basis[0][i]), GF2.mul(b, plane.basis[1][i])) for i in range(3))
        for a in (0, 1)
        for b in (0, 1)
    ]
    for x in plane_members:
        claimed = SubspaceWitness(GF2, 3, 1, ((x,),), (FLAG_FULL,))
        with pytest.raises(SubspaceVerificationError):
            verify_subspace_witness([plane], claimed)
    print(f"CRITERION 7 PASS: subspace-form properties hold ({checked} line families checked)")


def _subspace_options(space, n):
    """All valid vector groups for one subspace: the zero group, plus every
    n-tuple of members whose span is exactly the subspace."""
    field = space.field
    m = space.ambient
    members = []
    for coeffs in product([0, 1], repeat=space.dim):
        vec = (field.zero,) * m
        for c, row in zip(coeffs, space.basis):
            if c:
                vec = tuple(field.add(a, b) for a, b in zip(vec, row))
        members.append(vec)
    options = [(((field.zero,) * m,) * n, FLAG_ZERO)]
    for group in product(members, repeat=n):
        if Subspace.from_vectors(field, m, group) == space:
            options.append((group, FLAG_FULL))
    return options


def _definition_witness_exists(family, n):
    """Exhaustive scan straight from the definition of subspace dependence."""
    option_lists = [_subspace_options(space, n) for space in family]
    m = family[0].ambient
    zero = family[0].field.zero
    add = family[0].field.add
    for choice in product(*option_lists):
        if all(flag == FLAG_ZERO for _, flag in choice):
            continue
        ok = True
        for j in range(n):
            total = (zero,) * m
            for group, _ in choice:
                total = tuple(add(a, b) for a, b in zip(total, group[j]))
            if any(e != zero for e in total):
                ok = False
                break
        if ok:
            return True
    return False


def test_criterion_8_matrix_subspace_equivalence():
    checked = 0
    for m in (1, 2):
        all_mats = [
            Matrix(GF2, tuple(flat[r * m : (r + 1) * m] for r in range(2)))
            for flat in product([0, 1], repeat=2 * m)
        ]
        subspace_decisions = {}
        for k in range(1, m + 2):
            for combo in product(all_mats, repeat=k):
                matrix_side = brute_force_witness(list(combo)) is not None
                family = tuple(Subspace.from_vectors(M.field, M.cols, M.entries) for M in combo)
                if family not in subspace_decisions:
                    subspace_decisions[family] = _definition_witness_exists(list(family), 2)
                assert matrix_side == subspace_decisions[family], f"disagreement at {combo}"
                checked += 1
    print(f"CRITERION 8 PASS: exact matrix/subspace agreement on {checked} instances")


def test_criterion_9_exact_arithmetic_guard():
    fields = [GF2, PrimeField(7), ExtensionField(2, 2), ExtensionField(3, 2), QQ]
    rng = random.Random(909)
    checked = 0
    for field in fields:
        for _ in range(500):
            a = random_element(rng, field)
            b = random_element(rng, field)
            results = [field.add(a, b), field.sub(a, b), field.mul(a, b), field.neg(a)]
            if b != field.zero:
                results.append(field.inv(b))
                results.append(field.mul(a, field.inv(b)))
            for value in results:
                field.validate(value)  # raises on any non-canonical result
                checked += 1
    # structure constructors fail fast on non-canonical input
    with pytest.raises(ValueError):
        Matrix.from_rows(GF3, [[3]])
    with pytest.raises(TypeError):
        Matrix.from_rows(QQ, [[0.25]])
    with pytest.raises(TypeError):
        Matrix.from_rows(ExtensionField(2, 2), [[1]])
    rng2 = random.Random(910)
    for field in fields:
        mats = [random_matrix(rng2, field, 2, 1) for _ in range(2)]
        witness = solve_finite(mats) if field.is_finite else solve_rational(mats)
        for g in witness.entries:
            for row in g.entries:
                for e in row:
                    field.validate(e)
                    checked += 1
    print(f"CRITERION 9 PASS: {checked} values checked canonical, constructors fail fast")
