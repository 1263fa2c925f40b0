"""Brute-force oracle: GL enumeration, exhaustive witness search, theorem sweeps."""

import hashlib
import json
from itertools import product

import pytest

from glndep import errors
from glndep.certificate import Witness, verify_witness
from glndep.fields import ExtensionField, PrimeField
from glndep.matrix import Matrix, det
from glndep.oracle import (
    _gl_matrices,
    brute_force_witness,
    enumerate_gl,
    exhaustive_theorem_check,
    report_to_json,
)
from glndep.rationals import RationalField

GF2 = PrimeField(2)
GF3 = PrimeField(3)


def closed_form_gl_order(q, n):
    order = 1
    for t in range(n):
        order *= q ** n - q ** t
    return order


@pytest.mark.parametrize(
    "field,n,expected",
    [(GF2, 1, 1), (GF2, 2, 6), (GF3, 2, 48), (GF2, 3, 168)],
)
def test_gl_counts_match_closed_form(field, n, expected):
    enum = enumerate_gl(field, n)
    assert len(enum) == expected
    assert len(enum) == closed_form_gl_order(field.cardinality, n)


def test_gl_entries_are_invertible_and_distinct():
    enum = enumerate_gl(GF3, 2)
    assert len(set(enum)) == len(enum)
    assert all(det(m) != 0 for m in enum)


def test_gl_enumeration_cap():
    with pytest.raises(errors.TooLargeError):
        enumerate_gl(GF3, 2, cap=10)


def test_single_nonzero_matrix_has_no_witness():
    m = Matrix.from_rows(GF2, [[1], [0]])
    assert brute_force_witness([m]) is None


def test_single_zero_matrix_n1_gives_identity():
    witness = brute_force_witness([Matrix.zero(GF2, 1, 1)])
    assert witness is not None
    assert witness.entries[0] == Matrix.identity(GF2, 1)


def test_single_zero_matrix_n2_verifies():
    zero = Matrix.zero(GF2, 2, 2)
    witness = brute_force_witness([zero])
    assert witness is not None
    verify_witness([zero], witness)


def _reference_search(matrices):
    """Plain nested scan over (GL union {0})^k, the slow shape of the oracle."""
    field = matrices[0].field
    n = matrices[0].rows
    pool = (Matrix.zero(field, n, n),) + enumerate_gl(field, n)
    k = len(matrices)
    for combo in product(range(len(pool)), repeat=k):
        if all(i == 0 for i in combo):
            continue
        total = Matrix.zero(field, n, matrices[0].cols)
        for idx, m in zip(combo, matrices):
            total = total + pool[idx] * m
        if total.is_zero():
            return Witness(tuple(pool[i] for i in combo))
    return None


def test_oracle_agrees_with_reference_enumeration_gf2():
    columns = [Matrix(GF2, ((a,), (b,))) for a, b in product([0, 1], repeat=2)]
    for m1 in columns:
        for m2 in columns:
            fast = brute_force_witness([m1, m2])
            slow = _reference_search([m1, m2])
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast == slow  # same first tuple in lexicographic order


def test_oracle_agrees_with_reference_single_slot():
    for flat in product([0, 1], repeat=4):
        m = Matrix(GF2, (flat[:2], flat[2:]))
        fast = brute_force_witness([m])
        slow = _reference_search([m])
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast == slow


def test_oracle_agrees_with_reference_gf3_rows():
    rows = [Matrix.from_rows(GF3, [(a,)]) for a in range(3)]
    for m1 in rows:
        for m2 in rows:
            fast = brute_force_witness([m1, m2])
            slow = _reference_search([m1, m2])
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast == slow


def test_brute_force_mixed_inputs_raise_the_solvers_errors():
    # A field mismatch is a FieldMismatchError, as in the solvers; a shape mismatch stays a ShapeError.
    with pytest.raises(errors.FieldMismatchError):
        brute_force_witness([Matrix.identity(GF3, 1), Matrix.identity(PrimeField(5), 1)])
    with pytest.raises(errors.ShapeError):
        brute_force_witness([Matrix.identity(GF3, 1), Matrix.identity(GF3, 2)])


def test_brute_force_input_errors_come_in_a_fixed_order():
    # empty, then an infinite field, then mixed fields, then mixed shapes
    qq = RationalField()
    with pytest.raises(errors.ShapeError, match="at least one matrix"):
        brute_force_witness([])
    with pytest.raises(errors.InfiniteFieldError):
        brute_force_witness([Matrix.identity(qq, 1), Matrix.identity(GF3, 2)])
    with pytest.raises(errors.FieldMismatchError):
        brute_force_witness([Matrix.identity(GF3, 1), Matrix.identity(PrimeField(5), 2)])
    with pytest.raises(errors.ShapeError, match="mixed shapes"):
        brute_force_witness([Matrix.identity(GF3, 1), Matrix.identity(GF3, 2), Matrix.identity(qq, 1)])


def test_brute_force_cap():
    mats = [Matrix.identity(GF3, 2)] * 3
    with pytest.raises(errors.TooLargeError):
        brute_force_witness(mats, cap=100)


@pytest.mark.parametrize("p", [3, 5])
def test_brute_force_refuses_before_enumerating_gl(p):
    # 1 + |GL(3, p)| candidates per slot; three slots exceed the default cap,
    # while p^9 candidate matrices alone would not.
    field = PrimeField(p)
    mats = [Matrix.from_rows(field, [[1], [0], [0]])] * 3
    before = _gl_matrices.cache_info()
    with pytest.raises(errors.TooLargeError, match="candidate tuples"):
        brute_force_witness(mats)
    assert _gl_matrices.cache_info() == before


# sha256 of report_to_json's sorted-key JSON, computed before the sweep
# shared one product table between its instances.
SWEEP_REPORT_SHA256 = {
    (2, 1, 2): "6d341d2604d887d6270f350bcb7ddd0efbec7029faeba3dcd768bc9228e13a2c",
    (3, 1, 2): "37f360f6987cb9b11126d04de5a32b7be5583ed4189494bf54dd157b8041979f",
    (2, 2, 1): "5af24b1d142c04c6bf342c50b43a00891f4c6d57b8a9843aaa839adfbac2e1b8",
}


@pytest.mark.parametrize("q, n, m", sorted(SWEEP_REPORT_SHA256))
def test_sweep_report_bytes_are_pinned(q, n, m):
    report = report_to_json(exhaustive_theorem_check(PrimeField(q), n, m))
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == SWEEP_REPORT_SHA256[(q, n, m)]


def test_theorem_sweep_keeps_the_tuple_cap():
    # 1 + |GL(4, 2)| = 20,161 candidates per slot, squared, exceed the cap
    # although the 256 instances and the 2^16 candidate matrices do not.
    with pytest.raises(errors.TooLargeError, match="candidate tuples"):
        exhaustive_theorem_check(GF2, 4, 1)


def test_theorem_sweep_tiny():
    report = exhaustive_theorem_check(GF2, 1, 1)
    assert report.instances == 4
    assert report.all_have_witness
    assert report.solver_agrees
    assert report.failures == ()


def test_theorem_sweep_gf2_n2_m1():
    report = exhaustive_theorem_check(GF2, 2, 1)
    assert report.instances == 16
    assert report.all_have_witness and report.solver_agrees


def test_theorem_sweep_cap():
    with pytest.raises(errors.TooLargeError):
        exhaustive_theorem_check(GF2, 2, 2, cap=100)


@pytest.mark.parametrize("n, m", [(1, 0), (0, 1), (-1, 2), (2, -3)])
def test_theorem_sweep_refuses_empty_shapes(n, m):
    with pytest.raises(ValueError, match="must be an int >= 1"):
        exhaustive_theorem_check(GF2, n, m)


def test_theorem_sweep_cap_is_checked_without_the_power():
    # 2^(n*m*(m+1)) for n = m = 10^12 has 10^36 bits; the check stops past the cap.
    with pytest.raises(errors.TooLargeError, match="instances exceed the cap"):
        exhaustive_theorem_check(GF2, 10 ** 12, 10 ** 12)


def test_report_json_shape():
    report = exhaustive_theorem_check(GF2, 1, 1)
    obj = report_to_json(report)
    assert obj["instances"] == 4
    assert obj["all_have_witness"] is True
    assert obj["failures"] == []


def test_oracle_over_extension_field():
    gf4 = ExtensionField(2, 2)
    m1 = Matrix.from_rows(gf4, [[(1, 0)]])
    m2 = Matrix.from_rows(gf4, [[(0, 1)]])
    witness = brute_force_witness([m1, m2])
    assert witness is not None
    verify_witness([m1, m2], witness)


def test_theorem_sweep_over_extension_field():
    gf4 = ExtensionField(2, 2)
    report = exhaustive_theorem_check(gf4, 1, 1)
    assert report.instances == 16
    assert report.all_have_witness and report.solver_agrees
