"""Kernel-method solver over finite fields, checked against the brute-force oracle."""

import hashlib
import json
import random
from itertools import product

import pytest

from conftest import golden_instances, random_matrix
from glndep import errors
from glndep.certificate import TAG_INVERTIBLE, verify_witness, witness_to_json
from glndep.fields import ExtensionField, PrimeField
from glndep.fullrank import build_fullrank_basis
from glndep.matrix import Matrix, span_solve
from glndep.oracle import brute_force_witness
from glndep.finite_solver import solve_finite

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = ExtensionField(2, 2)


def test_distinct_unit_columns_gf2():
    m1 = Matrix.from_rows(GF2, [[1], [0]])
    m2 = Matrix.from_rows(GF2, [[0], [1]])
    assert brute_force_witness([m1, m2]) is not None
    witness = solve_finite([m1, m2])
    verify_witness([m1, m2], witness)
    # no invertible g can annihilate a nonzero column, so both slots are invertible
    assert witness.tags == (TAG_INVERTIBLE, TAG_INVERTIBLE)
    assert witness.entries[0] * m1 == witness.entries[1] * m2


def test_equal_columns_characteristic_two():
    m = Matrix.from_rows(GF2, [[1], [0]])
    witness = solve_finite([m, m])
    verify_witness([m, m], witness)


def test_three_row_vectors_n1():
    mats = [Matrix.from_rows(GF2, [r]) for r in [(1, 0), (0, 1), (1, 1)]]
    witness = solve_finite(mats)
    verify_witness(mats, witness)
    assert [g.entries[0][0] for g in witness.entries] == [1, 1, 1]
    assert witness.tags == (TAG_INVERTIBLE,) * 3


@pytest.mark.parametrize("field", [GF2, GF3, GF4])
def test_random_round_trip(field):
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        mats = [random_matrix(rng, field, n, m) for _ in range(m + 1)]
        witness = solve_finite(mats)
        verify_witness(mats, witness)


def test_exhaustive_pairs_gf2_n2_m1():
    columns = [Matrix(GF2, ((a,), (b,))) for a, b in product([0, 1], repeat=2)]
    for m1 in columns:
        for m2 in columns:
            witness = solve_finite([m1, m2])
            verify_witness([m1, m2], witness)
            assert brute_force_witness([m1, m2]) is not None


def test_multipliers_lie_in_the_subspace():
    rng = random.Random(43)
    basis = build_fullrank_basis(GF3, 2)
    flat_basis = [tuple(e for row in b.entries for e in row) for b in basis.basis]
    for _ in range(15):
        mats = [random_matrix(rng, GF3, 2, 2) for _ in range(3)]
        witness = solve_finite(mats)
        verify_witness(mats, witness)
        for g in witness.entries:
            flat = tuple(e for row in g.entries for e in row)
            assert span_solve(GF3, flat, flat_basis) is not None


def test_extra_matrices_get_zero_multipliers():
    rng = random.Random(47)
    mats = [random_matrix(rng, GF2, 2, 1) for _ in range(5)]
    witness = solve_finite(mats)
    verify_witness(mats, witness)
    assert witness.tags[2:] == ("zero", "zero", "zero")


def test_too_few_matrices():
    with pytest.raises(errors.TooFewMatricesError):
        solve_finite([Matrix.identity(GF2, 2)])


def test_rejects_infinite_field():
    from glndep.fields import RationalField

    qq = RationalField()
    with pytest.raises(errors.InfiniteFieldError):
        solve_finite([Matrix.identity(qq, 2), Matrix.identity(qq, 2), Matrix.identity(qq, 2)])


def test_instance_validation():
    mixed = [Matrix.identity(GF2, 2), Matrix.identity(GF3, 2), Matrix.identity(GF2, 2)]
    with pytest.raises(errors.FieldMismatchError):
        solve_finite(mixed)


def test_validates_matrices_beyond_the_first_m_plus_one():
    # the extra matrices get the zero multiplier, but must still share the
    # field and shape of the first ones
    ms = [Matrix.identity(GF2, 2)] * 3
    with pytest.raises(errors.FieldMismatchError):
        solve_finite(ms + [Matrix.identity(GF3, 2)])
    with pytest.raises(errors.ShapeError):
        solve_finite(ms + [Matrix.identity(GF2, 3)])


def test_deterministic_output():
    rng = random.Random(59)
    mats = [random_matrix(rng, GF3, 2, 2) for _ in range(3)]
    assert solve_finite(mats) == solve_finite(mats)


def test_finite_witness_bytes_are_pinned():
    # sha256 over the witness JSON of seeded instances, one line per witness;
    # a refactor of the kernel method must leave every byte unchanged.
    runs = [(GF2, 1), (GF3, 2), (GF4, 3), (PrimeField(31), 4), (ExtensionField(2, 3), 5)]
    h = hashlib.sha256()
    for field, seed in runs:
        for mats in golden_instances(field, seed, 30):
            witness = solve_finite(mats)
            verify_witness(mats, witness)
            h.update(json.dumps(witness_to_json(witness), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == "516edc742bc5a3c424832bbb5739eb94bb78e043cccda60f9a80f37fbfd157a1"
