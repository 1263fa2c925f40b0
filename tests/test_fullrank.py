"""Full-rank subspace construction: companion-matrix powers of an irreducible."""

import time
from itertools import product

import pytest

from conftest import scaled
from glndep import errors
from glndep.fields import ExtensionField, PrimeField, RationalField
from glndep.fullrank import (
    FullRankBasis,
    build_fullrank_basis,
    check_fullrank_basis,
    companion_matrix,
    fullrank_from_json,
    fullrank_to_json,
)
from glndep.matrix import Matrix, det, span_solve

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)


def test_gf2_n2_basis():
    fb = build_fullrank_basis(GF2, 2)
    assert fb.modulus == (1, 1, 1)
    assert fb.basis[0] == Matrix.identity(GF2, 2)
    assert fb.basis[1] == Matrix.from_rows(GF2, [[0, 1], [1, 1]])
    assert check_fullrank_basis(fb)


def test_gf2_n2_all_nonzero_combos_by_hand():
    # independent of check_fullrank_basis: enumerate the three nonzero combos
    fb = build_fullrank_basis(GF2, 2)
    i2, c = fb.basis
    combos = [i2, c, i2 + c]
    assert (i2 + c) == Matrix.from_rows(GF2, [[1, 1], [1, 0]])
    assert [det(m) for m in combos] == [1, 1, 1]


def test_gf2_n1_degenerate():
    fb = build_fullrank_basis(GF2, 1)
    assert fb.basis == (Matrix.from_rows(GF2, [[1]]),)
    assert check_fullrank_basis(fb)


def test_gf3_n2_modulus_is_first_irreducible():
    # counting order tries x^2 (has root 0), then x^2 + 1 (no roots mod 3)
    assert any(pow(r, 2, 3) == 0 for r in range(3))
    assert all((r * r + 1) % 3 != 0 for r in range(3))
    fb = build_fullrank_basis(GF3, 2)
    assert fb.modulus == (1, 0, 1)
    assert fb.basis[1] == Matrix.from_rows(GF3, [[0, 2], [1, 0]])
    assert check_fullrank_basis(fb)


def test_gf2_n3_exhaustive_det_check():
    fb = build_fullrank_basis(GF2, 3)
    assert check_fullrank_basis(fb)
    count = 0
    for coeffs in product([0, 1], repeat=3):
        if coeffs == (0, 0, 0):
            continue
        combo = Matrix.zero(GF2, 3, 3)
        for c, b in zip(coeffs, fb.basis):
            if c:
                combo = combo + b
        count += 1
        assert det(combo) == 1
    assert count == 7


def test_check_rejects_singular_member():
    bad = FullRankBasis(
        GF2, 2, (1, 1, 1), (Matrix.identity(GF2, 2), Matrix.from_rows(GF2, [[1, 0], [0, 0]]))
    )
    assert not check_fullrank_basis(bad)


@pytest.mark.parametrize("field,n", [(GF2, 2), (GF2, 3), (GF2, 4), (GF3, 2), (GF3, 3), (GF5, 2)])
def test_build_then_check(field, n):
    assert check_fullrank_basis(build_fullrank_basis(field, n))


def test_build_over_extension_base_field():
    gf4 = ExtensionField(2, 2)
    fb = build_fullrank_basis(gf4, 2)
    assert check_fullrank_basis(fb)


@pytest.mark.parametrize("field,n", [(GF2, 2), (GF2, 3), (GF3, 2)])
def test_span_closed_under_multiplication(field, n):
    fb = build_fullrank_basis(field, n)
    flat_basis = [tuple(e for row in b.entries for e in row) for b in fb.basis]
    for bs in fb.basis:
        for bt in fb.basis:
            flat = tuple(e for row in (bs * bt).entries for e in row)
            assert span_solve(field, flat, flat_basis) is not None


@pytest.mark.parametrize("field,n", [(GF2, 2), (GF2, 3), (GF3, 2), (GF5, 2)])
def test_companion_satisfies_its_modulus(field, n):
    fb = build_fullrank_basis(field, n)
    c = companion_matrix(field, fb.modulus)
    power = Matrix.identity(field, n)
    total = Matrix.zero(field, n, n)
    for coeff in fb.modulus:
        if coeff != field.zero:
            total = total + scaled(power, coeff)
        power = power * c
    assert total.is_zero()


def test_build_requires_finite_field():
    with pytest.raises(errors.InfiniteFieldError):
        build_fullrank_basis(RationalField(), 2)


def test_check_cap():
    fb = build_fullrank_basis(PrimeField(101), 3)  # 101^3 combinations exceed the cap of 10^6
    with pytest.raises(errors.TooLargeError):
        check_fullrank_basis(fb)


def test_fullrank_json_round_trip():
    for field, n in [(GF2, 3), (GF3, 2)]:
        fb = build_fullrank_basis(field, n)
        assert fullrank_from_json(fullrank_to_json(fb)) == fb


@pytest.mark.parametrize(
    "changes",
    [
        {"n": 0, "modulus": [], "basis": []},
        {"modulus": ["1", "1"]},
        {"modulus": "111"},
    ],
    ids=["n-zero", "modulus-too-short", "modulus-not-a-list"],
)
def test_fullrank_json_rejects_bad_n_or_modulus(changes):
    obj = fullrank_to_json(build_fullrank_basis(GF2, 2))
    obj.update(changes)
    with pytest.raises(errors.ParseError):
        fullrank_from_json(obj)


def test_fullrank_json_rejects_missing_key():
    obj = fullrank_to_json(build_fullrank_basis(GF2, 2))
    del obj["basis"]
    with pytest.raises(errors.ParseError):
        fullrank_from_json(obj)


def test_large_prime_field_bases_are_fast():
    # the modulus search is polynomial in log q: trial division took 42 s here
    start = time.perf_counter()
    for field, n in ((PrimeField(101), 6), (PrimeField(1009), 4)):
        assert build_fullrank_basis(field, n).n == n
    assert time.perf_counter() - start < 2.0
