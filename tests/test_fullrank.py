"""Full-rank subspace construction: multiplication by x^t in GF(q)[x]/(f), f irreducible."""

import hashlib
import json
import time
from itertools import product

import pytest

from conftest import scaled
from glndep import errors
from glndep.fields import ExtensionField, PrimeField, parse_field
from glndep.fullrank import (
    FullRankBasis,
    build_fullrank_basis,
    check_fullrank_basis,
    fullrank_from_json,
    fullrank_to_json,
)
from glndep.matrix import Matrix, det, span_solve
from glndep.rationals import RationalField

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)


def test_gf2_n2_basis():
    fb = build_fullrank_basis(GF2, 2)
    assert fb.modulus == (1, 1, 1)
    assert fb.basis[0] == Matrix.identity(GF2, 2)
    assert fb.basis[1] == Matrix.from_rows(GF2, [[0, 1], [1, 1]])
    assert check_fullrank_basis(fb)


# sha256 of fullrank_to_json's sorted-key JSON, computed when H was still
# spanned by the powers of the companion matrix of its modulus.
H_SHA256 = {
    ("prime:2", 1): "e5e32f9eac0f9a0ee2eae6f87e4426d32c792c239c684476543cd4ac6f9b4ce5",
    ("prime:2", 2): "7857f4ff7d5400c3d86b06352968ddd3f7f7997cc3ce88c8a489ebb32fd69752",
    ("prime:2", 3): "32a6597146cb1d37b608debef3951b863d68f575d257ef97a180a16c14465590",
    ("prime:2", 4): "91f6191659ff811197f5bb9a70fa1bcd2024dc590e44dd832cb6a9ec10136625",
    ("prime:2", 5): "62f0a74980a88fd4dec78bd94bc14d743ca0730e4fe861638190e82c737b929c",
    ("prime:2", 6): "4cc6a87dd30132e398b3e932172992de1716612ffb867eb6daba4212de4d0e60",
    ("prime:3", 1): "4fb5bdd1bf34f940c54d6db18be00ad2488f3bdcfa4052f82623f3165e9c3cb6",
    ("prime:3", 2): "81cee7921493c88363fd2dcd1d43f176e4dbcf9dc0b52623909138cef9e94f38",
    ("prime:3", 3): "1f96a6a9af3084fae984c1acb916de3b70b3d6920dd44ba23ed8304b6a1f5f17",
    ("prime:3", 4): "1142fe9737b16289147db09ed07b37e11e7bcdc7cd514f11826276eea7a9569b",
    ("prime:7", 4): "dca872491b5749f4bd392e5f5fd264701d039b86caec52ce57c7b62f14f716ad",
    ("prime:31", 6): "b352ae6b013475cc8f3b595ded36090a98d5dfdaa9081c7305df2fb8e315590c",
    ("ext:2:4", 2): "f7df5795689c341036c134f8a3dc85bf1d43e8be6958a6efeb0edec62f5e3e73",
    ("ext:2:4", 3): "ff3ab2985a724eefe6c5e7b19039dcad6217d546ab563e19e1d610a45df6e3c0",
    ("ext:2:4", 4): "74ac79008f5369b6cd7d897b86e7da1666a592ceb6e32db0a43532bb67defa27",
    ("ext:3:2", 3): "b08dd47ef8ea0a30d223deda2db42deff95776aa32a2be1943d2d7de5891e57d",
    ("ext:2:3", 5): "1a4fe82071f48445de8f5e67637f2a76d6a400f48cf28279e1f6ad34129d86ec",
}


@pytest.mark.parametrize("selector, n", list(H_SHA256))
def test_fullrank_basis_bytes_are_pinned(selector, n):
    basis = fullrank_to_json(build_fullrank_basis(parse_field(selector), n))
    digest = hashlib.sha256(json.dumps(basis, sort_keys=True).encode()).hexdigest()
    assert digest == H_SHA256[(selector, n)]


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
            assert span_solve(field, [flat], flat_basis) != [None]


@pytest.mark.parametrize("field,n", [(GF2, 2), (GF2, 3), (GF3, 2), (GF5, 2)])
def test_companion_satisfies_its_modulus(field, n):
    # basis[1] is multiplication by x, the companion matrix of the modulus f,
    # so f(basis[1]) is the zero matrix.
    fb = build_fullrank_basis(field, n)
    c = fb.basis[1]
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


def test_fullrank_json_quotes_a_huge_n_briefly():
    # The refusal used to print n + 1 whole: 1,500 digits.
    obj = fullrank_to_json(build_fullrank_basis(GF2, 2))
    obj["n"] = 10 ** 1499
    with pytest.raises(errors.ParseError) as info:
        fullrank_from_json(obj)
    assert len(str(info.value)) < 1024


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
