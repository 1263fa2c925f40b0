"""Field arithmetic: construction, canonical forms, axioms, and JSON encoding."""

import ast
import math
import random
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glndep import errors, fields
from glndep.fields import (
    _monic_polynomials,
    _poly_mod,
    ExtensionField,
    PrimeField,
    field_from_json,
    field_from_order,
    field_to_json,
    find_irreducible,
    is_irreducible,
    parse_field,
)
from glndep.matrix import Matrix
from glndep.rationals import RationalField

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF7 = PrimeField(7)
GF4 = ExtensionField(2, 2)
GF9 = ExtensionField(3, 2)
QQ = RationalField()


# construction

def test_prime_field_basic():
    assert GF7.p == 7
    assert GF7.cardinality == 7
    assert GF7.zero == 0 and GF7.one == 1


def test_prime_field_rejects_composite():
    with pytest.raises(errors.NotPrimeError):
        PrimeField(4)
    with pytest.raises(errors.NotPrimeError):
        PrimeField(1)
    with pytest.raises(errors.NotPrimeError):
        PrimeField(0)


def test_prime_field_rejects_huge_modulus():
    with pytest.raises(ValueError):
        PrimeField(2305843009213693951)  # a Mersenne prime, but over the size cap


def test_extension_default_modulus_gf4():
    # x^2 + x + 1 is the only monic irreducible quadratic over GF(2)
    assert GF4.modulus == (1, 1, 1)
    assert GF4.cardinality == 4


def test_extension_default_modulus_gf9():
    # counting order enumerates x^2 (divisible by x), then x^2 + 1 (no roots)
    assert GF9.modulus == (1, 0, 1)


def test_extension_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        ExtensionField(2, 2, [1, 0, 1])  # x^2 + 1 == (x+1)^2 over GF(2)


def test_extension_rejects_degree_one():
    with pytest.raises(ValueError):
        ExtensionField(2, 1)


def test_rational_field_is_infinite():
    assert QQ.cardinality is None
    assert not QQ.is_finite
    with pytest.raises(errors.InfiniteFieldError):
        list(QQ.elements())


# arithmetic examples

def test_gf2_inverse_of_one():
    assert GF2.inv(1) == 1


def test_gf4_x_times_x():
    x = (0, 1)
    assert GF4.mul(x, x) == (1, 1)  # x^2 reduces to x + 1


def test_rational_add():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


@pytest.mark.parametrize("field", [GF2, GF7, GF4, QQ])
def test_division_by_zero(field):
    with pytest.raises(ZeroDivisionError):
        field.inv(field.zero)


def test_sub_and_div_agree_with_definitions():
    assert GF7.sub(2, 5) == 4


# irreducibility

def test_irreducible_examples():
    assert is_irreducible(GF2, [1, 1, 1])  # x^2 + x + 1
    assert not is_irreducible(GF2, [1, 0, 1])  # x^2 + 1 = (x + 1)^2
    assert is_irreducible(GF3, [1, 0, 1])  # x^2 + 1 has no roots mod 3


def test_find_irreducible_counting_order():
    assert find_irreducible(GF2, 2) == (1, 1, 1)
    assert find_irreducible(GF3, 2) == (1, 0, 1)
    assert find_irreducible(GF2, 3) == (1, 1, 0, 1)
    assert find_irreducible(GF2, 4) == (1, 1, 0, 0, 1)
    # found by trial division; far into the counting order for these q
    assert find_irreducible(PrimeField(31), 6) == (5, 0, 0, 0, 0, 0, 1)
    assert find_irreducible(PrimeField(101), 6) == (3, 1, 0, 0, 0, 0, 1)
    assert find_irreducible(PrimeField(1009), 4) == (11, 0, 0, 0, 1)
    assert ExtensionField(2, 16).modulus == (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)


def test_is_irreducible_requires_monic():
    with pytest.raises(ValueError):
        is_irreducible(GF3, [1, 2])  # leading coefficient 2


_PRIME_POWERS_TO_32 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


def test_skipping_the_binomials_keeps_the_first_irreducible():
    # find_irreducible starts after the q binomials x^n + c when none of them
    # can be irreducible; the plain scan from x^n must find the same polynomial.
    checked = 0
    for q in _PRIME_POWERS_TO_32:
        field = field_from_order(q)
        for n in range(1, 7):
            if q ** n > 3 * 10 ** 5:
                continue
            plain = next(tuple(c) for c in _monic_polynomials(field, n, 0) if is_irreducible(field, c))
            assert find_irreducible(field, n) == plain, (q, n)
            checked += 1
    assert checked == 81


def test_the_root_sieve_keeps_the_first_irreducible():
    # Over a field of at most 256 elements find_irreducible runs Ben-Or only on
    # candidates without a root; the plain scan from x^n must agree with it.
    checked = 0
    for q in range(2, 257):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        if p ** round(math.log(q, p)) != q:
            continue
        field = field_from_order(q)
        for n in (1, 2, 3, 4):
            if n == 4 and q ** n > 2 * 10 ** 6:
                continue
            plain = next(tuple(c) for c in _monic_polynomials(field, n, 0) if is_irreducible(field, c))
            assert find_irreducible(field, n) == plain, (q, n)
            checked += 1
    # 54 primes and 16 higher prime powers up to 256, and the 19 up to 37 for n = 4
    assert checked == 3 * 70 + 19


def test_the_unsieved_scan_keeps_the_first_irreducible():
    # Over a field of more than 256 elements the scan tests every candidate
    # from its start on; the plain scan from x^n must agree with it.  Over
    # GF(7^3), n = 7, the jump to x^p - x + c is not taken: x^7 + 3x + c
    # comes first and holds the first irreducible.
    for q, n in ((2 ** 9, 2), (2 ** 10, 2), (17 ** 2, 2), (19 ** 2, 2), (3 ** 7, 3), (7 ** 3, 7)):
        field = field_from_order(q)
        plain = next(tuple(c) for c in _monic_polynomials(field, n, 0) if is_irreducible(field, c))
        assert find_irreducible(field, n) == plain, (q, n)


@pytest.mark.parametrize("q", [4, 16, 64])
def test_every_x4_plus_bx_plus_c_is_reducible_when_3_divides_q_minus_1(q):
    # find_irreducible skips these q^2 candidates for n = 4 over GF(2^k), k even.
    field = field_from_order(q)
    skipped = list(islice(_monic_polynomials(field, 4, 0), q * q))
    assert all(c[2] == c[3] == field.zero for c in skipped)
    assert not any(is_irreducible(field, c) for c in skipped)


@pytest.mark.parametrize("q", [9, 25, 81])
def test_every_x2_minus_a_with_a_in_the_prime_field_splits_when_k_is_even(q):
    # find_irreducible skips these first p candidates for n = 2 over GF(p^k), k even.
    field = field_from_order(q)
    p = field.p
    skipped = list(islice(_monic_polynomials(field, 2, 0), p))
    assert [c[0] for c in skipped] == [field.element_from_index(a) for a in range(p)]
    assert not any(is_irreducible(field, c) for c in skipped)


@pytest.mark.parametrize("q", [3, 27, 243])
def test_every_x3_plus_x_plus_c_is_reducible_when_k_is_odd(q):
    # find_irreducible skips this block of q candidates for n = 3 over GF(3^k), k odd.
    field = field_from_order(q)
    block = list(islice(_monic_polynomials(field, 3, q), q))
    assert all(c[1] == field.one and c[2] == field.zero for c in block)
    assert not any(is_irreducible(field, c) for c in block)


def _trace(field, a):
    """a + a^p + ... + a^(p^(k-1)), the absolute trace of a, by Frobenius powers."""
    total, y = field.zero, a
    for _ in range(field.k):
        total = field.add(total, y)
        z = field.one
        for _ in range(field.p):
            z = field.mul(z, y)
        y = z
    return total


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (2, 10), (2, 40), (3, 3), (3, 9), (3, 31), (5, 5), (7, 14)])
def test_first_traced_power_matches_the_frobenius_trace(p, k):
    field = ExtensionField(p, k)
    j = fields._first_traced_power(field)
    powers = [field.element_from_index(p ** i) for i in range(j + 1)]  # a^i is the unit vector e_i
    assert [_trace(field, a) != field.zero for a in powers] == [False] * j + [True]


@pytest.mark.parametrize("q", [2, 4, 8, 16, 3, 27])
def test_x_to_the_p_minus_x_plus_c_is_irreducible_just_when_the_trace_is_nonzero(q):
    # Artin-Schreier, the criterion behind the jump for n = p.
    field = field_from_order(q)
    p = field.p
    for v in range(q):
        c = field.element_from_index(v)
        f = next(_monic_polynomials(field, p, (p - 1) * q + v))
        assert f[0] == c and f[1] == field.neg(field.one)
        trace = _trace(field, c) if isinstance(field, ExtensionField) else c
        assert is_irreducible(field, f) == (trace != field.zero), (q, v)


def test_degree_one_search_returns_x():
    # x has the root 0 but is irreducible; the sieve is for degrees >= 2.
    for field in (GF2, GF7, GF4, ExtensionField(2, 8)):
        assert find_irreducible(field, 1) == (field.zero, field.one)


def test_the_gf256_degree_four_modulus_is_pinned():
    # Found by the unsieved counting-order scan, which ran Ben-Or's test on
    # 65,801 candidates; the sieve from x^4 on tested 16,449.
    e = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    zero = (0,) * 8
    assert find_irreducible(ExtensionField(2, 8), 4) == (e[3], e[1], e[0], zero, e[0])


def test_the_sieve_runs_few_ben_or_tests(monkeypatch):
    # The unsieved scan tested 277 candidates of degree 4 over GF(2^4), and
    # the sieve from x^4 on 69; over GF(2^8) the sieve from x^4 on tested 16,449.
    gf16, gf256 = ExtensionField(2, 4), ExtensionField(2, 8)
    calls = []
    test = fields.is_irreducible
    monkeypatch.setattr(
        fields, "is_irreducible", lambda field, coeffs, **kw: calls.append(coeffs) or test(field, coeffs, **kw)
    )
    assert find_irreducible(gf16, 4) == ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0))
    assert len(calls) <= 9
    calls.clear()
    find_irreducible(gf256, 4)
    assert len(calls) <= 129


def test_a_search_past_the_binomials_is_quick():
    # No x^3 + c is irreducible over GF(65537), as 3 does not divide 65536;
    # scanning all 65537 of them took 7.5 s.
    start = time.perf_counter()
    assert find_irreducible(PrimeField(65537), 3) == (4, 1, 0, 1)
    assert time.perf_counter() - start < 1.0


def test_irreducibility_over_qq_needs_a_finite_field():
    assert is_irreducible(QQ, [Fraction(3), Fraction(1)])  # degree 1 needs no search
    with pytest.raises(errors.InfiniteFieldError):
        is_irreducible(QQ, [Fraction(1), Fraction(0), Fraction(1)])
    with pytest.raises(errors.InfiniteFieldError):
        find_irreducible(QQ, 2)


def _trial_division_irreducible(field, coeffs):
    """Reference test: no monic polynomial of degree 1..deg/2 divides f."""
    deg = len(coeffs) - 1
    return all(_poly_mod(field, coeffs, g) for e in range(1, deg // 2 + 1) for g in _monic_polynomials(field, e, 0))


def _has_root(field, coeffs):
    for a in field.elements():
        value = field.zero
        for c in reversed(coeffs):
            value = field.add(field.mul(value, a), c)
        if value == field.zero:
            return True
    return False


@pytest.mark.parametrize("field,max_degree", [(GF2, 8), (GF3, 5), (GF4, 3)])
def test_irreducibility_agrees_with_trial_division(field, max_degree):
    checked = rootless = 0
    for degree in range(1, max_degree + 1):
        for f in _monic_polynomials(field, degree, 0):
            expected = _trial_division_irreducible(field, f)
            assert is_irreducible(field, f) == expected, f
            checked += 1
            # rootless=True is the caller's claim; it holds here, so the answer must too.
            if not _has_root(field, f):
                assert is_irreducible(field, f, rootless=True) == expected, f
                rootless += 1
    assert checked == sum(field.cardinality ** d for d in range(1, max_degree + 1))
    assert rootless > 0


# enumeration

def test_enumerate_prime_fields():
    assert list(GF2.elements()) == [0, 1]
    assert list(GF3.elements()) == [0, 1, 2]


def test_enumerate_gf4_order():
    assert list(GF4.elements()) == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_enumeration_starts_at_zero():
    for field in (GF2, GF3, GF4, GF9):
        assert next(iter(field.elements())) == field.zero


# canonical-form validation

def test_prime_validate_rejects_out_of_range():
    with pytest.raises(ValueError):
        GF3.validate(3)
    with pytest.raises(ValueError):
        GF3.validate(-1)
    with pytest.raises(TypeError):
        GF3.validate(1.0)
    with pytest.raises(TypeError):
        GF3.validate(True)


def test_extension_validate_rejects_bad_tuples():
    with pytest.raises(TypeError):
        GF4.validate((0,))
    with pytest.raises(ValueError):
        GF4.validate((2, 0))


def test_rational_validate_requires_fraction():
    QQ.validate(Fraction(-3, 7))
    with pytest.raises(TypeError):
        QQ.validate(0.5)
    with pytest.raises(TypeError):
        QQ.validate(1)


GF16 = ExtensionField(2, 4)


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: Matrix.from_rows(GF16, [[(0,) * 300_000]]), TypeError, "GF(2^4) element must be a 4-sequence"),
        (lambda: GF16.validate((0,) * 300_000), TypeError, "GF(2^4) element must be a 4-tuple"),
        (lambda: GF16.validate((10 ** 5000, 0, 0, 0)), ValueError, "non-canonical GF(2^4) element"),
        (lambda: GF16.vector([[0] * 300_000]), TypeError, "GF(2^4) element must be a 4-sequence"),
        (lambda: Matrix.from_rows(QQ, [[[0] * 300_000]]), TypeError, "rational element must be an int or Fraction"),
        (lambda: GF7.validate(10 ** 5000), ValueError, "non-canonical GF(7) element"),
    ],
    ids=["ext-from-rows", "ext-validate-length", "ext-validate-huge-int", "ext-element", "qq-from-rows", "prime-validate"],
)
def test_element_errors_quote_values_briefly(build, error, message):
    # The messages quoted the whole value: 900,054 characters for the
    # GF(2^4) row, 2,288,939 for the QQ one.
    with pytest.raises(error) as info:
        build()
    assert str(info.value).startswith(message)
    assert len(str(info.value).encode()) < 1024


def test_huge_ints_are_described_by_their_size():
    # repr refuses an int of over 4,300 digits, which turned these messages
    # into the interpreter's ValueError.
    assert errors._excerpt(10 ** 5000) == "<int of 16,610 bits>"
    assert errors._excerpt([1, -(10 ** 5000)]) == "[1, <int of 16,610 bits>]"
    with pytest.raises(errors.TooLargeError, match="GF\\(2\\^<int of 16,610 bits>\\) is larger than the cap"):
        ExtensionField(2, 10 ** 5000)
    with pytest.raises(ValueError, match="prime modulus must be < 2\\^31, got <int of 16,610 bits>"):
        PrimeField(10 ** 5000)
    with pytest.raises(ValueError, match="non-canonical GF\\(7\\) element: <int of 16,610 bits>"):
        GF7.validate(10 ** 5000)


# field axioms (property-based)

def _gf_elements(field):
    return st.integers(min_value=0, max_value=field.cardinality - 1).map(field.element_from_index)


def _axiom_check(field, a, b, c):
    assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
    assert field.add(a, b) == field.add(b, a)
    assert field.mul(a, b) == field.mul(b, a)
    assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
    assert field.add(a, field.neg(a)) == field.zero
    if a != field.zero:
        assert field.mul(a, field.inv(a)) == field.one


@given(_gf_elements(GF7), _gf_elements(GF7), _gf_elements(GF7))
def test_field_axioms_gf7(a, b, c):
    _axiom_check(GF7, a, b, c)


@given(_gf_elements(GF9), _gf_elements(GF9), _gf_elements(GF9))
def test_field_axioms_gf9(a, b, c):
    _axiom_check(GF9, a, b, c)


_RATIONALS = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)


@settings(max_examples=60)
@given(_RATIONALS, _RATIONALS, _RATIONALS)
def test_field_axioms_rationals(a, b, c):
    _axiom_check(QQ, a, b, c)


@given(_gf_elements(GF9), _gf_elements(GF9))
def test_results_stay_canonical_gf9(a, b):
    for value in (GF9.add(a, b), GF9.mul(a, b), GF9.neg(a), GF9.sub(a, b)):
        GF9.validate(value)


@pytest.mark.parametrize(
    "field,value",
    [(GF7, 5), (GF4, (1, 1)), (QQ, Fraction(-2, 3)), (QQ, 4)],
)
def test_element_constructor_is_idempotent(field, value):
    once = field.vector([value])
    assert field.vector(once) == once


# junk for vector: values with no canonical form in any of the fields below,
# or in only some of them
_JUNK = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.integers(max_value=-1),
    st.integers(min_value=2),
    st.tuples(st.integers(0, 2)),
    st.lists(st.integers(0, 2), max_size=3),
    st.tuples(st.integers(-1, 3), st.integers(-1, 3)),
    st.text(max_size=3),
    st.none(),
)
_VECTOR_FIELDS = [GF2, PrimeField(31), GF16, GF9, QQ]


def _canonical_values(field):
    if field.is_finite:
        return _gf_elements(field)
    return st.one_of(st.integers(-5, 5), _RATIONALS)


def _outcome(call):
    try:
        return "value", call()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field", _VECTOR_FIELDS, ids=repr)
@given(data=st.data())
def test_vector_is_the_per_entry_loop(field, data):
    # The entries of GF(2^4) and GF(3^2) can also be lists, which become tuples.
    canonical = _canonical_values(field)
    if field.is_finite and field.cardinality > field.p:
        canonical = st.one_of(canonical, canonical.map(list))
    values = data.draw(st.lists(st.one_of(canonical, _JUNK), max_size=6))
    single = [_outcome(lambda: field.vector([v])) for v in values]
    bad = [outcome for outcome in single if outcome[0] != "value"]
    if bad:
        assert _outcome(lambda: field.vector(values)) == bad[0]
    else:
        assert field.vector(values) == tuple(outcome[1][0] for outcome in single)
        assert field.vector(iter(values)) == field.vector(values)


@pytest.mark.parametrize(
    "field,value,error,message",
    [
        (GF7, True, TypeError, "GF(7) element must be an int, got bool"),
        (GF7, 7, ValueError, "non-canonical GF(7) element: 7"),
        (GF4, [1, 0, 0], TypeError, "GF(2^2) element must be a 2-sequence of residues, got [1, 0, 0]"),
        (GF4, [1, 2], ValueError, "non-canonical GF(2^2) element: (1, 2)"),
        (QQ, 0.5, TypeError, "rational element must be an int or Fraction, got 0.5"),
    ],
)
def test_vector_refuses_with_the_per_entry_messages(field, value, error, message):
    # The messages the per-entry element(a) of each field gave.
    with pytest.raises(error) as info:
        field.vector([field.one, value, None])
    assert str(info.value) == message


@pytest.mark.parametrize("field", [GF4, ExtensionField(2, 3), GF9, ExtensionField(5, 2), ExtensionField(3, 4)])
def test_multiplicative_group_closed(field):
    nonzero = [e for e in field.elements() if e != field.zero]
    assert len(nonzero) == field.cardinality - 1
    seen = set(nonzero)
    for a in nonzero:
        assert field.mul(a, field.inv(a)) == field.one
        for b in nonzero:
            assert field.mul(a, b) in seen


# log/antilog and Zech tables (fields of at most 256 elements)

def _assert_tables_agree(field, pairs):
    """The table arithmetic of field returns what the polynomial methods of
    its class return, on every pair given and on each element of them."""
    assert "mul" in vars(field), f"{field!r} has no tables"
    E = ExtensionField
    for a, b in pairs:
        assert field.add(a, b) == E.add(field, a, b), (a, b)
        assert field.mul(a, b) == E.mul(field, a, b), (a, b)
        assert field.sub(a, b) == E.add(field, a, E.neg(field, b)), (a, b)
        for x in (a, b):
            assert field.neg(x) == E.neg(field, x), x
            if x != field.zero:
                assert field.inv(x) == E.inv(field, x), x
    with pytest.raises(ZeroDivisionError):
        field.inv(field.zero)


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_tables_match_polynomial_arithmetic_on_every_pair(p, k):
    field = ExtensionField(p, k)
    elements = list(field.elements())
    _assert_tables_agree(field, [(a, b) for a in elements for b in elements])


def test_gf256_tables_match_polynomial_arithmetic():
    field = ExtensionField(2, 8)
    rng = random.Random(256)
    picks = [field.zero, field.one] + [field.element_from_index(rng.randrange(256)) for _ in range(80)]
    _assert_tables_agree(field, [(a, b) for a in picks for b in picks])


def test_tables_stop_at_256_elements():
    assert "mul" in vars(ExtensionField(2, 8))
    assert "mul" not in vars(ExtensionField(2, 9))
    assert "mul" not in vars(ExtensionField(17, 2))


# selectors and JSON

def test_fields_imports_rationals_only_inside_functions():
    # rationals imports Field from fields at its top, so an import of
    # rationals at the top of fields would be a cycle, which works only while
    # the package registers both modules lazily.
    tree = ast.parse(Path(fields.__file__).read_text())
    top = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert top and not any("rationals" in ast.dump(node) for node in top)
    assert parse_field("rational") == field_from_json(field_to_json(QQ)) == QQ


def test_parse_field_selectors():
    assert parse_field("prime:7") == GF7
    assert parse_field("ext:2:2") == GF4
    assert parse_field("rational") == QQ
    with pytest.raises(errors.ParseError):
        parse_field("prime:abc")
    with pytest.raises(errors.ParseError):
        parse_field("galois:2")
    with pytest.raises(errors.ParseError, match="^bad field selector 'prime:4': 4 is not prime$"):
        parse_field("prime:4")


def _order_by_trial_division(q):
    """(p, k) with q == p^k for a prime p, or None."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k, rest = 0, q
    while rest % p == 0:
        rest, k = rest // p, k + 1
    return (p, k) if rest == 1 else None


def test_field_from_order():
    assert field_from_order(7) == GF7
    assert field_from_order(4) == GF4
    assert field_from_order(9) == GF9
    with pytest.raises(ValueError):
        field_from_order(6)
    for q in range(2, 3000):
        try:
            field = field_from_order(q)
        except ValueError:
            assert _order_by_trial_division(q) is None, q
        else:
            assert (field.p, getattr(field, "k", 1)) == _order_by_trial_division(q), q


def test_field_from_order_ends_quickly_for_every_order():
    # 2^61 - 1 is prime: trial division up to its square root took minutes.
    start = time.perf_counter()
    assert field_from_order(2 ** 31 - 1) == PrimeField(2 ** 31 - 1)
    assert field_from_order(46337 ** 2) == ExtensionField(46337, 2)
    for q in (2 ** 61 - 1, 2 ** 31 * 3, (2 ** 31 + 11) ** 2, 2 ** 64 - 1):
        with pytest.raises(ValueError):
            field_from_order(q)
    for q in (2 ** 64 + 1, 3 ** 41, 10 ** 4000):
        with pytest.raises(errors.TooLargeError):
            field_from_order(q)
    assert time.perf_counter() - start < 1.0


def test_extension_fields_over_2_to_the_64_are_refused():
    # GF(2^1279) by the trinomial x^1279 + x^216 + 1: refused before Ben-Or runs.
    modulus = [0] * 1280
    modulus[0] = modulus[216] = modulus[1279] = 1
    start = time.perf_counter()
    for build in (
        lambda: ExtensionField(2, 2000),
        lambda: ExtensionField(2, 10 ** 30),
        lambda: ExtensionField(3, 41),
        lambda: ExtensionField(2, 1279, modulus),
        lambda: parse_field("ext:2:2000"),
        lambda: field_from_json({"kind": "ext", "p": 2, "k": 1279, "modulus": [str(c) for c in modulus]}),
    ):
        with pytest.raises(errors.TooLargeError, match="cap of 2\\^64"):
            build()
    assert time.perf_counter() - start < 1.0
    assert ExtensionField(2, 64).cardinality == 2 ** 64
    assert ExtensionField(3, 40).cardinality == 3 ** 40


@pytest.mark.parametrize("field", [GF2, GF7, GF4, GF9, QQ])
def test_field_json_round_trip(field):
    assert field_from_json(field_to_json(field)) == field


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "prime", "p": 7.9},
        {"kind": "prime", "p": "7"},
        {"kind": "prime", "p": True},
        {"kind": "ext", "p": 2, "k": 2.6, "modulus": ["1", "1", "1"]},
        {"kind": "ext", "p": 2, "k": True, "modulus": ["1", "1", "1"]},
        {"kind": "ext", "p": 2.0, "k": 2, "modulus": ["1", "1", "1"]},
        {"kind": "ext", "p": 2, "k": 2, "modulus": ["1", 1.9, "1"]},
        {"kind": "ext", "p": 2, "k": 2, "modulus": ["1", True, "1"]},
        {"kind": "ext", "p": 2, "k": 2, "modulus": [1, 1, 1]},
    ],
)
def test_field_json_rejects_non_integers(obj):
    # p and k are JSON ints, modulus entries decimal strings; nothing is truncated
    with pytest.raises(errors.ParseError):
        field_from_json(obj)


def test_field_json_rejects_garbage():
    with pytest.raises(errors.ParseError):
        field_from_json({"kind": "prime", "p": 4})
    with pytest.raises(errors.ParseError):
        field_from_json({"kind": "octonion"})
    with pytest.raises(errors.ParseError):
        field_from_json("prime:2")


@pytest.mark.parametrize(
    "field,values",
    [
        (GF7, [0, 1, 6]),
        (GF4, [(0, 0), (1, 1)]),
        (QQ, [Fraction(0), Fraction(-7, 3), Fraction(5)]),
    ],
)
def test_element_json_round_trip(field, values):
    for v in values:
        assert field.element_from_json(field.element_to_json(v)) == v


def test_element_json_rejects_non_canonical():
    with pytest.raises(errors.ParseError):
        GF3.element_from_json("3")
    with pytest.raises(errors.ParseError):
        GF3.element_from_json(2)
    with pytest.raises(errors.ParseError):
        GF4.element_from_json(["1"])
    with pytest.raises(errors.ParseError):
        QQ.element_from_json("1/0")


def test_rational_exponents_are_held_to_the_digit_limit():
    assert [QQ.element_from_json(s) for s in ("1e3", "-2.5e-3", "3/4", "1E-4300", " 7e0_1 ")] == [
        Fraction(1000), Fraction(-1, 400), Fraction(3, 4), Fraction(1, 10 ** 4300), Fraction(70)
    ]
    for text in ("1e4301", "0e999999999", "-1e-999999999", "1E+100_000_000", "1e" + "9" * 5000):
        start = time.perf_counter()
        with pytest.raises(errors.ParseError, match="exponent is larger than the limit of 4,300"):
            QQ.element_from_json(text)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "obj",
    [["1", 1], ["1", "x"], ["1", "2"], ["1", "-1"], "10", ("1", "0"), ["1"], ["1", "0", "0"]],
    ids=["non-string", "bad-string", "too-large", "negative", "string", "tuple", "short", "long"],
)
def test_extension_element_json_rejects_bad_coefficients_and_shapes(obj):
    with pytest.raises(errors.ParseError):
        GF4.element_from_json(obj)
