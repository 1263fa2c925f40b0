"""Exact arithmetic over prime fields GF(p), extension fields GF(p^k), and the rationals.

Elements are plain Python values: residues (int) for GF(p), length-k coefficient
tuples over GF(p) for GF(p^k) (lowest degree first), and Fraction for the
rationals.  Field objects carry the operations and are immutable and hashable,
so matrices and witnesses can share them freely.  All results are produced in
canonical form; structure constructors re-check canonicity and fail fast.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd

from . import errors

# Keeps products of residues inside comfortable native-int territory.
MAX_PRIME = 2 ** 31
# GF(p^k) with at most this many elements does its arithmetic by table lookup.
# The tables of GF(2^16) would take an estimated 0.4 s or more to build.
_TABLE_LIMIT = 256
# The largest field order accepted.  Larger orders are refused before the
# modulus search and the irreducibility test, which keeps building a field
# bounded in time: the largest fields of each degree up to 64 took at most
# about 1.2 s each (GF(7129^5)) on a 2-core VM with Python 3.11.
_MAX_ORDER = 2 ** 64


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field:
    """Common interface of PrimeField, ExtensionField, and RationalField."""

    cardinality: int | None = None
    zero: object
    one: object

    @property
    def is_finite(self) -> bool:
        return self.cardinality is not None

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def elements(self):
        raise errors.InfiniteFieldError(f"{self!r} has infinitely many elements")

    def element_from_index(self, i: int):
        raise errors.InfiniteFieldError(f"{self!r} has no element indexing")


class PrimeField(Field):
    """GF(p) with elements the residues 0..p-1."""

    def __init__(self, p: int):
        if type(p) is not int:
            raise TypeError(f"prime modulus must be an int, got {type(p).__name__}")
        if p >= MAX_PRIME:
            raise ValueError(f"prime modulus must be < 2^31, got {errors._excerpt(p)}")
        if not is_prime(p):
            raise errors.NotPrimeError(f"{p} is not prime")
        self.p = p
        self.cardinality = p
        self.zero = 0
        self.one = 1

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return type(other) is PrimeField and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def validate(self, a) -> None:
        if type(a) is not int:
            raise TypeError(f"GF({self.p}) element must be an int, got {type(a).__name__}")
        if not 0 <= a < self.p:
            raise ValueError(f"non-canonical GF({self.p}) element: {a}")

    def element(self, a):
        self.validate(a)
        return a

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def elements(self):
        return iter(range(self.p))

    def element_from_index(self, i: int):
        return i

    def element_to_json(self, a) -> str:
        return str(a)

    def element_from_json(self, obj):
        if not isinstance(obj, str):
            raise errors.ParseError(f"GF({self.p}) element must be a decimal string, got {errors._excerpt(obj)}")
        try:
            a = int(obj)
        except ValueError:
            raise errors.ParseError(f"bad GF({self.p}) element string: {errors._excerpt(obj)}") from None
        if not 0 <= a < self.p:
            raise errors.ParseError(f"non-canonical GF({self.p}) element: {errors._excerpt(obj)}")
        return a


class ExtensionField(Field):
    """GF(p^k) as polynomial residues modulo a monic irreducible of degree k.

    An element is a length-k tuple of GF(p) residues, constant coefficient
    first.  If no modulus is given, the search takes the first irreducible in
    the counting order of coefficient vectors, so GF(p^k) is reproducible from
    (p, k) alone.  A field of at most _TABLE_LIMIT elements replaces the
    polynomial add, neg, mul and inv below by lookups in its log/antilog and
    Zech tables (see _table_arithmetic); both give the same tuples.
    """

    def __init__(self, p: int, k: int, modulus=None):
        base = PrimeField(p)
        if type(k) is not int or k < 2:
            raise ValueError(f"extension degree must be an int >= 2, got {errors._excerpt(k)}")
        # p >= 2, so k > 64 alone puts p^k over the cap, without computing it.
        if k > 64 or p ** k > _MAX_ORDER:
            raise errors.TooLargeError(f"GF({p}^{errors._excerpt(k)}) is larger than the cap of 2^64 elements")
        if modulus is None:
            modulus = find_irreducible(base, k)
        else:
            modulus = tuple(base.element(c) for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {k}")
            if not is_irreducible(base, list(modulus)):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.base = base
        self.p = p
        self.k = k
        self.modulus = tuple(modulus)
        self.cardinality = p ** k
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        if self.cardinality <= _TABLE_LIMIT:
            # Instance attributes shadow the polynomial methods of the class.
            self.add, self.neg, self.mul, self.inv = _table_arithmetic(self)

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    def __eq__(self, other):
        return (
            type(other) is ExtensionField
            and other.p == self.p
            and other.k == self.k
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ext", self.p, self.k, self.modulus))

    def validate(self, a) -> None:
        if type(a) is not tuple or len(a) != self.k:
            raise TypeError(f"{self!r} element must be a {self.k}-tuple, got {a!r}")
        for c in a:
            if type(c) is not int or not 0 <= c < self.p:
                raise ValueError(f"non-canonical {self!r} element: {a!r}")

    def element(self, a):
        if isinstance(a, (tuple, list)) and len(a) == self.k:
            a = tuple(a)
            self.validate(a)
            return a
        raise TypeError(f"{self!r} element must be a {self.k}-sequence of residues, got {a!r}")

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        p, k, mod = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] = (prod[i + j] + ai * bj) % p
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                lo = top - k
                for j in range(k):
                    if mod[j]:
                        prod[lo + j] = (prod[lo + j] - c * mod[j]) % p
        return tuple(prod[:k])

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError(f"inverse of zero in {self!r}")
        base = self.base
        r0, s0 = list(self.modulus), []
        r1, s1 = _poly_trim(base, a), [1]
        while r1:
            q, r = _poly_divmod(base, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(base, s0, _poly_mul(base, q, s1))
        errors.check(len(r0) == 1, "gcd with the irreducible modulus has degree > 0")
        c = base.inv(r0[0])
        out = [base.mul(c, cf) for cf in s0]
        errors.check(len(out) <= self.k, "xgcd left a cofactor of degree >= k")
        out += [0] * (self.k - len(out))
        return tuple(out)

    def from_int(self, n: int):
        return (n % self.p,) + (0,) * (self.k - 1)

    def elements(self):
        for v in range(self.cardinality):
            yield self.element_from_index(v)

    def element_from_index(self, v: int):
        p = self.p
        coeffs = []
        for _ in range(self.k):
            coeffs.append(v % p)
            v //= p
        return tuple(coeffs)

    def element_to_json(self, a) -> list:
        return [str(c) for c in a]

    def element_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != self.k:
            raise errors.ParseError(f"{self!r} element must be a list of {self.k} strings, got {errors._excerpt(obj)}")
        coeffs = []
        for c in obj:
            if not isinstance(c, str):
                raise errors.ParseError(f"bad {self!r} coefficient: {errors._excerpt(c)}")
            try:
                v = int(c)
            except ValueError:
                raise errors.ParseError(f"bad {self!r} coefficient string: {errors._excerpt(c)}") from None
            if not 0 <= v < self.p:
                raise errors.ParseError(f"non-canonical {self!r} coefficient: {errors._excerpt(c)}")
            coeffs.append(v)
        return tuple(coeffs)


@lru_cache(maxsize=None)
def _table_arithmetic(field: ExtensionField) -> tuple:
    """add, neg, mul and inv of a small GF(p^k) by table lookup.

    Cached per field, that is per (p, k, modulus).  With g the first
    primitive element in counting order and q1 = p^k - 1: exp[i] = g^(i mod
    q1) for i < 2*q1, so a sum of two logs needs no reduction; log[g^i] = i
    and log[0] = None; and the Zech logarithm zech[d] = log(1 + g^d), so that
    g^i + g^j = g^(i + zech[j - i]), where a negative j - i indexes from the
    end of zech, which is j - i mod q1.  The tables are built with the
    class's polynomial arithmetic, so both give the same tuples.
    """
    zero, one = field.zero, field.one
    q1 = field.cardinality - 1
    for g in field.elements():
        if g == zero:
            continue
        powers = [one]
        x = g
        while x != one:
            powers.append(x)
            x = ExtensionField.mul(field, x, g)
        if len(powers) == q1:
            break
    errors.check(len(powers) == q1, f"{field!r} has no primitive element")
    exp = powers * 2
    log = {e: i for i, e in enumerate(powers)}
    log[zero] = None
    zech = [log[ExtensionField.add(field, one, e)] for e in powers]
    log_minus_one = q1 // 2 if field.p != 2 else 0  # -1 = g^(q1/2), or 1 in characteristic 2
    name = repr(field)

    def add(a, b):
        i = log[a]
        if i is None:
            return b
        j = log[b]
        if j is None:
            return a
        z = zech[j - i]
        return zero if z is None else exp[i + z]

    def neg(a):
        i = log[a]
        return a if i is None else exp[i + log_minus_one]

    def mul(a, b):
        i = log[a]
        j = log[b]
        if i is None or j is None:
            return zero
        return exp[i + j]

    def inv(a):
        i = log[a]
        if i is None:
            raise ZeroDivisionError(f"inverse of zero in {name}")
        return exp[q1 - i]

    return add, neg, mul, inv


class RationalField(Field):
    """The rational numbers with Fraction elements (always reduced, denominator > 0)."""

    def __init__(self):
        self.cardinality = None
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return type(other) is RationalField

    def __hash__(self):
        return hash("rational")

    def validate(self, a) -> None:
        if type(a) is not Fraction:
            raise TypeError(f"rational element must be a Fraction, got {type(a).__name__}")

    def element(self, a):
        if type(a) is Fraction:
            return a
        if type(a) is int:
            return Fraction(a)
        raise TypeError(f"rational element must be an int or Fraction, got {a!r}")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in QQ")
        return 1 / a

    def from_int(self, n: int):
        return Fraction(n)

    def element_to_json(self, a) -> str:
        return str(a)

    def element_from_json(self, obj):
        if not isinstance(obj, str):
            raise errors.ParseError(f"rational element must be a string, got {errors._excerpt(obj)}")
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError):
            raise errors.ParseError(f"bad rational element string: {errors._excerpt(obj)}") from None


def parse_field(text: str) -> Field:
    """Parse a field selector: "prime:p", "ext:p:k", or "rational"."""
    parts = text.split(":")
    try:
        if parts[0] == "prime" and len(parts) == 2:
            return PrimeField(int(parts[1]))
        if parts[0] == "ext" and len(parts) == 3:
            return ExtensionField(int(parts[1]), int(parts[2]))
        if parts[0] == "rational" and len(parts) == 1:
            return RationalField()
    except ValueError as exc:
        raise errors.ParseError(f"bad field selector {errors._excerpt(text)}: {exc}") from None
    raise errors.ParseError(f"bad field selector {errors._excerpt(text)}")


def field_from_order(q: int) -> Field:
    """Return GF(q) for a prime power q (the default modulus for true prime powers).

    Ends in bounded time for every int q: an order over the cap of 2^64 is
    refused first; otherwise q = p^k with the largest k <= 64 for which q has
    an integer k-th root, and only that root p is tested for primality.
    """
    if type(q) is not int or q < 2:
        raise ValueError(f"field order must be an int >= 2, got {q}")
    if q > _MAX_ORDER:
        raise errors.TooLargeError(f"field order of {q.bit_length()} bits is larger than the cap of 2^64")
    for k in range(64, 1, -1):
        # q <= 2^64, so the float root is within far less than 1/2 of the integer one.
        p = round(q ** (1 / k))
        if p ** k == q:
            break
    else:
        p, k = q, 1
    if p < MAX_PRIME and not is_prime(p):
        raise ValueError(f"{q} is not a prime power")
    # PrimeField refuses p >= 2^31 before it tests p for primality.
    return PrimeField(p) if k == 1 else ExtensionField(p, k)


def field_to_json(field: Field) -> dict:
    if isinstance(field, PrimeField):
        return {"kind": "prime", "p": field.p}
    if isinstance(field, ExtensionField):
        return {"kind": "ext", "p": field.p, "k": field.k, "modulus": [str(c) for c in field.modulus]}
    if isinstance(field, RationalField):
        return {"kind": "rational"}
    raise TypeError(f"unknown field {field!r}")


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise errors.ParseError(f"field descriptor must be an object with a 'kind': {errors._excerpt(obj)}")
    kind = obj["kind"]
    try:
        # The constructors reject a p or k that is not an int (a bool too).
        if kind == "prime":
            return PrimeField(obj["p"])
        if kind == "ext":
            modulus = obj.get("modulus")
            if not isinstance(modulus, list):
                raise errors.ParseError(f"extension field needs a 'modulus' list: {errors._excerpt(obj)}")
            base = PrimeField(obj["p"])
            return ExtensionField(base.p, obj["k"], [base.element_from_json(c) for c in modulus])
        if kind == "rational":
            return RationalField()
    except KeyError as exc:
        raise errors.ParseError(f"field descriptor missing {exc}") from None
    except (TypeError, ValueError, errors.NotPrimeError) as exc:
        raise errors.ParseError(f"bad field descriptor {errors._excerpt(obj)}: {exc}") from None
    raise errors.ParseError(f"unknown field kind {errors._excerpt(kind)}")


# ---------------------------------------------------------------------------
# Polynomials over a finite field: coefficient lists, lowest degree first.
# The zero polynomial is the empty list.

def _poly_trim(field: Field, coeffs) -> list:
    cs = list(coeffs)
    while cs and cs[-1] == field.zero:
        cs.pop()
    return cs


def _poly_sub(field: Field, a, b) -> list:
    return _poly_trim(field, [field.sub(x, y) for x, y in zip_longest(a, b, fillvalue=field.zero)])


def _poly_mul(field: Field, a, b) -> list:
    a = _poly_trim(field, a)
    b = _poly_trim(field, b)
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == field.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _poly_trim(field, out)


def _poly_divmod(field: Field, a, b) -> tuple[list, list]:
    b = _poly_trim(field, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = _poly_trim(field, a)
    if len(rem) < len(b):
        return [], rem
    # A monic divisor (every Ben-Or reduction) needs no inverse, which over
    # GF(p^k) would be a full extended Euclid.
    inv_lead = None if b[-1] == field.one else field.inv(b[-1])
    quot = [field.zero] * (len(rem) - len(b) + 1)
    for shift in range(len(rem) - len(b), -1, -1):
        c = rem[shift + len(b) - 1]
        if c == field.zero:
            continue
        factor = c if inv_lead is None else field.mul(c, inv_lead)
        quot[shift] = factor
        for i, bc in enumerate(b):
            rem[shift + i] = field.sub(rem[shift + i], field.mul(factor, bc))
    return _poly_trim(field, quot), _poly_trim(field, rem)


def _poly_mod(field: Field, a, b) -> list:
    return _poly_divmod(field, a, b)[1]


def _poly_powmod(field: Field, a, e: int, f) -> list:
    """a^e mod f by square-and-multiply, for a already reduced mod f."""
    result = [field.one]
    while e:
        if e & 1:
            result = _poly_mod(field, _poly_mul(field, result, a), f)
        e >>= 1
        if e:
            a = _poly_mod(field, _poly_mul(field, a, a), f)
    return result


def _poly_gcd(field: Field, a, b) -> list:
    """A gcd of trimmed a and b, up to a unit factor (Euclid's algorithm)."""
    while b:
        a, b = b, _poly_mod(field, a, b)
    return a


def _monic_polynomials(field: Field, degree: int, start: int):
    """The monic polynomials of the given degree over a finite field, in
    counting order, from candidate number start on.

    Lower coefficients vary fastest, so the order agrees with reading the
    non-leading coefficient vector (highest degree first) as a base-q number.
    """
    q = field.cardinality
    for v in range(start, q ** degree):
        coeffs = []
        t = v
        for _ in range(degree):
            coeffs.append(field.element_from_index(t % q))
            t //= q
        coeffs.append(field.one)
        yield coeffs


def is_irreducible(field: Field, coeffs) -> bool:
    """Ben-Or's test (FOCS 1981): a monic f of degree d over GF(q) is
    irreducible iff gcd(x^(q^i) - x, f) = 1 for every i = 1..d/2, since
    x^(q^i) - x is the product of all monic irreducibles of degree dividing i.
    """
    cs = _poly_trim(field, coeffs)
    if len(cs) < 2 or cs[-1] != field.one:
        raise ValueError("irreducibility test needs a monic polynomial of degree >= 1")
    deg = len(cs) - 1
    if deg >= 2 and not field.is_finite:
        raise errors.InfiniteFieldError("irreducibility test needs a finite field")
    h = x = [field.zero, field.one]
    for _ in range(deg // 2):
        h = _poly_powmod(field, h, field.cardinality, cs)
        if len(_poly_gcd(field, _poly_sub(field, h, x), cs)) > 1:
            return False
    return True


def find_irreducible(field: Field, degree: int) -> tuple:
    """First irreducible monic polynomial of the given degree, in counting order."""
    if not field.is_finite:
        raise errors.InfiniteFieldError("irreducible search needs a finite field")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    q = field.cardinality
    # The first q candidates are the binomials x^n + c.  By Lidl-Niederreiter,
    # Finite Fields, Thm 3.75, one of them is irreducible only if every prime
    # factor of n divides q - 1, and 4 divides q - 1 when 4 divides n.  The
    # first holds just when dividing out common factors of n and q - 1 leaves 1.
    # Otherwise the scan starts after them, at the same first irreducible.
    rest = degree
    while (g := gcd(rest, q - 1)) > 1:
        rest //= g
    binomials = rest == 1 and (degree % 4 != 0 or (q - 1) % 4 == 0)
    candidates = _monic_polynomials(field, degree, 0 if binomials else q)
    found = next((tuple(c) for c in candidates if is_irreducible(field, c)), None)
    errors.check(found is not None, f"no irreducible of degree {degree} over {field!r}; the search is buggy")
    return found
