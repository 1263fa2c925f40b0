"""Shared randomized-construction helpers for the test suite."""

import random
from fractions import Fraction

from glndep.fields import ExtensionField
from glndep.matrix import Matrix, det

KINDS = ("dense", "sparse", "rank1")


def random_element(rng, field):
    if field.is_finite:
        return field.element_from_index(rng.randrange(field.cardinality))
    return Fraction(rng.randint(-3, 3))


def random_matrix(rng, field, rows, cols):
    return Matrix(
        field,
        tuple(tuple(random_element(rng, field) for _ in range(cols)) for _ in range(rows)),
    )


def random_invertible(rng, field, n):
    while True:
        m = random_matrix(rng, field, n, n)
        if det(m) != field.zero:
            return m


def _small_element(rng, field, bound):
    # An extension field draws from all of its elements, not just its prime subfield.
    if isinstance(field, ExtensionField):
        return field.element_from_index(rng.randrange(field.cardinality))
    return field.from_int(rng.randint(-bound, bound))


def golden_matrix(rng, field, n, m, kind):
    """A seeded n x m matrix of one of KINDS; rank1 has every row a multiple of
    one row, with one row forced to zero."""
    def entry():
        if kind == "sparse" and rng.random() < 0.7:
            return field.zero
        return _small_element(rng, field, 3)

    if kind != "rank1":
        return Matrix(field, tuple(tuple(entry() for _ in range(m)) for _ in range(n)))
    base = tuple(entry() for _ in range(m))
    zero_row = rng.randrange(n)
    scales = [field.zero if r == zero_row else _small_element(rng, field, 2) for r in range(n)]
    return Matrix(field, tuple(tuple(field.mul(s, e) for e in base) for s in scales))


def golden_instances(field, seed, count):
    """Seeded instances for byte pins: n, m <= 4, the kinds in turn, and every
    fifth instance with k = m+2 instead of m+1."""
    rng = random.Random(seed)
    for t in range(count):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        k = m + 2 if t % 5 == 4 else m + 1
        yield [golden_matrix(rng, field, n, m, KINDS[t % 3]) for _ in range(k)]
