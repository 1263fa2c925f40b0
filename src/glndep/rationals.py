"""The rationals QQ: RationalField and the integer kernels of matrix over QQ.

Only the processes that work over QQ load this module: fields builds a
RationalField through it, and matrix reaches the kernels below through the
RationalField a matrix holds, so a finite-field process compiles neither and
never imports fractions.

Over QQ, elimination and products run on Python ints.  Elimination clears
each row of denominators, divides exactly by the previous pivot and makes one
Fraction per entry at the end; every integer row is a nonzero multiple of the
row that elimination on Fractions would hold.  A product clears the rows of
its left factor and the columns of its right factor once, and makes one
Fraction per entry from an integer dot product.  So the results are the same
values.  The correction step of rational_solver also runs on integer rows:
its scalar scan eliminates cleared row pairs (see _integer_row_pairs), and
its multiplier updates a + c*b make one Fraction per entry (see
_rational_add_scaled).  Other sums stay on Fractions.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from math import lcm

from . import errors
from .fields import Field

# The exponent of a decimal string that Fraction accepts, without its sign.
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _integer_row(row) -> tuple[list, int]:
    """(ints, d) with row == ints / d: a rational row cleared of denominators
    by d, the lcm of its denominators."""
    dens = [e.denominator for e in row]
    d = lcm(*dens)
    return [e.numerator * (d // q) for e, q in zip(row, dens)], d


def _integer_row_pairs(a, b):
    """(s, t, d) per row pair of two rational matrices of one shape: integer
    lists with the row of a == s / d and the row of b == t / d, d being the
    lcm of the pair's denominators."""
    w = len(a.entries[0])
    for ra, rb in zip(a.entries, b.entries):
        ints, d = _integer_row(ra + rb)
        yield ints[:w], ints[w:], d


def _rational_add_scaled(a, c, b) -> tuple:
    """The entries of a + c * b over QQ: each row pair is cleared of
    denominators once and each entry is one Fraction (the canonical
    Fraction(0) when it is zero)."""
    cn, cd, z = c.numerator, c.denominator, Fraction(0)
    return tuple([
        tuple([Fraction(e, d * cd) if (e := cd * s + cn * t) else z for s, t in zip(srow, trow)])
        for srow, trow, d in _integer_row_pairs(a, b)
    ])


def _rational_product(aent, bent) -> tuple:
    """The entries of a * b over QQ, on integers.

    Each row of a and each column of b is cleared of denominators once; an
    entry is then one integer dot product over the two common denominators,
    made into one Fraction (the canonical Fraction(0) when it is zero).
    """
    z, mul = Fraction(0), operator.mul
    rows = [_integer_row(row) for row in aent]
    cols = [_integer_row(col) for col in zip(*bent)]
    return tuple([
        tuple([Fraction(dot, da * db) if (dot := sum(map(mul, ra, cb))) else z for cb, db in cols])
        for ra, da in rows
    ])


def _rational_gauss_jordan(rows, limit: int, reduce: bool):
    """matrix._gauss_jordan over QQ, fraction-free with exact division (Bareiss 1968).

    Each row (of Fractions, or of ints, whose denominator is 1) is cleared of
    denominators once; den is the product of those denominators.  At a pivot
    pv every other row becomes (pv*row - c*pivot_row) // prev, prev being the
    previous pivot (1 at first), also when c is zero.  By Sylvester's
    identity every entry is then a minor of the cleared matrix, so each
    division is exact, and each row is a nonzero multiple of the row the
    Fraction loop holds: the same entries are zero, and the pivots and swaps
    are the same.  Every pivot row ends holding the last pivot prev at its
    pivot column, so with reduce the pivot rows are divided by prev, one
    Fraction per entry, which gives the Fraction loop's rows; the rows below
    the rank stay Fractions up to a nonzero scale (callers test them for
    zero).  For a full-rank square matrix prev is the cleared determinant up
    to the swaps' sign, so the factor is sign * prev / den.  With reduce
    false each pivot updates only the rows below it (Bareiss's forward
    elimination); those rows get the same integers as in the full pass, so
    every division stays exact, and the rows are returned unread as ints.
    """
    work = []
    den = 1
    for row in rows:
        ints, d = _integer_row(row)
        den *= d
        work.append(ints)
    nrows = len(work)
    pivot_cols = []
    prev = sign = 1
    for col in range(limit):
        pr = len(pivot_cols)
        if pr == nrows:
            break
        pivot = next((r for r in range(pr, nrows) if work[r][col]), None)
        if pivot is None:
            continue
        if pivot != pr:
            work[pr], work[pivot] = work[pivot], work[pr]
            sign = -sign
        src = work[pr]
        pv = src[col]
        for r in range(0 if reduce else pr + 1, nrows):
            row = work[r]
            c = row[col]
            if c and r != pr:
                work[r] = [(pv * e - c * s) // prev for e, s in zip(row, src)]
            elif r != pr:
                work[r] = [pv * e // prev for e in row]
        prev = pv
        pivot_cols.append(col)
    if reduce:
        z = Fraction(0)
        rank = len(pivot_cols)
        work = [[Fraction(e, prev if t < rank else 1) if e else z for e in row] for t, row in enumerate(work)]
    return work, tuple(pivot_cols), Fraction(sign * prev, den)


class RationalField(Field):
    """The rational numbers with Fraction elements (always reduced, denominator > 0)."""

    # matrix's elimination, product and a + c*b over QQ, reached through the
    # field a matrix holds, so that matrix needs no import of this module.
    gauss_jordan = staticmethod(_rational_gauss_jordan)
    product = staticmethod(_rational_product)
    add_scaled = staticmethod(_rational_add_scaled)

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

    def vector(self, values) -> tuple:
        """values as a tuple of elements: each Fraction as it is, each int made a Fraction."""
        v = list(values)
        for i, a in enumerate(v):
            if type(a) is not Fraction:
                if type(a) is not int:
                    raise TypeError(f"rational element must be an int or Fraction, got {errors._excerpt(a)}")
                v[i] = Fraction(a)
        return tuple(v)

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

    def element_to_json(self, a) -> str:
        # str refuses an int of more digits than sys.get_int_max_str_digits(),
        # and element_from_json would refuse the same digits when read back.
        try:
            return str(a)
        except ValueError:
            raise errors.TooLargeError(
                f"a rational value has more digits than the limit of {sys.get_int_max_str_digits():,}"
            ) from None

    def element_from_json(self, obj):
        if not isinstance(obj, str):
            raise errors.ParseError(f"rational element must be a string, got {errors._excerpt(obj)}")
        # Fraction computes 10**exp for an exponent of any size; "1e100000000"
        # takes minutes.
        exp = _EXPONENT.search(obj)
        if exp:
            limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
            digits = exp[1].replace("_", "").lstrip("0")
            if len(digits) > len(str(limit)) or int(digits or "0") > limit:
                raise errors.ParseError(
                    f"bad rational element string {errors._excerpt(obj)}: "
                    f"its exponent is larger than the limit of {limit:,}"
                )
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError):
            raise errors.ParseError(f"bad rational element string: {errors._excerpt(obj)}") from None
