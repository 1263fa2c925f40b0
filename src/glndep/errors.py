"""Exception types, checks and the immutable record base shared across the package."""

import reprlib


class Error(Exception):
    """Base class for all package-specific errors."""


class NotPrimeError(Error):
    """A claimed prime modulus is composite or otherwise unusable."""


class FieldMismatchError(Error):
    """Operands belong to different fields."""


class InfiniteFieldError(Error):
    """A finite-only operation was asked of an infinite field."""


class ParseError(Error):
    """Malformed JSON data for a field, matrix, witness, or subspace."""


class ShapeError(Error):
    """Matrix or vector dimensions do not conform."""


class TooLargeError(Error):
    """A size over a cap: an exhaustive enumeration, or a value with more digits than are written."""


class TooFewMatricesError(Error):
    """A solver needs at least m+1 matrices of width m."""


class DimensionTooLargeError(Error):
    """A subspace has dimension larger than the multiplier size n."""


class SpanExpansionError(Error):
    """A row expansion required by the correction step does not exist."""


class ExhaustedBoundError(Error):
    """No valid correction scalar found within the scan bound."""


class WitnessError(Error):
    """A witness failed verification: base of certificate.VerificationError and
    subspaces.SubspaceVerificationError, which a caller catches without loading either."""


class PostconditionError(Error):
    """A solver post-condition failed (internal bug)."""


# The most instances or candidates an exhaustive search may enumerate, and the
# most matrix entries a CLI flag may ask for, unless a cap is given.
DEFAULT_CAP = 10 ** 7


def _check_sweep_size(q: int, n: int, m: int, cap: int) -> None:
    """Refuse a sweep of shape n x m over GF(q) with more than cap instances.

    Raises ValueError unless q >= 2 and n, m >= 1 are ints, and TooLargeError
    when q^(n*m*(m+1)) > cap, in time bounded by the size of cap whatever n
    and m are (see _power_exceeds); no field is built.
    """
    for name, value, least in (("q", q, 2), ("n", n, 1), ("m", m, 1)):
        if type(value) is not int or value < least:
            raise ValueError(f"{name} must be an int >= {least}, got {_excerpt(value)}")
    exponent = n * m * (m + 1)
    if _power_exceeds(q, exponent, cap):
        power = f"{_excerpt(q)}^{_excerpt(exponent)}"
        raise TooLargeError(f"{power} instances exceed the cap of {_excerpt(cap)}")


def _power_exceeds(base: int, exponent: int, cap: int) -> bool:
    """base^exponent > cap, for an int base >= 2 and an int exponent.

    Multiplies up one factor at a time and stops at the first partial power
    past cap, so the time and the size of the numbers made are bounded by the
    sizes of base and cap, not by the exponent.
    """
    total = 1
    for _ in range(exponent):
        total *= base
        if total > cap:
            return True
    return total > cap


def check(ok: bool, what: str) -> None:
    """Raise PostconditionError unless ok; unlike assert, this also runs under python -O."""
    if not ok:
        raise PostconditionError(what)


def _repr_int(x: int, level: int) -> str:
    # repr refuses an int of more digits than sys.get_int_max_str_digits()
    # (4,300 by default, never below 640), so one of over 2,000 bits (603
    # digits) is described by its size.
    bits = x.bit_length()
    return f"<int of {bits:,} bits>" if bits > 2000 else reprlib.Repr.repr_int(_REPR, x, level)


# Nested containers are elided past the third level and long strings, ints
# and containers are shortened; _excerpt cuts whatever is left to 160 characters.
_REPR = reprlib.Repr()
_REPR.maxlevel = 3
_REPR.repr_int = _repr_int  # Repr.repr looks up repr_<type name> on the instance
_EXCERPT_CHARS = 160


def _excerpt(value) -> str:
    """A repr of an input value short enough to quote in an error message."""
    return _cut(_REPR.repr(value))


def _cut(text: str) -> str:
    """text, cut to _EXCERPT_CHARS characters."""
    return text if len(text) <= _EXCERPT_CHARS else text[: _EXCERPT_CHARS - 3] + "..."


def _check_object(obj, what: str, keys) -> None:
    """Raise ParseError unless obj is a JSON object holding every key; what names it."""
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be an object, got {_excerpt(obj)}")
    for key in keys:
        if key not in obj:
            raise ParseError(f"{what} is missing {key!r}")


def _check_positive_int(value, what: str) -> None:
    """Raise ParseError unless value is an int >= 1 (a bool or a float is not); what names it."""
    if type(value) is not int or value < 1:
        raise ParseError(f"{what} must be a positive int, got {_excerpt(value)}")


class _Record:
    """Base of the package's immutable value types (Matrix, Witness, Subspace, ...).

    A subclass lists its fields in ``__slots__`` and checks them in
    ``__post_init__``; the constructor takes the values in that order.
    Setting or deleting an attribute afterwards raises AttributeError.  Two
    records are equal when they have the same type and equal fields, and
    equal records hash equal.  A plain slots class costs no import and no
    per-class code generation when the package loads.
    """

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} values, got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())
