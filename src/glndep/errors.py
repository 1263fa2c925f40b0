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


class DependentInputError(Error):
    """Vectors required to be linearly independent are not."""


class TooLargeError(Error):
    """An exhaustive enumeration exceeds the configured cap."""


class TooFewMatricesError(Error):
    """A solver needs at least m+1 matrices of width m."""


class DimensionTooLargeError(Error):
    """A subspace has dimension larger than the multiplier size n."""


class SpanExpansionError(Error):
    """A row expansion required by the correction step does not exist."""


class ExhaustedBoundError(Error):
    """No valid correction scalar found within the scan bound."""


class PostconditionError(Error):
    """A solver post-condition failed (internal bug)."""


def check(ok: bool, what: str) -> None:
    """Raise PostconditionError unless ok; unlike assert, this also runs under python -O."""
    if not ok:
        raise PostconditionError(what)


# Nested containers are elided past the third level and long strings, ints
# and containers are shortened; _excerpt cuts whatever is left to 160 characters.
_REPR = reprlib.Repr()
_REPR.maxlevel = 3
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
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())
