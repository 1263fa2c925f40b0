"""Exception types shared across the package."""


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


def _check_object(obj, what: str, keys) -> None:
    """Raise ParseError unless obj is a JSON object holding every key; what names it."""
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be an object, got {obj!r}")
    for key in keys:
        if key not in obj:
            raise ParseError(f"{what} is missing {key!r}")


def _check_positive_int(value, what: str) -> None:
    """Raise ParseError unless value is an int >= 1 (a bool or a float is not); what names it."""
    if type(value) is not int or value < 1:
        raise ParseError(f"{what} must be a positive int, got {value!r}")
