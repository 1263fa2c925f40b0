"""Witness certificates for GL(n)-dependence and their independent verifier.

A witness for matrices M_1..M_k is its multipliers g_1..g_k: n x n matrices
over one field, each zero or invertible, not all zero, with
sum(g_i * M_i) == 0.  Whether g_i is zero is read off g_i; the "zero" and
"inv" tags exist only in the JSON form, where witness_from_json checks the one
claim the entries cannot carry (an inv-tagged entry is not the zero matrix).
The verifier checks that every nonzero entry has nonzero determinant and that
the sum vanishes exactly; it deliberately uses only the elimination
primitives, never solver code, so it can serve as the trust anchor for every
solver in the package.
"""

from __future__ import annotations

from . import errors
from .fields import Field, field_from_json, field_to_json
from .matrix import Matrix, _one_field_and_shape, _weighted_sum, det, matrix_from_json, matrix_to_json

TAG_ZERO = "zero"
TAG_INVERTIBLE = "inv"


class VerificationError(errors.WitnessError):
    """Raised when a witness fails verification; carries the reason and location."""

    def __init__(self, reason: str, index=None, row=None, col=None, detail: str = ""):
        self.reason = reason
        self.index = index
        self.row = row
        self.col = col
        where = ""
        if index is not None:
            where = f" at entry {index}"
        elif row is not None:
            where = f" at ({row}, {col})"
        super().__init__(f"{reason}{where}" + (f": {detail}" if detail else ""))


class Witness(errors._Record):
    """Multipliers g_1..g_k: at least one n x n matrix, all over one field."""

    __slots__ = ("entries",)

    def __post_init__(self):
        _, n, cols = _one_field_and_shape(self.entries)
        if n != cols:
            raise errors.ShapeError(f"witness entries must be square, got {n}x{cols}")

    @property
    def field(self) -> Field:
        return self.entries[0].field

    @property
    def n(self) -> int:
        return self.entries[0].rows

    @property
    def tags(self) -> tuple:
        return tuple([TAG_ZERO if g.is_zero() else TAG_INVERTIBLE for g in self.entries])


def verify_witness(matrices, witness: Witness) -> None:
    """Check a witness against its matrices; raise VerificationError on failure.

    Conditions, in order: shapes and fields conform; every nonzero entry has
    nonzero determinant; not all entries are zero; sum(g_i * M_i) == 0.
    """
    matrices = list(matrices)
    if len(matrices) != len(witness.entries):
        raise VerificationError(
            "shape-mismatch", detail=f"{len(matrices)} matrices vs {len(witness.entries)} entries"
        )
    field = witness.field
    n = witness.n
    m = matrices[0].cols
    for M in matrices:
        if M.field != field:
            raise VerificationError("field-mismatch", detail=f"{M.field!r} vs {field!r}")
        entries = M.entries
        if len(entries) != n or len(entries[0]) != m:
            raise VerificationError("shape-mismatch", detail=f"matrix is {len(entries)}x{len(entries[0])}")
    zero = field.zero
    nonzero = [(i, g) for i, g in enumerate(witness.entries) if not g.is_zero()]
    if not nonzero:
        raise VerificationError("all-zero")
    for i, g in nonzero:
        if det(g) == zero:
            raise VerificationError("singular", index=i, detail="claimed-invertible entry is singular")
    total = _weighted_sum(witness.entries, matrices)
    for r in range(n):
        for c in range(m):
            if total.entries[r][c] != zero:
                raise VerificationError("sum-nonzero", row=r, col=c)


def witness_to_json(witness: Witness) -> dict:
    entries = [
        {"tag": tag} if tag == TAG_ZERO else {"tag": tag, "matrix": matrix_to_json(g)}
        for g, tag in zip(witness.entries, witness.tags)
    ]
    return {"field": field_to_json(witness.field), "n": witness.n, "entries": entries}


def witness_from_json(obj) -> Witness:
    errors._check_object(obj, "witness", ("field", "n", "entries"))
    field = field_from_json(obj["field"])
    n = obj["n"]
    errors._check_positive_int(n, "witness 'n'")
    raw = obj["entries"]
    if not isinstance(raw, list) or not raw:
        raise errors.ParseError("witness 'entries' must be a non-empty list")
    # The zero-tagged entries are built last, from an n that an inv-tagged
    # n x n entry has bounded by the size of the input.
    invertible = {}
    for idx, e in enumerate(raw):
        if not isinstance(e, dict) or "tag" not in e:
            raise errors.ParseError(f"witness entry {idx} must be an object with a 'tag'")
        tag = e["tag"]
        if tag == TAG_INVERTIBLE:
            if "matrix" not in e:
                raise errors.ParseError(f"witness entry {idx} is missing 'matrix'")
            g = matrix_from_json(e["matrix"])
            if g.field != field or g.rows != n or g.cols != n:
                raise errors.ParseError(f"witness entry {idx} has the wrong field or shape")
            invertible[idx] = g
        elif tag != TAG_ZERO:
            raise errors.ParseError(f"witness entry {idx} has unknown tag {errors._excerpt(tag)}")
    if not invertible:
        raise VerificationError("all-zero")
    # The one claim of the JSON form that its entries cannot carry; checked
    # after every entry has parsed, so a parse error still comes first.
    for idx, g in invertible.items():
        if g.is_zero():
            raise VerificationError("singular", index=idx, detail="claimed-invertible entry is singular")
    zero = Matrix.zero(field, n, n)
    return Witness(tuple(invertible.get(idx, zero) for idx in range(len(raw))))


def instance_to_json(field: Field, matrices) -> dict:
    return {"field": field_to_json(field), "matrices": [matrix_to_json(M) for M in matrices]}


def _check_instance(matrices: list[Matrix]) -> tuple[Field, int, int]:
    """(field, n, m) of a solvable instance: k >= m+1 matrices of one shape n x m
    over one field."""
    field, n, m = _one_field_and_shape(matrices)
    if len(matrices) < m + 1:
        raise errors.TooFewMatricesError(f"need at least {m + 1} matrices of width {m}, got {len(matrices)}")
    return field, n, m


def instance_from_json(obj) -> tuple[Field, list[Matrix]]:
    errors._check_object(obj, "instance", ("field", "matrices"))
    field = field_from_json(obj["field"])
    raw = obj["matrices"]
    if not isinstance(raw, list) or not raw:
        raise errors.ParseError("instance 'matrices' must be a non-empty list")
    matrices = [matrix_from_json(m) for m in raw]
    for M in matrices:
        if M.field != field:
            raise errors.ParseError("instance matrix over a different field than the instance")
    return field, matrices
