"""Row spaces and GL(n)-dependence of subspaces.

Two n x m matrices differ by an invertible left factor exactly when they have
the same row space, so GL(n)-dependence only sees the family of row spaces.
The subspace form of a witness is a family of vectors x_j^(i) in L_i, one per
multiplier row, whose columnwise sums vanish and whose per-subspace span is
either L_i (flag "full") or zero (flag "zero"), not all zero.  This module
canonicalizes subspaces, converts between the two views, and verifies
subspace witnesses independently of the solvers.  A family's rules are the
matrix layer's, applied to its representative matrices: one field, one
ambient dimension, and no dimension above n.
"""

from __future__ import annotations

from . import errors, finite_solver, oracle, rational_solver
from .fields import Field, field_from_json, field_to_json
from .matrix import Matrix, _check_rows, _one_field_and_shape, _trusted, rref, span_solve

FLAG_FULL = "full"
FLAG_ZERO = "zero"


class SubspaceVerificationError(errors.WitnessError):
    """Raised when a subspace witness fails verification."""

    def __init__(self, reason: str, subspace=None, vector=None, row=None, detail: str = ""):
        self.reason = reason
        self.subspace = subspace
        self.vector = vector
        self.row = row
        where = ""
        if subspace is not None and vector is not None:
            where = f" at subspace {subspace}, vector {vector}"
        elif subspace is not None:
            where = f" at subspace {subspace}"
        elif row is not None:
            where = f" at row {row}"
        super().__init__(f"{reason}{where}" + (f": {detail}" if detail else ""))


class Subspace(errors._Record):
    """A subspace of K^m in canonical form: a basis that is the nonzero rows of its own rref."""

    __slots__ = ("field", "ambient", "basis")

    def __post_init__(self):
        _check_ambient(self.ambient)
        for row in self.basis:
            if len(row) != self.ambient:
                raise errors.ShapeError("basis row of the wrong length")
            for e in row:
                self.field.validate(e)
        # Only the canonical basis, so that equal subspaces compare equal.
        if self.basis:
            reduced = rref(_trusted(self.field, self.basis))
            if reduced.rank != len(self.basis) or reduced.rref.entries != self.basis:
                raise ValueError("subspace basis must be the nonzero rows of an RREF")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def from_vectors(cls, field: Field, ambient: int, vectors) -> "Subspace":
        """The span of the vectors, each made canonical by one field.vector
        call.  Its basis is the nonzero rows of their rref, canonical by
        construction, so it is not checked again as Subspace(...) checks a
        basis it is given."""
        _check_ambient(ambient)
        vectors = tuple([field.vector(v) for v in vectors])
        for v in vectors:
            if len(v) != ambient:
                raise errors.ShapeError("spanning vector of the wrong length")
        if not vectors:
            return cls(field, ambient, ())
        _check_rows(vectors)
        reduced = rref(_trusted(field, vectors))
        return _trusted_subspace(field, ambient, reduced.rref.entries[: reduced.rank])


def _check_ambient(ambient) -> None:
    """Raise ShapeError unless ambient is an int >= 1 (a bool or a float is not)."""
    if type(ambient) is not int or ambient < 1:
        raise errors.ShapeError("ambient dimension must be >= 1")


def _trusted_subspace(field: Field, ambient: int, basis: tuple) -> Subspace:
    """The unvalidated Subspace constructor, for a basis that is the nonzero
    rows of an rref over field, each of length ambient >= 1."""
    s = object.__new__(Subspace)
    for name, value in zip(Subspace.__slots__, (field, ambient, basis)):
        object.__setattr__(s, name, value)
    return s


def representative_matrix(subspace: Subspace, n: int) -> Matrix:
    """The canonical n x m matrix with the given row space: basis rows on top,
    zero rows below."""
    if subspace.dim > n:
        raise errors.DimensionTooLargeError(f"subspace of dimension {subspace.dim} with n = {n}")
    field = subspace.field
    zero_row = (field.zero,) * subspace.ambient
    rows = list(subspace.basis) + [zero_row] * (n - subspace.dim)
    return _trusted(field, tuple(rows))


class SubspaceWitness(errors._Record):
    """Per subspace, n vectors of K^ambient and a flag: "full" (they span it) or "zero"."""

    __slots__ = ("field", "ambient", "n", "vectors", "flags")

    def __post_init__(self):
        for name in ("ambient", "n"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {errors._excerpt(value)}")
        if len(self.vectors) != len(self.flags) or not self.vectors:
            raise ValueError("witness needs one flag per subspace and at least one subspace")
        for flag in self.flags:
            if flag not in (FLAG_FULL, FLAG_ZERO):
                raise ValueError(f"unknown subspace witness flag {errors._excerpt(flag)}")
        for group in self.vectors:
            if len(group) != self.n:
                raise errors.ShapeError(f"each subspace needs {errors._excerpt(self.n)} vectors")
            for v in group:
                if len(v) != self.ambient:
                    raise errors.ShapeError("witness vector of the wrong length")
                for e in v:
                    self.field.validate(e)


def solve_subspace_dependence(subspaces, n: int) -> SubspaceWitness | None:
    """Witness that the subspaces are GL(n)-dependent, or None.

    The family is checked through its canonical representative matrices:
    representative_matrix refuses a dimension above n, then
    matrix._one_field_and_shape an empty family, mixed fields or mixed
    ambients.  With k >= m+1 subspaces the field-appropriate matrix solver
    always succeeds on them.  With fewer the answer can go either way; over a
    finite field the brute-force oracle decides it under its default cap,
    while over the rationals fewer than m+1 subspaces raise
    TooFewMatricesError.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an int >= 1, got {errors._excerpt(n)}")
    subspaces = list(subspaces)
    reps = [representative_matrix(L, n) for L in subspaces]
    field, _, m = _one_field_and_shape(reps)
    if len(subspaces) >= m + 1:
        witness = finite_solver.solve_finite(reps) if field.is_finite else rational_solver.solve_rational(reps)
    elif field.is_finite:
        witness = oracle.brute_force_witness(reps)
        if witness is None:
            return None
    else:
        raise errors.TooFewMatricesError(
            f"cannot decide {len(subspaces)} subspaces of K^{m} over an infinite field"
        )
    groups = []
    flags = []
    for g, rep in zip(witness.entries, reps):
        groups.append((g * rep).entries)
        flags.append(FLAG_ZERO if g.is_zero() else FLAG_FULL)
    result = SubspaceWitness(field, m, n, tuple(groups), tuple(flags))
    verify_subspace_witness(subspaces, result)
    return result


def verify_subspace_witness(subspaces, witness: SubspaceWitness) -> None:
    """Check a subspace witness; raise SubspaceVerificationError on failure.

    Conditions: every vector lies in its subspace; the vectors in each row
    position sum to zero; each group spans exactly its subspace ("full") or is
    entirely zero ("zero"); and not every flag is "zero".  Like verify_witness
    it calls only elimination routines: a group of vectors of L spans L
    exactly when its rank is dim L.
    """
    subspaces = list(subspaces)
    if len(subspaces) != len(witness.vectors):
        raise SubspaceVerificationError(
            "shape-mismatch", detail=f"{len(subspaces)} subspaces vs {len(witness.vectors)} groups"
        )
    field = witness.field
    for L in subspaces:
        if L.field != field:
            raise SubspaceVerificationError("field-mismatch")
        if L.ambient != witness.ambient:
            raise SubspaceVerificationError("shape-mismatch", detail="ambient dimension differs")
    if all(flag == FLAG_ZERO for flag in witness.flags):
        raise SubspaceVerificationError("all-zero")
    for i, (L, group) in enumerate(zip(subspaces, witness.vectors)):
        coords = span_solve(field, group, L.basis)
        if None in coords:
            raise SubspaceVerificationError("membership", subspace=i, vector=coords.index(None))
    zero = field.zero
    for j in range(witness.n):
        total = [zero] * witness.ambient
        for group in witness.vectors:
            total = [field.add(a, b) for a, b in zip(total, group[j])]
        if any(e != zero for e in total):
            raise SubspaceVerificationError("sum-nonzero", row=j)
    for i, (L, group, flag) in enumerate(zip(subspaces, witness.vectors, witness.flags)):
        if flag == FLAG_ZERO:
            if any(e != zero for v in group for e in v):
                raise SubspaceVerificationError("span", subspace=i, detail="zero flag on nonzero vectors")
        elif rref(_trusted(field, group)).rank != L.dim:
            raise SubspaceVerificationError("span", subspace=i, detail="span differs from the subspace")


def subspace_to_json(subspace: Subspace) -> dict:
    enc = subspace.field.element_to_json
    return {
        "field": field_to_json(subspace.field),
        "ambient": subspace.ambient,
        "basis": [[enc(e) for e in row] for row in subspace.basis],
    }


def _subspaces_from_rows(field: Field, ambient, groups) -> list[Subspace]:
    """One subspace per group of spanning rows decoded from JSON; ParseError
    unless ambient is a positive int and every row a list of ambient entries."""
    errors._check_positive_int(ambient, "'ambient'")
    if not isinstance(groups, list):
        raise errors.ParseError("subspaces must be given as lists of spanning rows")
    dec = field.element_from_json
    out = []
    for rows in groups:
        if not isinstance(rows, list):
            raise errors.ParseError("each subspace must be a list of spanning rows")
        for row in rows:
            if not isinstance(row, list) or len(row) != ambient:
                raise errors.ParseError(f"each spanning row must be a list of {errors._excerpt(ambient)} entries")
        out.append(Subspace.from_vectors(field, ambient, [[dec(e) for e in row] for row in rows]))
    return out


def subspace_witness_to_json(witness: SubspaceWitness) -> dict:
    enc = witness.field.element_to_json
    return {
        "field": field_to_json(witness.field),
        "ambient": witness.ambient,
        "n": witness.n,
        "flags": list(witness.flags),
        "vectors": [[[enc(e) for e in v] for v in group] for group in witness.vectors],
    }


def subspace_witness_from_json(obj) -> SubspaceWitness:
    errors._check_object(obj, "subspace witness", ("field", "ambient", "n", "flags", "vectors"))
    errors._check_positive_int(obj["ambient"], "subspace witness 'ambient'")
    errors._check_positive_int(obj["n"], "subspace witness 'n'")
    field = field_from_json(obj["field"])
    dec = field.element_from_json
    try:
        vectors = tuple(
            tuple(tuple(dec(e) for e in v) for v in group) for group in obj["vectors"]
        )
        flags = tuple(obj["flags"])
    except TypeError:
        raise errors.ParseError("subspace witness 'vectors' must be nested lists") from None
    try:
        return SubspaceWitness(field, obj["ambient"], obj["n"], vectors, flags)
    except (ValueError, errors.ShapeError) as exc:
        raise errors.ParseError(f"bad subspace witness: {exc}") from None
