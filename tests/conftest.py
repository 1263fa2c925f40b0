"""Shared randomized-construction helpers and solver instrumentation for the test suite."""

import random
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction

import pytest

from glndep import rational_solver
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


def scaled(m, c):
    """c * m, entry by entry in the field's own arithmetic: a reference for
    the combinations that matrix._add_scaled computes."""
    return Matrix(m.field, tuple(tuple(m.field.mul(c, e) for e in row) for row in m.entries))


def random_invertible(rng, field, n):
    while True:
        m = random_matrix(rng, field, n, n)
        if det(m) != field.zero:
            return m


def _small_element(rng, field, bound):
    # An extension field draws from all of its elements, not just its prime subfield.
    if isinstance(field, ExtensionField):
        return field.element_from_index(rng.randrange(field.cardinality))
    v = rng.randint(-bound, bound)
    return Fraction(v) if field.cardinality is None else v % field.p


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


class Correction(namedtuple("Correction", "matrices gs good j new_gs good_after")):
    """One call of rational_solver.correct_bad_index: the m+1 matrices of its
    recursion level, the multipliers and invertible set before and after, and
    the repaired index j."""

    @property
    def x(self):
        """The correction scalar: new_gs[j] - gs[j] is x times the identity."""
        field = self.gs[0].field
        return field.sub(self.new_gs[self.j].entries[0][0], self.gs[self.j].entries[0][0])


@contextmanager
def recorded_corrections():
    """Yield a list that gains one Correction per repair the recursive solver makes.

    Wraps rational_solver._solve_core, to know the matrices of the recursion
    level in progress, and rational_solver.correct_bad_index, to record each
    call; both are restored on exit.
    """
    records = []
    levels = []
    solve_core, correct_bad_index = rational_solver._solve_core, rational_solver.correct_bad_index

    def traced_solve_core(matrices):
        levels.append(matrices)
        try:
            return solve_core(matrices)
        finally:
            levels.pop()

    def traced_correct_bad_index(gs, good, j, alpha_rows):
        new_gs, good_after = correct_bad_index(gs, good, j, alpha_rows)
        records.append(Correction(levels[-1], gs, good, j, new_gs, good_after))
        return new_gs, good_after

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rational_solver, "_solve_core", traced_solve_core)
        mp.setattr(rational_solver, "correct_bad_index", traced_correct_bad_index)
        yield records


def assert_correction_invariants(rec: Correction):
    """A correction keeps its level's weighted sum at zero, adds x*I to g_j,
    strictly grows the invertible set by j, and over QQ takes x within the
    scan bound n*(number of conditions) + 1, one condition for j and one per
    invertible g_i."""
    field = rec.matrices[0].field
    n = rec.new_gs[0].rows
    total = Matrix.zero(field, n, rec.matrices[0].cols)
    for g, m in zip(rec.new_gs, rec.matrices):
        total = total + g * m
    assert total.is_zero(), "weighted sum drifted during a correction"
    x = rec.x
    assert x != field.zero
    assert rec.new_gs[rec.j] == rec.gs[rec.j] + scaled(Matrix.identity(field, n), x)
    assert rec.good < rec.good_after, "good-index set did not strictly grow"
    assert rec.j in rec.good_after
    if not field.is_finite:
        assert x <= n * (len(rec.good) + 1) + 1, "correction scalar exceeded its scan bound"
