"""Fuzzing the CLI in process: mutated instance, witness and family JSON, and
mutated field selectors, must each end in an exit code 0-3 within a time bound,
with a short message on stderr.

Every example starts from a valid document, changes one node of it (a wrong
type, a huge or negative int, a deleted key, a nesting deeper than the JSON
parser allows, an extension field of large degree) and runs one command on
it.  An uncaught exception fails the example, and so does a run still going
after SECONDS_PER_EXAMPLE: a SIGALRM timer interrupts it, so a hang fails the
test instead of stalling the suite.
"""

import contextlib
import io
import json
import signal
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glndep.certificate import instance_to_json, witness_to_json
from glndep.cli import main
from glndep.fields import ExtensionField, PrimeField
from glndep.finite_solver import solve_finite
from glndep.matrix import Matrix
from glndep.rational_solver import solve_rational
from glndep.rationals import RationalField

SECONDS_PER_EXAMPLE = 5.0
# A node replaced by this string is written as a nesting of [ ... ] deeper
# than json.load can parse.
DEEP = "@deep@"
DEEP_TEXT = "[" * 100_000 + "]" * 100_000


def _instance(field, rows_per_matrix):
    matrices = [Matrix.from_rows(field, rows) for rows in rows_per_matrix]
    return instance_to_json(field, matrices), matrices


def _documents():
    """(selector, instance, witness, family) of valid documents, one per field."""
    docs = []
    gf3, gf4, qq = PrimeField(3), ExtensionField(2, 2), RationalField()
    for selector, field, rows, solve in (
        ("prime:3", gf3, [[[1], [2]], [[0], [1]], [[1], [1]]], solve_finite),
        ("ext:2:2", gf4, [[[(0, 1), (1, 0)]], [[(1, 1), (0, 0)]], [[(0, 0), (1, 0)]]], solve_finite),
        ("rational", qq, [[[1, 2], [0, -1]], [[3, 0], [1, 1]], [[0, 1], [2, 0]]], solve_rational),
    ):
        instance, matrices = _instance(field, rows)
        witness = witness_to_json(solve(matrices))
        # Three lines of the plane: the row spaces of (1 0), (0 1) and (1 1).
        zero, one = field.element_to_json(field.zero), field.element_to_json(field.one)
        family = {
            "field": instance["field"],
            "ambient": 2,
            "subspaces": [[[one, zero]], [[zero, one]], [[one, one]]],
        }
        docs.append((selector, instance, witness, family))
    return docs


DOCUMENTS = _documents()


@contextlib.contextmanager
def _any_int_digits():
    """Lift the limit on the digits of an int written as text, which 10 ** 5000
    exceeds, while the test writes its own inputs; glndep reads them under it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _text(value) -> str:
    with _any_int_digits():
        return str(value)


# 10 ** 5000 has more digits than int() reads from text by default (4,300);
# the cube of 10 ** 1499, 4,498 digits, has more than str() writes.
_HUGE = st.sampled_from(
    [10 ** 400, -(10 ** 400), 10 ** 1499, 10 ** 5000, 2 ** 64, 2 ** 64 + 1, 2 ** 31, -1, 0, 10 ** 12]
)
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.integers(-5, 5),
    _HUGE,
    _HUGE.map(_text),
    st.sampled_from(["", "1/0", "0/5", "-1", "x", "9" * 5000, "1e9", "Infinity"]),
    st.sampled_from(["1e100000000", "-1e-999999999", "0e123456789"]),
    # Read within the limits, but 10^4300 has more digits than str() writes,
    # and so may a multiplier the solver makes from it.
    st.just("1e4300"),
    st.lists(st.integers(-2, 2), max_size=3),
    st.just({}),
    st.just(DEEP),
)
# Extension fields of large degree, refused by the cap of 2^64 elements;
# the modulus list holds k + 1 coefficients, as a well-formed descriptor does.
_EXT_DESCRIPTORS = st.builds(
    lambda p, k: {"kind": "ext", "p": p, "k": k, "modulus": ["1"] + ["0"] * (k - 1) + ["1"]},
    st.sampled_from([2, 3, 5]),
    st.integers(65, 3000),
) | st.builds(
    lambda p, k: {"kind": "ext", "p": p, "k": k, "modulus": ["1", "1"]},
    st.sampled_from([2, 3, 2 ** 31 - 1, 2 ** 31, 4]),
    st.one_of(st.integers(-2, 3), _HUGE),
)
# Selector numbers of more digits than int() reads from text, some with
# leading zeros or a sign.
_LONG_NUMBERS = st.builds(
    "{}{}".format, st.sampled_from(["", "-", "0" * 4300]), st.integers(4301, 6000).map("9".__mul__)
)
# The valid fields among these are prime fields below 41, GF(4), GF(8), GF(9)
# and GF(27).  make-h and solve --random build H over them, and the search for
# H's modulus is not bounded in time over every field the cap allows (see
# README, Limits): `make-h --field ext:2147483647:2 --n 2` would test the
# 2^31 elements of the prime subfield, all squares there, before any x^2 + c
# that can be irreducible.
_SELECTORS = st.one_of(
    st.sampled_from(["prime:3", "ext:2:2", "rational", "prime:", "ext:2", "rational:1", "", "prime:4"]),
    st.builds("prime:{}".format, st.one_of(st.integers(-3, 40), _HUGE).map(_text) | _LONG_NUMBERS),
    st.builds("ext:{}:{}".format, st.sampled_from([2, 3, 4, 0, -2, 2 ** 31]).map(str) | _LONG_NUMBERS,
              st.one_of(st.integers(-2, 3), st.integers(65, 10 ** 6), _HUGE).map(_text) | _LONG_NUMBERS),
    st.text(max_size=12),
)


@st.composite
def _mutated(draw, doc):
    """doc with its field descriptor replaced, or with one node, chosen by a
    walk from the root, replaced or deleted."""
    doc = json.loads(json.dumps(doc))
    action = draw(st.sampled_from(["junk", "junk", "delete", "field"]))
    if action == "field":
        doc["field"] = draw(_EXT_DESCRIPTORS)
        return doc
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        parent, key = node, draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    if parent is None:
        return draw(_JUNK) if action == "junk" else doc
    if action == "delete":
        del parent[key]
    else:
        parent[key] = draw(_JUNK)
    return doc


def _write(path, doc):
    with _any_int_digits():
        text = json.dumps(doc)
    path.write_text(text.replace(json.dumps(DEEP), DEEP_TEXT))


class Hang(Exception):
    pass


def _on_alarm(signum, frame):
    raise Hang(f"still running after {SECONDS_PER_EXAMPLE} s")


@st.composite
def _runs(draw, tmp):
    """One argv, with its input files written to tmp."""
    selector, instance, witness, family = draw(st.sampled_from(DOCUMENTS))
    inst, wit, fam, out = (str(tmp / name) for name in ("inst.json", "wit.json", "fam.json", "out.json"))
    command = draw(st.sampled_from(
        ["solve", "solve-random", "verify", "oracle", "subspace-solve", "make-h", "check-theorem"]
    ))
    small = st.integers(-1, 3).map(str)
    size = small | _HUGE.map(_text)
    if command in ("solve", "verify", "oracle"):
        mutate_witness = command == "verify" and draw(st.booleans())
        _write(tmp / "inst.json", instance if mutate_witness else draw(_mutated(instance)))
        _write(tmp / "wit.json", draw(_mutated(witness)) if mutate_witness else witness)
    if command == "solve":
        if draw(st.booleans()):
            selector = draw(_SELECTORS)
        return ["solve", "--field", selector, "--input", inst, "--output", out]
    if command == "solve-random":
        n, m, k = draw(size), draw(size), draw(size)
        return ["solve", "--field", draw(_SELECTORS), "--random", n, m, k, "--output", out]
    if command == "verify":
        return ["verify", "--instance", inst, "--witness", wit]
    if command == "oracle":
        return ["oracle", "--input", inst, "--output", out]
    if command == "subspace-solve":
        _write(tmp / "fam.json", draw(_mutated(family)))
        return ["subspace-solve", "--input", fam, "--n", draw(small), "--output", out]
    if command == "make-h":
        return ["make-h", "--field", draw(_SELECTORS), "--n", draw(size), "--output", out]
    # The cap keeps every sweep that is allowed to start short.
    q = draw(st.one_of(st.integers(-2, 9), _HUGE, st.just(2 ** 61 - 1)))
    n, m, cap = draw(small), draw(small), draw(st.sampled_from(["-1", "0", "100", "1000"]))
    return ["check-theorem", "--q", _text(q), "--n", n, "--m", m, "--cap", cap, "--output", out]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_ends_in_a_documented_exit_code(tmp_path, data):
    argv = data.draw(_runs(tmp_path), label="argv")
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SECONDS_PER_EXAMPLE)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # No advice meant for programmers, and no whole input value echoed back.
    assert "set_int_max_str_digits" not in err.getvalue()
    assert len(err.getvalue().encode()) < 1024, err.getvalue()[:300]
