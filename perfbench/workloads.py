"""Seeded inputs and the operations of each benchmark workload.

A workload is a pool of operations made from the seed during set-up.  The pool
repeats one block of fields, shapes and input kinds; only the matrix entries
come from the seed, so every seed measures the same mix.

Every operation checks its own output independently of the code that made it
(``verify_witness``, ``verify_subspace_witness``, the sweep report's own
claims, or an in-process re-verification of a CLI output file) and returns the
output bytes, which ``run.py`` hashes into the workload digest.
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import glndep

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC)
CHILD_TIMEOUT_S = 120

QQ = glndep.RationalField()
IN_PROCESS = ("finite-solve", "rational-solve")  # the others run each operation in a child


class CheckFailed(Exception):
    """An operation's output did not pass the benchmark's check."""


@dataclass
class Op:
    kind: str  # input kind: dense | sparse | rank1 | subspace | exhaustive | none
    field: object
    n: int
    m: int
    k: int
    payload: object = None  # matrices, a subspace family, a sweep shape or CLI argv
    meta: dict = dc_field(default_factory=dict)
    instances: int = 1  # instances whose dependence the operation certifies

    @property
    def group(self) -> str:
        """The name latencies are grouped under: the CLI command, else the kind."""
        return self.meta.get("command", self.kind)


@dataclass
class Result:
    elapsed: float  # seconds of the operation alone
    output: bytes  # canonical output bytes, hashed into the digest
    maxrss_kb: int = 0  # peak RSS of the child that did the work, 0 in process


def dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Matrix generators.  Sparse matrices are ~70% zeros; a rank-1-row matrix has
# every row a multiple of one row.  No generated matrix is zero, so the
# solvers' zero-matrix shortcut never replaces the real work.

def _element(rng, field, nonzero=False):
    if field.is_finite:
        return field.element_from_index(rng.randrange(1 if nonzero else 0, field.cardinality))
    if nonzero:
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    return Fraction(rng.randint(-3, 3))


def _rows(rng, field, kind, n, m, zero_rows=None):
    """The rows of one n x m matrix.  With ``zero_rows``, a rational
    rank-1-row matrix has exactly that many zero rows and +-1 times the common
    row elsewhere, instead of a random multiplier in {-1, 0, 1} per row."""
    zero = field.zero
    if kind == "rank1":
        v = [_element(rng, field) for _ in range(m)]
        v[rng.randrange(m)] = _element(rng, field, True)
        if field.is_finite:
            u = [_element(rng, field) for _ in range(n)]
            u[rng.randrange(n)] = field.one
        elif zero_rows is None:
            u = [Fraction(rng.randint(-1, 1)) for _ in range(n)]
            u[rng.randrange(n)] = field.one
        else:
            u = [Fraction(rng.choice((-1, 1))) for _ in range(n)]
            for i in rng.sample(range(n), zero_rows):
                u[i] = zero
        return [[field.mul(a, b) for b in v] for a in u]
    if kind == "dense":
        rows = [[_element(rng, field) for _ in range(m)] for _ in range(n)]
    else:
        rows = [[_element(rng, field, True) if rng.random() < 0.3 else zero for _ in range(m)] for _ in range(n)]
    if all(e == zero for row in rows for e in row):
        rows[rng.randrange(n)][rng.randrange(m)] = _element(rng, field, True)
    return rows


def make_matrices(rng, field, kind, n, m, k, zero_rows=None):
    return [glndep.Matrix.from_rows(field, _rows(rng, field, kind, n, m, zero_rows)) for _ in range(k)]


def _family(rng, n, m, k):
    """k subspaces of QQ^m with dimensions drawn from 0..min(n, m)."""
    family = []
    for _ in range(k):
        d = rng.randint(0, min(n, m))
        vectors = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(d)]
        family.append(glndep.Subspace.from_vectors(QQ, m, vectors))
    return family


def _rng(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}")


class Pool:
    """The operations of one workload.  A traced run makes ``trace_passes``
    traced and as many untraced passes over them, alternately."""

    trace_passes = 3

    def __init__(self, name, ops):
        self.name = name
        self.ops = ops

    @property
    def in_process(self) -> bool:
        return self.name in IN_PROCESS

    def execute(self, op, index, trace_to=None) -> Result:
        t0 = time.perf_counter()
        if op.kind == "subspace":
            witness = glndep.solve_subspace_dependence(op.payload, op.n)
            if witness is None:
                raise CheckFailed("m+1 subspaces reported independent")
            glndep.verify_subspace_witness(op.payload, witness)
            elapsed = time.perf_counter() - t0
            return Result(elapsed, dumps(glndep.subspace_witness_to_json(witness)))
        mats = op.payload
        witness = glndep.solve_finite(mats) if op.field.is_finite else glndep.solve_rational(mats)
        glndep.verify_witness(mats, witness)
        elapsed = time.perf_counter() - t0
        return Result(elapsed, dumps(glndep.witness_to_json(witness)))

    def failing_input(self, op):
        if op.kind == "subspace":
            return {"n": op.n, "subspaces": [glndep.subspace_to_json(L) for L in op.payload]}
        return glndep.instance_to_json(op.field, op.payload)


# ---------------------------------------------------------------------------
# finite-solve: solve_finite + verify_witness, with H built in set-up.

GF16 = (2, 4)
# (field, n, m, kind, matrices beyond m+1).  20 slots: 8 dense, 6 sparse and
# 6 rank-1-row; 3 of 20 (15%) have k = m+2.  The three costliest slots cost
# about the same, and so do the slots around the middle, so p90 and p50 fall
# inside a group of similar operations rather than on the edge between two.
FINITE_BLOCK = [
    (2, 2, 10, "dense", 0), (2, 3, 8, "sparse", 0), (2, 4, 6, "rank1", 0),
    (2, 5, 10, "dense", 1), (2, 6, 8, "sparse", 0), (2, 6, 4, "rank1", 0),
    (3, 2, 8, "dense", 0), (3, 3, 5, "rank1", 0), (3, 4, 7, "sparse", 1),
    (3, 5, 8, "dense", 0), (3, 6, 3, "sparse", 0),
    (31, 2, 6, "sparse", 0), (31, 3, 4, "dense", 0), (31, 4, 5, "rank1", 0),
    (101, 2, 5, "rank1", 0), (101, 3, 3, "dense", 1), (101, 4, 4, "sparse", 0),
    (GF16, 2, 4, "dense", 0), (GF16, 3, 3, "rank1", 0), (GF16, 4, 2, "dense", 0),
]
FINITE_BLOCKS = 20


def setup_finite(seed):
    fields = {}
    for spec, *_ in FINITE_BLOCK:
        if spec not in fields:
            fields[spec] = glndep.ExtensionField(*spec) if isinstance(spec, tuple) else glndep.PrimeField(spec)
    ops = []
    for b in range(FINITE_BLOCKS):
        for s, (spec, n, m, kind, extra) in enumerate(FINITE_BLOCK):
            rng = _rng("finite-solve", seed, b * len(FINITE_BLOCK) + s)
            field, k = fields[spec], m + 1 + extra
            ops.append(Op(kind, field, n, m, k, make_matrices(rng, field, kind, n, m, k)))
    # The long-lived library caller's warm-up: one H per (field, n).
    for op in ops[: len(FINITE_BLOCK)]:
        glndep.build_fullrank_basis(op.field, op.n)
    return Pool("finite-solve", ops)


# ---------------------------------------------------------------------------
# rational-solve: solve_rational + verify_witness, or subspace dependence.

# (n, m, kind, matrices beyond m+1).  20 slots: 2 dense, 6 sparse, 8
# rank-1-row and 4 subspace families (20%); 3 of 20 have k = m+2.  A
# rank-1-row matrix here has exactly one zero row: whether rows vanish decides
# between the cheap direct branch and the correction chains, so a random count
# of zero rows would make the cost of one slot vary fivefold with the seed.  The
# slots come in cost groups, in the order below: 7 cheaper (35%); 7 of about
# 10-20 ms (35-70%) that hold the median; 2 upper; and 4 of about 30-60 ms
# (80-100%) that hold p90.  Each percentile then falls inside a group of
# similar operations rather than on the edge between two groups, where it would
# jump with the seed.  No slot takes much longer than the rest, so a pass is
# short and every operation runs many times in a run (see run.py).
RATIONAL_BLOCK = [
    (2, 2, "dense", 0), (3, 2, "dense", 1), (2, 2, "rank1", 0),
    (2, 3, "subspace", 0), (2, 4, "subspace", 0), (3, 3, "subspace", 0), (3, 3, "sparse", 0),
    (3, 3, "rank1", 0), (3, 3, "rank1", 0), (3, 3, "rank1", 0),
    (4, 3, "sparse", 0), (4, 3, "sparse", 0), (4, 3, "sparse", 0), (4, 3, "sparse", 0),
    (3, 4, "subspace", 0), (4, 3, "rank1", 1),
    (4, 4, "sparse", 0), (3, 4, "rank1", 0), (3, 4, "rank1", 0), (4, 4, "rank1", 1),
]
RATIONAL_BLOCKS = 5  # 100 operations, 10 beyond p90


def setup_rational(seed):
    ops = []
    for b in range(RATIONAL_BLOCKS):
        for s, (n, m, kind, extra) in enumerate(RATIONAL_BLOCK):
            rng = _rng("rational-solve", seed, b * len(RATIONAL_BLOCK) + s)
            k = m + 1 + extra
            if kind == "subspace":
                ops.append(Op(kind, QQ, n, m, k, _family(rng, n, m, k)))
            else:
                ops.append(Op(kind, QQ, n, m, k, make_matrices(rng, QQ, kind, n, m, k, zero_rows=1)))
    return Pool("rational-solve", ops)


# ---------------------------------------------------------------------------
# Workloads whose operations run in a child process.

def run_child(argv, name="child", timeout=CHILD_TIMEOUT_S):
    """Run argv to completion; return (exit code, wall seconds, peak RSS in
    KiB, stdout, stderr).  The child is killed after ``timeout`` seconds."""
    out_path = os.path.join(OUT, f"{name}.stdout")
    err_path = os.path.join(OUT, f"{name}.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], timeout)[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        finally:
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return proc.returncode, elapsed, usage.ru_maxrss, stdout, stderr


def _child_failed(what, rc, stderr):
    tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
    return CheckFailed(f"{what} exited {rc}: {' | '.join(tail)}")


# certify-sweep: exhaustive_theorem_check, one shape per fresh process, so the
# GL and H caches are cold, as `glndep check-theorem` has them.
SWEEP_SHAPES = [(2, 2, 2), (2, 1, 3), (3, 1, 2), (4, 2, 1)]


def check_report(report, q, n, m):
    """A sweep report must cover all q^(n*m*(m+1)) instances and find each
    one dependent, with the solver's witness verified."""
    expected = q ** (n * m * (m + 1))
    if report.get("instances") != expected:
        raise CheckFailed(f"sweep ({q},{n},{m}) covered {report.get('instances')} of {expected} instances")
    if report.get("all_have_witness") is not True or report.get("solver_agrees") is not True:
        raise CheckFailed(f"sweep ({q},{n},{m}) failed: {report.get('failures')}")
    if (report.get("n"), report.get("m")) != (n, m):
        raise CheckFailed(f"sweep ({q},{n},{m}) reported shape {report.get('n')}x{report.get('m')}")


class SweepPool(Pool):
    def execute(self, op, index, trace_to=None) -> Result:
        q, n, m = op.payload
        argv = [sys.executable, CHILD, "sweep", "--q", str(q), "--n", str(n), "--m", str(m)]
        if trace_to:
            argv += ["--spans", trace_to, "--op", str(index)]
        rc, _, maxrss, stdout, stderr = run_child(argv)
        if rc != 0:
            raise _child_failed(f"sweep {op.payload}", rc, stderr)
        answer = json.loads(stdout.decode().strip().splitlines()[-1])
        report = answer["report"]
        check_report(report, q, n, m)
        return Result(answer["elapsed"], dumps(report), maxrss)

    def failing_input(self, op):
        q, n, m = op.payload
        return {"q": q, "n": n, "m": m}


def setup_sweep(seed):
    shapes = list(SWEEP_SHAPES)
    random.Random(f"certify-sweep/{seed}").shuffle(shapes)
    ops = [Op("exhaustive", f"GF({q})", n, m, m + 1, (q, n, m), instances=q ** (n * m * (m + 1)))
           for q, n, m in shapes]
    return SweepPool("certify-sweep", ops)


# cli-cold: one fresh `python -m glndep.cli` per operation, round-robin over a
# fixed command list whose input files are written in set-up.  Nine of the 14
# commands cost little more than interpreter start and import, so the median
# falls inside that group rather than on its slowest member; p90 is the
# prime:31 n=6 solve, 0.2 s or more from its neighbours on either side.

def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class CliPool(Pool):
    def execute(self, op, index, trace_to=None) -> Result:
        if trace_to:
            argv = [sys.executable, CHILD, "cli", "--spans", trace_to, "--op", str(index), "--"]
        else:
            argv = [sys.executable, "-m", "glndep.cli"]
        out = op.meta.get("out")
        if out and os.path.exists(out):
            os.remove(out)
        rc, elapsed, maxrss, stdout, stderr = run_child(argv + op.payload)
        if rc != 0 or stdout.strip() != op.meta.get("stdout", b"OK"):
            raise _child_failed(op.meta["command"], rc, stderr)
        if out is None:
            return Result(elapsed, stdout, maxrss)
        with open(out, "rb") as fh:
            data = fh.read()
        op.meta["check"](json.loads(data))
        return Result(elapsed, data, maxrss)

    def failing_input(self, op):
        files = {}
        for arg in op.payload:
            if arg.endswith(".json") and arg != op.meta.get("out") and os.path.exists(arg):
                files[os.path.basename(arg)] = _read_json(arg)
        return {"argv": op.payload, "files": files}


def _checks_witness(mats):
    def check(obj):
        glndep.verify_witness(mats, glndep.witness_from_json(obj))
    return check


def _checks_subspace_witness(family):
    def check(obj):
        glndep.verify_subspace_witness(family, glndep.subspace_witness_from_json(obj))
    return check


def _checks_dependent(check_witness):
    def check(obj):
        if obj.get("dependent") is not True:
            raise CheckFailed("CLI reported a dependent input as independent")
        check_witness(obj["witness"])
    return check


def setup_cli(seed):
    d = os.path.join(OUT, f"cli-seed{seed}")
    os.makedirs(d, exist_ok=True)
    rng = random.Random(f"cli-cold/{seed}")
    ops = []

    def path(name):
        return os.path.join(d, name)

    def add(command, kind, field, n, m, k, argv, check, out=None, instances=1):
        ops.append(Op(kind, field, n, m, k, argv, {"command": command, "check": check, "out": out}, instances))

    solves = [
        ("prime:2", glndep.PrimeField(2), 4, 6, "dense"),
        ("ext:2:4", glndep.ExtensionField(2, 4), 4, 3, "sparse"),
        ("prime:31", glndep.PrimeField(31), 6, 4, "dense"),
        ("ext:2:3", glndep.ExtensionField(2, 3), 5, 3, "rank1"),
        ("rational", QQ, 3, 3, "dense"),
        ("rational", QQ, 3, 3, "sparse"),
    ]
    for i, (sel, field, n, m, kind) in enumerate(solves):
        mats = make_matrices(rng, field, kind, n, m, m + 1)
        inp, out = path(f"solve{i}.in.json"), path(f"solve{i}.out.json")
        _write_json(inp, glndep.instance_to_json(field, mats))
        argv = ["solve", "--field", sel, "--input", inp, "--output", out]
        add("solve", kind, field, n, m, m + 1, argv, _checks_witness(mats), out)

    # The witnesses to verify are made here.  GF(2^16) uses the recursive
    # solver, which needs no H: the H search over GF(2^16) takes minutes.
    for i, (field, n, m) in enumerate([(glndep.ExtensionField(2, 16), 2, 3), (glndep.PrimeField(101), 4, 5)]):
        mats = make_matrices(rng, field, "dense", n, m, m + 1)
        solve = glndep.solve_unsafe_finite if field.cardinality > 1000 else glndep.solve_finite
        witness = solve(mats)
        glndep.verify_witness(mats, witness)
        inp, wit = path(f"verify{i}.in.json"), path(f"verify{i}.witness.json")
        _write_json(inp, glndep.instance_to_json(field, mats))
        _write_json(wit, glndep.witness_to_json(witness))
        add("verify", "dense", field, n, m, m + 1, ["verify", "--instance", inp, "--witness", wit], None)

    h_out = path("make-h.out.json")

    def check_h(obj):
        basis = glndep.fullrank_from_json(obj)
        if basis.field != glndep.PrimeField(7) or basis.n != 4 or not glndep.check_fullrank_basis(basis):
            raise CheckFailed("make-h output is not a full-rank basis of 4x4 matrices over GF(7)")

    add("make-h", "none", glndep.PrimeField(7), 4, 4, 4,
        ["make-h", "--field", "prime:7", "--n", "4", "--output", h_out], check_h, h_out, instances=0)

    sweep_out = path("check-theorem.out.json")
    add("check-theorem", "exhaustive", glndep.PrimeField(3), 1, 2, 3,
        ["check-theorem", "--q", "3", "--n", "1", "--m", "2", "--output", sweep_out],
        lambda report: check_report(report, 3, 1, 2), sweep_out, instances=3 ** 6)
    ops[-1].meta["stdout"] = b"check-theorem q=3 n=1 m=2: 729 instances, all_have_witness=True, solver_agrees=True"

    gf3 = glndep.PrimeField(3)
    for i, kind in enumerate(("dense", "sparse")):
        mats = make_matrices(rng, gf3, kind, 2, 2, 3)
        inp, out = path(f"oracle{i}.in.json"), path(f"oracle{i}.out.json")
        _write_json(inp, glndep.instance_to_json(gf3, mats))
        add("oracle", kind, gf3, 2, 2, 3, ["oracle", "--input", inp, "--output", out],
            _checks_dependent(_checks_witness(mats)), out)

    n, m = 2, 3
    enc = QQ.element_to_json
    for i in range(2):
        family = _family(rng, n, m, m + 1)
        inp, out = path(f"subspace{i}.in.json"), path(f"subspace{i}.out.json")
        _write_json(inp, {
            "field": glndep.field_to_json(QQ),
            "ambient": m,
            "subspaces": [[[enc(e) for e in row] for row in L.basis] for L in family],
        })
        add("subspace-solve", "subspace", QQ, n, m, m + 1,
            ["subspace-solve", "--input", inp, "--n", str(n), "--output", out],
            _checks_dependent(_checks_subspace_witness(family)), out)
    return CliPool("cli-cold", ops)


SETUPS = {
    "finite-solve": setup_finite,
    "rational-solve": setup_rational,
    "certify-sweep": setup_sweep,
    "cli-cold": setup_cli,
}
