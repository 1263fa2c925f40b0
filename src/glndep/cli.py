"""Command-line front end: solve, verify, subspace-solve, make-h, oracle, check-theorem.

Exit codes: 0 success, 1 verification failure (or a failed theorem sweep),
2 usage or semantic errors, 3 I/O and input-format errors.  Identical inputs
and flags produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import errors
from .certificate import (
    VerificationError,
    instance_from_json,
    instance_to_json,
    verify_witness,
    witness_from_json,
    witness_to_json,
)
from .fields import field_from_json, field_from_order, parse_field
from .fullrank import build_fullrank_basis, fullrank_to_json
from .matrix import Matrix
from .oracle import DEFAULT_CAP, brute_force_witness, exhaustive_theorem_check, report_to_json
from .finite_solver import solve_finite
from .rational_solver import solve_rational, solve_unsafe_finite
from .subspaces import (
    SubspaceVerificationError,
    _subspaces_from_rows,
    solve_subspace_dependence,
    subspace_witness_to_json,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_size(what: str, entries: int) -> None:
    """Refuse a flag that would make more than DEFAULT_CAP matrix entries, before any is made."""
    if entries > DEFAULT_CAP:
        raise errors.TooLargeError(f"{what} asks for {entries} matrix entries, over the cap of {DEFAULT_CAP}")


def _random_instance(field, n: int, m: int, k: int, seed: int):
    import random  # here, not at the top: only --random pays for the import

    rng = random.Random(seed)
    matrices = []
    for _ in range(k):
        if field.is_finite:
            rows = [
                [field.element_from_index(rng.randrange(field.cardinality)) for _ in range(m)]
                for _ in range(n)
            ]
        else:
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)]
        matrices.append(Matrix.from_rows(field, rows))
    return matrices


def _load_instance(args, field):
    if args.input is not None:
        file_field, matrices = instance_from_json(_read_json(args.input))
        if file_field != field:
            raise errors.FieldMismatchError(
                f"--field selects {field!r} but the instance is over {file_field!r}"
            )
        return matrices
    if args.random is not None:
        n, m, k = args.random
        _check_size("--random N M K", n * m * k)
        matrices = _random_instance(field, n, m, k, args.seed)
        if args.save_instance:
            _emit(instance_to_json(field, matrices), args.save_instance)
        return matrices
    raise ValueError("either --input or --random N M K is required")


def _cmd_solve(args) -> int:
    field = parse_field(args.field)
    matrices = _load_instance(args, field)
    if field.is_finite:
        witness = solve_unsafe_finite(matrices) if args.unsafe_finite else solve_finite(matrices)
    else:
        witness = solve_rational(matrices)
    verify_witness(matrices, witness)
    _emit(witness_to_json(witness), args.output)
    print("OK")
    return EXIT_OK


def _cmd_verify(args) -> int:
    field, matrices = instance_from_json(_read_json(args.instance))
    witness = witness_from_json(_read_json(args.witness))
    if witness.field != field:
        raise VerificationError("field-mismatch", detail="witness and instance fields differ")
    verify_witness(matrices, witness)
    print("OK")
    return EXIT_OK


def _cmd_subspace_solve(args) -> int:
    obj = _read_json(args.input)
    errors._check_object(obj, "subspace input", ("field", "ambient", "subspaces"))
    family = _subspaces_from_rows(field_from_json(obj["field"]), obj["ambient"], obj["subspaces"])
    # Each subspace becomes an n x ambient representative matrix.
    _check_size("--n", args.n * obj["ambient"] * len(family))
    witness = solve_subspace_dependence(family, args.n)
    if witness is None:
        _emit({"dependent": False}, args.output)
        print("INDEPENDENT")
    else:
        _emit({"dependent": True, "witness": subspace_witness_to_json(witness)}, args.output)
        print("OK")
    return EXIT_OK


def _cmd_make_h(args) -> int:
    # H is n matrices of n x n, built over an extension found by a degree-n search.
    _check_size("--n", args.n ** 3)
    field = parse_field(args.field)
    basis = build_fullrank_basis(field, args.n)
    _emit(fullrank_to_json(basis), args.output)
    print("OK")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    field, matrices = instance_from_json(_read_json(args.input))
    witness = brute_force_witness(matrices, cap=args.cap)
    if witness is None:
        _emit({"dependent": False}, args.output)
        print("INDEPENDENT")
    else:
        verify_witness(matrices, witness)
        _emit({"dependent": True, "witness": witness_to_json(witness)}, args.output)
        print("OK")
    return EXIT_OK


def _cmd_check_theorem(args) -> int:
    field = field_from_order(args.q)
    report = exhaustive_theorem_check(field, args.n, args.m, cap=args.cap)
    _emit(report_to_json(report), args.output)
    ok = report.all_have_witness and report.solver_agrees
    print(
        f"check-theorem q={args.q} n={args.n} m={args.m}: {report.instances} instances, "
        f"all_have_witness={report.all_have_witness}, solver_agrees={report.solver_agrees}"
    )
    return EXIT_OK if ok else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glndep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance and write a verified witness")
    p.add_argument("--field", required=True, help="prime:p | ext:p:k | rational")
    p.add_argument("--input", help="instance JSON path")
    p.add_argument("--output", help="witness JSON path (stdout if omitted)")
    p.add_argument("--unsafe-finite", action="store_true", help="recursive algorithm on a finite field")
    p.add_argument("--random", nargs=3, type=int, metavar=("N", "M", "K"), help="generate a random instance")
    p.add_argument("--seed", type=int, default=0, help="seed for --random")
    p.add_argument("--save-instance", help="also write the generated instance JSON here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="verify a witness against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--witness", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("subspace-solve", help="decide GL(n)-dependence of subspaces")
    p.add_argument("--input", required=True, help="family JSON: field, ambient, subspaces")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_subspace_solve)

    p = sub.add_parser("make-h", help="build a full-rank matrix subspace basis")
    p.add_argument("--field", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_make_h)

    p = sub.add_parser("oracle", help="brute-force witness search over a finite field")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("check-theorem", help="exhaustively certify all instances of a shape")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_check_theorem)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (VerificationError, SubspaceVerificationError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (OSError, json.JSONDecodeError, errors.ParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (errors.Error, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
