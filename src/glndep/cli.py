"""Command-line front end: solve, verify, subspace-solve, make-h, oracle, check-theorem.

Exit codes: 0 success, 1 verification failure (or a failed theorem sweep),
2 usage or semantic errors, 3 I/O and input-format errors.  Identical inputs
and flags produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import partial

from . import certificate, errors, fields, finite_solver, fullrank, matrix, oracle, rational_solver, subspaces

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

# The most UTF-8 bytes main prints for one error, newline excluded: an
# OSError quotes its path whole, and other messages may quote input too.
_MESSAGE_BYTES = 1000


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise errors.ParseError(f"{path}: JSON nested too deeply") from None
        except json.JSONDecodeError:
            raise
        except UnicodeDecodeError as exc:
            raise errors.ParseError(f"{path}: {exc}") from None
        except ValueError:
            # json hands each integer literal to int(), which refuses one of
            # more digits than sys.get_int_max_str_digits().
            limit = sys.get_int_max_str_digits()
            raise errors.ParseError(f"{path}: an integer has more digits than the limit of {limit:,}") from None


def _emit(obj, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_size(what: str, entries: int) -> None:
    """Refuse a flag that would make more than DEFAULT_CAP matrix entries, before any is made."""
    if entries > errors.DEFAULT_CAP:
        raise errors.TooLargeError(
            f"{what} asks for {errors._excerpt(entries)} matrix entries, over the cap of {errors.DEFAULT_CAP}"
        )


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
            rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]  # made Fractions by from_rows
        matrices.append(matrix.Matrix.from_rows(field, rows))
    return matrices


def _load_instance(args, field):
    if args.input is not None:
        file_field, matrices = certificate.instance_from_json(_read_json(args.input))
        if file_field != field:
            raise errors.FieldMismatchError(
                f"--field selects {field!r} but the instance is over {file_field!r}"
            )
        return matrices
    n, m, k = args.random
    # First: with a zero size the product passes the cap, yet range(N) still runs N times.
    if min(n, m, k) < 1:
        raise ValueError("--random N M K must each be >= 1")
    _check_size("--random N M K", n * m * k)
    matrices = _random_instance(field, n, m, k, args.seed)
    if args.save_instance:
        _emit(certificate.instance_to_json(field, matrices), args.save_instance)
    return matrices


def _cmd_solve(args) -> int:
    field = fields.parse_field(args.field)
    matrices = _load_instance(args, field)
    if not field.is_finite:
        witness = rational_solver.solve_rational(matrices)
    elif args.unsafe_finite:
        witness = rational_solver.solve_unsafe_finite(matrices)
    else:
        witness = finite_solver.solve_finite(matrices)
    certificate.verify_witness(matrices, witness)
    _emit(certificate.witness_to_json(witness), args.output)
    print("OK")
    return EXIT_OK


def _cmd_verify(args) -> int:
    field, matrices = certificate.instance_from_json(_read_json(args.instance))
    witness = certificate.witness_from_json(_read_json(args.witness))
    if witness.field != field:
        raise certificate.VerificationError("field-mismatch", detail="witness and instance fields differ")
    certificate.verify_witness(matrices, witness)
    print("OK")
    return EXIT_OK


def _cmd_subspace_solve(args) -> int:
    obj = _read_json(args.input)
    errors._check_object(obj, "subspace input", ("field", "ambient", "subspaces"))
    field = fields.field_from_json(obj["field"])
    family = subspaces._subspaces_from_rows(field, obj["ambient"], obj["subspaces"])
    # Each subspace becomes an n x ambient representative matrix.
    _check_size("--n", args.n * obj["ambient"] * len(family))
    witness = subspaces.solve_subspace_dependence(family, args.n)
    if witness is None:
        _emit({"dependent": False}, args.output)
        print("INDEPENDENT")
    else:
        _emit({"dependent": True, "witness": subspaces.subspace_witness_to_json(witness)}, args.output)
        print("OK")
    return EXIT_OK


def _cmd_make_h(args) -> int:
    # H is n matrices of n x n, built over an extension found by a degree-n search.
    _check_size("--n", args.n ** 3)
    field = fields.parse_field(args.field)
    basis = fullrank.build_fullrank_basis(field, args.n)
    _emit(fullrank.fullrank_to_json(basis), args.output)
    print("OK")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    field, matrices = certificate.instance_from_json(_read_json(args.input))
    witness = oracle.brute_force_witness(matrices, cap=args.cap)
    if witness is None:
        _emit({"dependent": False}, args.output)
        print("INDEPENDENT")
    else:
        certificate.verify_witness(matrices, witness)
        _emit({"dependent": True, "witness": certificate.witness_to_json(witness)}, args.output)
        print("OK")
    return EXIT_OK


def _cmd_check_theorem(args) -> int:
    # The flags are checked before the field is built: that is bounded too, but not free.
    errors._check_sweep_size(args.q, args.n, args.m, args.cap)
    field = fields.field_from_order(args.q)
    report = oracle.exhaustive_theorem_check(field, args.n, args.m, cap=args.cap)
    _emit(oracle.report_to_json(report), args.output)
    ok = report.all_have_witness and report.solver_agrees
    print(
        f"check-theorem q={args.q} n={args.n} m={args.m}: {report.instances} instances, "
        f"all_have_witness={report.all_have_witness}, solver_agrees={report.solver_agrees}"
    )
    return EXIT_OK if ok else EXIT_VERIFY


def _usage_error(parser: argparse.ArgumentParser, message: str):
    """parser.error with the message cut like glndep's own: argparse quotes a bad value whole."""
    argparse.ArgumentParser.error(parser, errors._cut(message))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glndep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance and write a verified witness")
    p.add_argument("--field", required=True, help="prime:p | ext:p:k | rational")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="instance JSON path")
    source.add_argument("--random", nargs=3, type=int, metavar=("N", "M", "K"), help="generate a random instance")
    p.add_argument("--output", help="witness JSON path (stdout if omitted)")
    p.add_argument("--unsafe-finite", action="store_true", help="recursive algorithm on a finite field")
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
    p.add_argument("--cap", type=int, default=errors.DEFAULT_CAP)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("check-theorem", help="exhaustively certify all instances of a shape")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--cap", type=int, default=errors.DEFAULT_CAP)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_check_theorem)

    for p in (parser, *sub.choices.values()):
        p.error = partial(_usage_error, p)
    return parser


def _report(prefix: str, exc: Exception) -> None:
    """Print "prefix: exc" on stderr, cut to _MESSAGE_BYTES UTF-8 bytes."""
    message = f"{prefix}: {exc}"
    data = message.encode("utf-8", "backslashreplace")
    if len(data) > _MESSAGE_BYTES:
        message = data[: _MESSAGE_BYTES - 3].decode("utf-8", "ignore") + "..."
    print(message, file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, errors.ParseError) as exc:
        _report("input error", exc)
        return EXIT_IO
    except errors.WitnessError as exc:
        _report("verification failed", exc)
        return EXIT_VERIFY
    except (errors.Error, ValueError, ZeroDivisionError) as exc:
        _report("error", exc)
        return EXIT_USAGE


def run() -> None:
    """Process entry of `python -m glndep.cli` and of the `glndep` script: main, then exit.

    gc.freeze() puts every live object out of the collector's reach, so the
    interpreter's final collections at exit skip them (a few ms of a ~50 ms
    command).  Nothing waits on those collections: main has closed every file
    it opened, and the package has no __del__, atexit or weakref.finalize (a
    test in test_certificate.py checks both).  Callers of main keep normal
    collection.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
