"""Child-process entry points of the benchmark.

    child.py setup --workload W --seed S
        Time a fresh interpreter's set-up of workload W: importing glndep,
        making the inputs and the declared warm-up.  Prints the seconds.
    child.py sweep --q Q --n N --m M [--spans PATH --op I]
        Run exhaustive_theorem_check for one shape in this fresh process and
        print its wall time and report as JSON.
    child.py cli --spans PATH --op I -- ARGV...
        Traced launcher: install the span wrappers, then run
        glndep.cli.main(ARGV) as ``python -m glndep.cli ARGV`` would.

With --spans, the spans are written to PATH once, when the work is done.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main(argv):
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p = sub.add_parser("sweep")
    for flag in ("--q", "--n", "--m"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--spans")
    p.add_argument("--op", type=int, default=0, help="operation id recorded on the spans")
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("--op", type=int, default=0, help="operation id recorded on the spans")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        import workloads

        workloads.SETUPS[args.workload](args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0

    import glndep

    if args.mode == "cli":
        import glndep.cli  # before install(), so cli's own bindings are wrapped too
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.op_id = args.op
    if args.mode == "sweep":
        t0 = time.perf_counter()
        report = glndep.exhaustive_theorem_check(glndep.field_from_order(args.q), args.n, args.m)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.spans().dump(args.spans)
        print(json.dumps({"elapsed": elapsed, "report": glndep.report_to_json(report)}, sort_keys=True))
        return 0

    cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    try:
        return tracer.wrap("cli.main", glndep.cli.main)(cli_argv)
    finally:
        tracer.spans().dump(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
