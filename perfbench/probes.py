"""Frontier probes: the slow rows of the ROADMAP baseline table, one shot each.

    python3 perfbench/probes.py [--timeout SECONDS] [--case NAME ...]

Each case runs once in a fresh process under the timeout and reports its wall
seconds, or "timeout".  The probes are not part of run.py's workloads or
metrics: they show whether a case has come inside a time limit at all, which
a steady benchmark cannot.  Results are printed and written to
.perfbench_out/probes.json.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PROBE_SEED = 1


def _h(q, n):
    import glndep

    glndep.build_fullrank_basis(glndep.field_from_order(q), n)


def _sweep(q, n, m):
    import glndep

    report = glndep.exhaustive_theorem_check(glndep.field_from_order(q), n, m)
    if not (report.all_have_witness and report.solver_agrees):
        raise RuntimeError(f"sweep ({q},{n},{m}) failed: {report.failures[:3]}")


def _rank1_worst():
    """Worst wall time of solve_rational + verify_witness over 30 rank-1-row
    8x8 instances (k = 9)."""
    import random

    import glndep
    import workloads

    worst = 0.0
    for i in range(30):
        rng = random.Random(f"probe-rank1/{PROBE_SEED}/{i}")
        mats = workloads.make_matrices(rng, workloads.QQ, "rank1", 8, 8, 9)
        t0 = time.perf_counter()
        glndep.verify_witness(mats, glndep.solve_rational(mats))
        worst = max(worst, time.perf_counter() - t0)
    return worst


CASES = {
    "h-gf256-n4": lambda: _h(256, 4),
    "h-gf101-n6": lambda: _h(101, 6),
    "h-gf1009-n4": lambda: _h(1009, 4),
    "h-gf1009-n5": lambda: _h(1009, 5),
    "sweep-3-2-2": lambda: _sweep(3, 2, 2),
    "sweep-2-3-2": lambda: _sweep(2, 3, 2),
    "rational-rank1-8x8-worst-of-30": _rank1_worst,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/probes.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per case")
    parser.add_argument("--case", action="append", choices=sorted(CASES), help="run only these cases")
    parser.add_argument("--run-case", choices=sorted(CASES), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "glndep", "__init__.py")):
        print(f"probes: no glndep package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.run_case:
        t0 = time.perf_counter()
        value = CASES[args.run_case]()
        print(json.dumps({"seconds": value if value is not None else time.perf_counter() - t0}))
        return 0

    import workloads

    os.makedirs(workloads.OUT, exist_ok=True)
    results = {}
    for name in args.case or CASES:
        argv = [sys.executable, os.path.abspath(__file__), "--run-case", name]
        rc, elapsed, _, stdout, stderr = workloads.run_child(argv, "probe", timeout=args.timeout)
        if rc == 0:
            results[name] = json.loads(stdout.decode().strip().splitlines()[-1])["seconds"]
        elif elapsed >= args.timeout:
            results[name] = "timeout"
        else:
            results[name] = f"error {rc}: {stderr.decode(errors='replace').strip().splitlines()[-1:]}"
        shown = f"{results[name]:.3f} s" if isinstance(results[name], float) else results[name]
        print(f"{name:34s} {shown}", flush=True)
    with open(os.path.join(workloads.OUT, "probes.json"), "w", encoding="utf-8") as fh:
        json.dump({"timeout_s": args.timeout, "results": results}, fh, indent=2)
    print(json.dumps({"timeout_s": args.timeout, "probes": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
