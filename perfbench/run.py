"""The glndep benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a glndep checkout; the package is imported from ./src.
Workloads (see workloads.py and README.md): finite-solve, rational-solve and
cli-cold, plus certify-sweep, which runs and checks the same way but whose
second-long operations leave its figures too unsteady to bound.  Every
workload is a closed loop with one client, and at most one child process runs
at a time.

--trace 0 makes passes over the workload's pool of operations until --seconds
have passed (at least MIN_PASSES whole passes; the last pass may stop part
way) and reports the end-to-end metrics.  An operation's latency is the best
of its timed executions in the run: on a shared host, other tenants slow most
executions by up to twice, in spells from under a second to tens of seconds,
and the best of many executions spread over the run filters those out where a
mean or median over executions does not.  So pools are sized for short passes:
each operation runs ten to twenty times in a run.

Spells that last a whole run still move every time in it.  So the run also
times a fixed pure-Python probe that calls nothing in glndep, every
PROBE_INTERVAL_S, and reports each time scaled by PROBE_REF_MS over the
probe's best time in the run: milliseconds on a host where the probe takes
PROBE_REF_MS.  A change to glndep moves the scaled times as it moves the raw
ones; a slower host moves both the times and the probe, and cancels.  The raw
figures are printed too.

--trace 1 runs trace_passes passes untraced and as many traced, alternately,
and reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0 when
every output checked out, 1 when one did not, and 2 when the checkout holds no
glndep sources.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("finite-solve", "rational-solve", "certify-sweep", "cli-cold")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh children spread over the run
PROBE_INTERVAL_S = 0.05  # least time between two host probes
PROBE_REF_MS = 0.7  # about the probe's best time on a quiet 2-core VM with Python 3.11
MIN_PASSES = 3
DEADLINE_S = 150  # start no new pass after this, so a run ends within 180 s
CLI_COMMANDS = ("solve", "verify", "make-h", "oracle", "subspace-solve", "check-theorem")
WITNESSLESS = ("exhaustive", "verify", "make-h", "check-theorem")  # outputs that hold no witness

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("certified_instances_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def _layer(prefix, *suffixes):
    units = {"calls": "count", "s": "s", "self_s": "s", "cells": "count", "cache_hits": "count"}
    return [(f"{prefix}.{s}", units[s]) for s in suffixes]


PER_LAYER = (
    _layer("fields.find_irreducible", "calls", "s")
    + _layer("fields.is_irreducible", "calls", "s")
    + _layer("fields.field_from_json", "calls", "s")
    + _layer("matrix.rref", "calls", "s", "self_s", "cells")
    + _layer("matrix.det", "calls", "s")
    + _layer("matrix.kernel_basis", "calls", "s")
    + _layer("matrix.span_solve", "calls", "s")
    + _layer("matrix.Matrix.mul", "calls", "s")
    + _layer("matrix.Matrix.new", "calls", "s")
    + _layer("fullrank.build_fullrank_basis", "calls", "s", "cache_hits")
    + _layer("certificate.verify_witness", "calls", "s")
    + _layer("certificate.instance_from_json", "s")
    + _layer("certificate.witness_from_json", "s")
    + _layer("finite_solver.solve_finite", "calls", "s", "self_s")
    + _layer("rational_solver.solve_rational", "calls", "s")
    + _layer("rational_solver.find_row_outside_span", "calls", "s")
    + _layer("rational_solver.project_and_recurse", "calls")
    + _layer("rational_solver.correct_bad_index", "calls")
    + _layer("rational_solver.choose_correction_scalar", "calls", "s")
    + _layer("rational_solver.row_dependences", "calls")
    + _layer("rational_solver.solve_column_pair", "calls")
    + [("rational_solver.max_entry_bits", "bits")]
    + _layer("subspaces.solve_subspace_dependence", "calls", "s")
    + _layer("subspaces.verify_subspace_witness", "s")
    + _layer("oracle.enumerate_gl", "calls", "s")
    + _layer("oracle.brute_force_witness", "calls", "s", "self_s")
    + _layer("oracle.exhaustive_theorem_check", "s")
    + [("cli.startup_ms", "ms")]
    + _layer("cli.main", "s")
    + [(f"cli.{c}.p50_ms", "ms") for c in CLI_COMMANDS]
    + [("host.calib_ms", "ms"), ("trace.overhead", "ratio")]
)


def probe_ms():
    """Milliseconds of a fixed pure-Python computation: Fraction elimination on
    a 5 x 5 matrix, modular integer arithmetic and a dict, the kinds of work
    glndep does, but none of glndep's code, so no change to glndep moves it.
    Its best time in a run is the run's host speed, ``host.calib_ms``."""
    t0 = time.perf_counter()
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(5)] for i in range(5)]
    for c in range(5):
        p = next(r for r in range(c, 5) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        for r in range(5):
            if r != c and a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    counts = {}
    for i in range(1500):
        x = ((i * 31) ^ (i >> 3)) % 101
        counts[x] = counts.get(x, 0) + i
    return (time.perf_counter() - t0) * 1e3


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Run:
    """The operations attempted in one run: results, failures and the output
    bytes of each pool slot, which must not change between executions."""

    def __init__(self, pool, seed):
        self.pool = pool
        self.seed = seed
        self.attempted = 0
        self.failures = []
        self.records = []  # (slot, Result) of every execution that passed
        self.first = {}  # slot -> output bytes of its first execution
        self.best = {}  # slot -> seconds of its fastest execution
        self.probes = [probe_ms()]  # host probe times, ms, between executions
        self.last_probe = time.perf_counter()

    def execute(self, index, trace_to=None):
        slot = index % len(self.pool.ops)
        op = self.pool.ops[slot]
        self.attempted += 1
        try:
            result = self.pool.execute(op, index, trace_to)
            if slot in self.first and self.first[slot] != result.output:
                raise ValueError("output bytes differ from an earlier execution of the same input")
        except Exception as exc:  # noqa: BLE001 - every failure is counted and saved
            self.fail(op, index, exc)
            return None
        finally:
            if time.perf_counter() - self.last_probe >= PROBE_INTERVAL_S:
                self.probes.append(probe_ms())
                self.last_probe = time.perf_counter()
        self.first.setdefault(slot, result.output)
        self.best[slot] = min(self.best.get(slot, math.inf), result.elapsed)
        self.records.append((slot, result))
        return result

    def run_pass(self, number, prepare=None):
        """Execute every pool slot once, as pass ``number`` of the run.
        ``prepare(index)``, if given, runs before each execution and returns
        the span file a traced child should write, or None."""
        size = len(self.pool.ops)
        for slot in range(size):
            index = number * size + slot
            self.execute(index, prepare(index) if prepare else None)

    def fail(self, op, index, exc):
        path = os.path.join(OUT, "failures", f"{self.pool.name}-seed{self.seed}-op{index}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        try:
            failing = self.pool.failing_input(op)
        except Exception as save_exc:  # noqa: BLE001
            failing = {"unsaved": repr(save_exc)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"error": repr(exc), "traceback": traceback.format_exc(), "input": failing}, fh, indent=1)
        self.failures.append(f"op {index} ({op.group} {op.field} n={op.n} m={op.m} k={op.k}): {exc!r} -> {path}")

    def digest(self):
        """sha256 over the output of every pool slot, in order, or None if a
        slot produced no output."""
        if len(self.first) < len(self.pool.ops):
            return None
        h = hashlib.sha256()
        for slot in range(len(self.pool.ops)):
            out = self.first[slot]
            h.update(len(out).to_bytes(8, "big"))
            h.update(out)
        return h.hexdigest()


def setup_sample(name, seed):
    import workloads

    argv = [sys.executable, workloads.CHILD, "setup", "--workload", name, "--seed", str(seed)]
    rc, _, _, stdout, stderr = workloads.run_child(argv, "setup")
    if rc != 0:
        raise RuntimeError(f"set-up child failed ({rc}): {stderr.decode(errors='replace')[-500:]}")
    return json.loads(stdout.decode().strip().splitlines()[-1])["setup_s"]


def check_digest(name, seed, digest, problems):
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    if digest is None:
        problems.append("some operation never produced an output, so the digest is unknown")
        return "incomplete"
    if seed != pinned["seed"] or name not in pinned["digests"]:
        return "not pinned for this seed"
    if pinned["digests"][name] != digest:
        problems.append(f"digest {digest} differs from the pinned {pinned['digests'].get(name)}")
        return "MISMATCH"
    return "matches the pinned digest"


def group_medians(pool, latencies):
    """Median milliseconds per operation group, from (slot, seconds) pairs."""
    groups = {}
    for slot, seconds in latencies:
        groups.setdefault(pool.ops[slot].group, []).append(seconds * 1e3)
    return {group: statistics.median(values) for group, values in groups.items()}


def print_mix(ops):
    total = len(ops)
    shares = {k: sum(op.kind == k for op in ops) / total for k in ("dense", "sparse", "rank1", "subspace")}
    extra = sum(op.k > op.m + 1 for op in ops) / total
    pairs = sorted({(str(op.field), op.n) for op in ops})
    print("input mix: " + "  ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items())
          + f"  k>m+1 {100 * extra:.1f}%  over {total} ops")
    print(f"distinct (field, n): {len(pairs)}: " + ", ".join(f"{f} n={n}" for f, n in pairs))


def measured_run(pool, args):
    """--trace 0: the end-to-end metrics.  ``pool`` was set up just now, so the
    time since start-up is this process's set-up sample.  The other set-up
    samples are taken at even intervals through the run, so that one slow
    spell does not catch them all; their time is not counted as measuring."""
    setup = [time.perf_counter() - T_START]
    run = Run(pool, args.seed)
    size = len(pool.ops)
    began = time.perf_counter()
    index = 0
    spent = 0.0  # wall seconds of the set-up samples taken inside the loop
    while True:
        run.execute(index)
        index += 1
        timed = time.perf_counter() - began - spent
        if len(setup) < SETUP_SAMPLES and timed >= args.seconds * len(setup) / SETUP_SAMPLES:
            t0 = time.perf_counter()
            setup.append(setup_sample(pool.name, args.seed))
            spent += time.perf_counter() - t0
        if (index >= MIN_PASSES * size and timed >= args.seconds) or time.perf_counter() - T_START > DEADLINE_S:
            break
    passes = index / size
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(pool.name, args.seed))

    done = sorted(run.best)
    latencies = [run.best[slot] for slot in done] or [math.nan]
    busy = sum(latencies)
    problems = list(run.failures)
    digest = run.digest()
    pinned = check_digest(pool.name, args.seed, digest, problems)
    if pool.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max((r.maxrss_kb for _, r in run.records), default=0)
    measured = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(done) / busy,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": percentile(latencies, 90) * 1e3,
        "certified_instances_per_s": sum(pool.ops[slot].instances for slot in done) / busy,
        "peak_rss_mb": rss_kb / 1024,
    }
    host_ms = min(run.probes)
    scale = {"s": PROBE_REF_MS / host_ms, "ms": PROBE_REF_MS / host_ms, "1/s": host_ms / PROBE_REF_MS, "MB": 1.0}
    metrics = {name: measured[name] * scale[unit] for name, unit in END_TO_END}
    raw = [r.elapsed for _, r in run.records] or [math.nan]
    print(f"workload {pool.name}  seed {args.seed}  untraced  {passes:.2f} passes over {len(pool.ops)} ops "
          f"in {time.perf_counter() - began - spent:.1f} s")
    print_mix(pool.ops)
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"latency = best of {math.floor(passes)} or {math.ceil(passes)} executions per op; {len(done)} ops, "
          f"{len(done) - math.ceil(0.9 * len(done))} beyond p90")
    print(f"every execution: {len(raw)}, p50 {statistics.median(raw) * 1e3:.3f} ms, "
          f"p90 {percentile(raw, 90) * 1e3:.3f} ms, {len(raw) / sum(raw):.4f} ops/s")
    print("best-of p50 by group: " + "  ".join(
        f"{g} {v:.2f} ms" for g, v in group_medians(pool, run.best.items()).items()))
    print(f"host.calib_ms {host_ms:.4f}: best of {len(run.probes)} probes (median {statistics.median(run.probes):.4f}); "
          f"times below are scaled by {PROBE_REF_MS} / {host_ms:.4f}")
    print(f"{'metric':28s} {'reported':>14s} {'as measured':>14s}")
    for name, unit in END_TO_END:
        print(f"{name:28s} {metrics[name]:14.4f} {measured[name]:14.4f} {unit}")
    print(f"{'fail_ratio':28s} {len(run.failures)}/{run.attempted}")
    print(f"digest sha256 {digest}: {pinned}")
    return run.attempted, len(run.failures), problems, {name: (metrics[name], unit) for name, unit in END_TO_END}


def entry_bits(output: bytes) -> int:
    """Largest numerator or denominator bit length in a rational witness."""
    obj = json.loads(output)
    obj = obj.get("witness", obj)
    if obj["field"]["kind"] != "rational":
        return 0
    if "vectors" in obj:
        values = [e for group in obj["vectors"] for v in group for e in v]
    else:
        values = [e for entry in obj["entries"] if "matrix" in entry for row in entry["matrix"]["entries"] for e in row]
    return max((max(f.numerator.bit_length(), f.denominator.bit_length()) for f in map(Fraction, values)), default=0)


def traced_run(pool_factory, args):
    """--trace 1: fixed passes untraced and traced; the per-layer metrics."""
    import workloads
    from tracer import Spans, Tracer

    spans = Spans()
    tracer = Tracer() if args.workload in workloads.IN_PROCESS else None
    if tracer:
        tracer.install()
    pool = pool_factory(args.seed)
    traced_pass, untraced_pass = Run(pool, args.seed), Run(pool, args.seed)

    def spans_file(index):
        return os.path.join(OUT, f"spans-op{index}.bin")

    def mark(index):
        tracer.op_id = index

    for number in range(pool.trace_passes):
        if tracer:
            if number:
                tracer.install()
            traced_pass.run_pass(number, mark)
            tracer.uninstall()
        else:
            traced_pass.run_pass(number, spans_file)
            for slot in range(len(pool.ops)):
                path = spans_file(number * len(pool.ops) + slot)
                if os.path.exists(path):
                    spans.merge(Spans.load(path))
                    os.remove(path)
        untraced_pass.run_pass(number)
    if tracer:
        spans.merge(tracer.spans())
    traced_wall = sum(traced_pass.best.values())
    untraced_wall = sum(untraced_pass.best.values())

    problems = untraced_pass.failures + traced_pass.failures
    digest_u, digest_t = untraced_pass.digest(), traced_pass.digest()
    if digest_u != digest_t:
        problems.append(f"traced digest {digest_t} differs from untraced digest {digest_u}")
    pinned = check_digest(pool.name, args.seed, digest_u, problems)

    startup = []
    for _ in range(5):
        rc, elapsed, _, _, stderr = workloads.run_child([sys.executable, "-c", "import glndep.cli"], "startup")
        if rc != 0:
            problems.append(f"import glndep.cli failed: {stderr.decode(errors='replace')[-300:]}")
        startup.append(elapsed * 1e3)

    summary = spans.summary()
    metrics = {}
    for name, unit in PER_LAYER:
        prefix, _, key = name.rpartition(".")
        zero = 0.0 if unit in ("s", "ms") else 0
        metrics[name] = spans.counters.get(name, summary.get(prefix, {}).get(key, zero))
    groups = group_medians(pool, ((slot, r.elapsed) for slot, r in untraced_pass.records))
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.p50_ms"] = groups.get(command, 0.0)
    metrics["rational_solver.max_entry_bits"] = max((entry_bits(r.output) for slot, r in traced_pass.records
                                                     if pool.ops[slot].group not in WITNESSLESS), default=0)
    metrics["cli.startup_ms"] = statistics.median(startup)
    metrics["host.calib_ms"] = min(traced_pass.probes + untraced_pass.probes)
    metrics["trace.overhead"] = traced_wall / untraced_wall if untraced_wall else float("nan")

    spans_path = os.path.join(OUT, f"spans-{pool.name}-seed{args.seed}.bin")
    spans.dump(spans_path)
    print(f"workload {pool.name}  seed {args.seed}  traced  {pool.trace_passes} pass(es) over {len(pool.ops)} ops, "
          f"set-up {'traced' if pool.in_process else 'untraced'}")
    print_mix(pool.ops)
    print(f"rational_solver branches: projection {metrics['rational_solver.project_and_recurse.calls']}  "
          f"corrections {metrics['rational_solver.correct_bad_index.calls']}  "
          f"m==1 {metrics['rational_solver.solve_column_pair.calls']}")
    print(f"tracing overhead: traced {traced_wall:.3f} s / untraced {untraced_wall:.3f} s = "
          f"{metrics['trace.overhead']:.3f}; {len(spans)} spans written to {spans_path}")
    print("per-element field operations (add/mul/inv) are not wrapped; their cost is in the matrix self times")
    if tracer and tracer.missing:
        print(f"not found, so not traced: {', '.join(tracer.missing)}")
    for name, unit in PER_LAYER:
        print(f"{name:48s} {metrics[name]:16.6f} {unit}" if isinstance(metrics[name], float)
              else f"{name:48s} {metrics[name]:16d} {unit}")
    print(f"digest sha256 {digest_u}: {pinned}")
    attempted = untraced_pass.attempted + traced_pass.attempted
    failed = len(untraced_pass.failures) + len(traced_pass.failures)
    return attempted, failed, problems, {name: (metrics[name], unit) for name, unit in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "glndep", "__init__.py")):
        print(f"perfbench: no glndep package under {SRC}; run from the root of a glndep checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    import workloads

    factory = workloads.SETUPS[args.workload]
    if args.trace:
        attempted, failed, problems, metrics = traced_run(factory, args)
    else:
        attempted, failed, problems, metrics = measured_run(factory(args.seed), args)
    for p in problems:
        print(f"FAILED: {p}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
