"""The benchmark's in-process workloads still produce their pinned output bytes.

One pass over the seed-1 finite-solve and rational-solve pools, run through
the benchmark's own ``Run``, must hash to the digests in
``perfbench/pinned.json``: a change to glndep that moves any witness byte fails
here, not only in a benchmark run.  The benchmark is only read, never changed.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return run, workloads


@pytest.mark.parametrize("name", ["finite-solve", "rational-solve"])
def test_in_process_pools_match_pinned_digests(perfbench, name):
    run, workloads = perfbench
    pinned = json.loads((PERFBENCH / "pinned.json").read_text())
    assert pinned["seed"] == 1
    bench_run = run.Run(workloads.SETUPS[name](1), 1)
    bench_run.run_pass(0)
    assert bench_run.failures == []
    assert bench_run.digest() == pinned["digests"][name]
