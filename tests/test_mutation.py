"""The verifier's mutation run (tests/mutation.py), built but not run.

Running every mutant takes half a minute of child test runs, too slow for the
tier-1 run; this file is not in the run's test subset, so it cannot kill a
mutant itself.
"""

import ast

import mutation


def test_the_mutation_run_drops_every_refusal_of_the_verifier():
    # One mutant per site, each compiling to a different module, with a
    # dropped-raise mutant for every refusal of verify_witness and for
    # witness_from_json's singular check.
    source = (mutation.ROOT / mutation.MODULE).read_text()
    unchanged, labels = mutation._mutate(source, None)
    assert unchanged == source
    verify = next(node for node in ast.parse(source).body if getattr(node, "name", "") == "verify_witness")
    refusals = sum(isinstance(node, ast.Raise) for node in ast.walk(verify))
    drops = [label.split(":")[0] for label in labels if ": drop `raise" in label]
    assert drops == ["verify_witness"] * refusals + ["witness_from_json"]
    mutants = {mutation._mutate(source, k)[0] for k in range(len(labels))}
    assert len(mutants) == len(labels) and source not in mutants
    for mutant in mutants:
        compile(mutant, mutation.MODULE, "exec")
    assert "tests/test_mutation.py" not in mutation.TESTS
