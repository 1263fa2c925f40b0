"""The verifiers' mutation run (tests/mutation.py), built but not run.

Running every mutant takes most of a minute of child test runs, too slow for
the tier-1 run; this file is not in the run's test subsets, so it cannot kill
a mutant itself.
"""

import ast

import mutation


def _refusals(source, name):
    function = next(node for node in ast.parse(source).body if getattr(node, "name", "") == name)
    return sum(isinstance(node, ast.Raise) for node in ast.walk(function))


def test_the_mutation_run_drops_every_refusal_of_the_verifier():
    # One mutant per site, each compiling to a different module, with a
    # dropped-raise mutant for every refusal of both verifiers and for
    # witness_from_json's singular check.
    targets = {module: (regions, tests) for module, regions, tests in mutation.TARGETS}
    assert sorted(targets) == ["src/glndep/certificate.py", "src/glndep/subspaces.py"]
    for module, (regions, tests) in targets.items():
        source = (mutation.ROOT / module).read_text()
        unchanged, labels = mutation._mutate(source, regions, None)
        assert unchanged == source
        if module.endswith("certificate.py"):
            expected = ["verify_witness"] * _refusals(source, "verify_witness") + ["witness_from_json"]
        else:
            expected = ["verify_subspace_witness"] * _refusals(source, "verify_subspace_witness")
        drops = [label.split(":")[0] for label in labels if ": drop `raise" in label]
        assert drops == expected
        mutants = {mutation._mutate(source, regions, k)[0] for k in range(len(labels))}
        assert len(mutants) == len(labels) and source not in mutants
        for mutant in mutants:
            compile(mutant, module, "exec")
        assert "tests/test_mutation.py" not in tests
