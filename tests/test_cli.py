"""Command-line behavior: pipelines, exit codes, deterministic output files."""

import json
import time

from glndep.certificate import instance_to_json, witness_from_json
from glndep.cli import main
from glndep.fields import PrimeField, RationalField
from glndep.fullrank import build_fullrank_basis, fullrank_to_json
from glndep.matrix import Matrix

GF2 = PrimeField(2)
QQ = RationalField()


def write_instance(path, field, matrices):
    path.write_text(json.dumps(instance_to_json(field, matrices)))


def unit_pair(field):
    return [Matrix.from_rows(field, [[1], [0]]), Matrix.from_rows(field, [[0], [1]])]


def test_solve_then_verify_pipeline(tmp_path):
    inst = tmp_path / "inst.json"
    out = tmp_path / "w.json"
    write_instance(inst, GF2, unit_pair(GF2))
    assert main(["solve", "--field", "prime:2", "--input", str(inst), "--output", str(out)]) == 0
    witness_from_json(json.loads(out.read_text()))  # parses back
    assert main(["verify", "--instance", str(inst), "--witness", str(out)]) == 0


def test_solve_rational_pipeline(tmp_path):
    inst = tmp_path / "inst.json"
    out = tmp_path / "w.json"
    mats = [
        Matrix.from_rows(QQ, [[1, 0], [0, 1]]),
        Matrix.from_rows(QQ, [[0, 1], [1, 0]]),
        Matrix.from_rows(QQ, [[1, 1], [1, 1]]),
    ]
    write_instance(inst, QQ, mats)
    assert main(["solve", "--field", "rational", "--input", str(inst), "--output", str(out)]) == 0
    assert main(["verify", "--instance", str(inst), "--witness", str(out)]) == 0


def test_solve_outputs_are_byte_identical(tmp_path):
    inst = tmp_path / "inst.json"
    out1 = tmp_path / "w1.json"
    out2 = tmp_path / "w2.json"
    write_instance(inst, GF2, unit_pair(GF2))
    assert main(["solve", "--field", "prime:2", "--input", str(inst), "--output", str(out1)]) == 0
    assert main(["solve", "--field", "prime:2", "--input", str(inst), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_rejects_tampered_witness(tmp_path):
    inst = tmp_path / "inst.json"
    out = tmp_path / "w.json"
    write_instance(inst, GF2, unit_pair(GF2))
    assert main(["solve", "--field", "prime:2", "--input", str(inst), "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    obj["entries"] = [{"tag": "zero"} for _ in obj["entries"]]
    out.write_text(json.dumps(obj))
    assert main(["verify", "--instance", str(inst), "--witness", str(out)]) == 1


def test_verify_refuses_an_all_zero_witness_of_huge_n(tmp_path, capsys):
    # Zero-tagged entries are built only once an inv-tagged entry bounds n.
    import time

    inst = tmp_path / "inst.json"
    out = tmp_path / "w.json"
    write_instance(inst, GF2, unit_pair(GF2))
    out.write_text(json.dumps({"field": {"kind": "prime", "p": 2}, "n": 10**12,
                               "entries": [{"tag": "zero"}, {"tag": "zero"}]}))
    t0 = time.perf_counter()
    assert main(["verify", "--instance", str(inst), "--witness", str(out)]) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "verification failed: all-zero" in err
    assert "Traceback" not in err


def test_field_flag_must_match_instance(tmp_path):
    inst = tmp_path / "inst.json"
    write_instance(inst, GF2, unit_pair(GF2))
    assert main(["solve", "--field", "prime:3", "--input", str(inst)]) == 2


def test_missing_input_file_is_io_error(tmp_path):
    assert main(["solve", "--field", "prime:2", "--input", str(tmp_path / "nope.json")]) == 3


def test_malformed_json_is_io_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--instance", str(bad), "--witness", str(bad)]) == 3


def test_usage_errors(tmp_path):
    assert main(["frobnicate"]) == 2
    assert main(["solve"]) == 2  # missing --field
    assert main(["solve", "--field", "prime:2"]) == 2  # neither --input nor --random


def test_random_self_test(tmp_path):
    out = tmp_path / "w.json"
    saved = tmp_path / "inst.json"
    code = main(
        [
            "solve",
            "--field",
            "rational",
            "--random", "2", "2", "3",
            "--seed", "11",
            "--output", str(out),
            "--save-instance", str(saved),
        ]
    )
    assert code == 0
    assert main(["verify", "--instance", str(saved), "--witness", str(out)]) == 0


def test_random_instance_over_the_cap_is_refused(capsys):
    # 10^18 entries: refused from the flag alone, before any entry is drawn.
    start = time.perf_counter()
    assert main(["solve", "--field", "rational", "--random", "1000000", "1000000", "1000000"]) == 2
    assert main(["solve", "--field", "prime:2", "--random", "10000", "1000", "2"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "over the cap of 10000000" in capsys.readouterr().err


def test_subspace_padding_over_the_cap_is_refused(tmp_path, capsys):
    # --n pads every representative matrix to n rows of ambient entries.
    inp = tmp_path / "family.json"
    family = {
        "field": {"kind": "prime", "p": 2},
        "ambient": 2,
        "subspaces": [[["1", "0"]], [["0", "1"]], [["1", "1"]]],
    }
    inp.write_text(json.dumps(family))
    start = time.perf_counter()
    assert main(["subspace-solve", "--input", str(inp), "--n", "1000000000"]) == 2
    inp.write_text(json.dumps(dict(family, ambient=10 ** 12, subspaces=[[], [], []])))
    assert main(["subspace-solve", "--input", str(inp), "--n", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "over the cap of 10000000" in capsys.readouterr().err


def test_make_h_over_the_cap_is_refused(tmp_path, capsys):
    # H is n matrices of n x n: 216^3 > 10^7 is refused before the degree-216 search.
    out = tmp_path / "h.json"
    start = time.perf_counter()
    assert main(["make-h", "--field", "prime:2", "--n", "216", "--output", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert not out.exists()
    assert "--n asks for 10077696 matrix entries, over the cap of 10000000" in capsys.readouterr().err
    assert main(["make-h", "--field", "prime:2", "--n", "4", "--output", str(out)]) == 0
    assert json.loads(out.read_text()) == json.loads(json.dumps(fullrank_to_json(build_fullrank_basis(GF2, 4))))


def test_subspace_solve_refuses_n_zero(tmp_path, capsys):
    inp = tmp_path / "family.json"
    inp.write_text(json.dumps({"field": {"kind": "prime", "p": 2}, "ambient": 2, "subspaces": [[], [], []]}))
    assert main(["subspace-solve", "--input", str(inp), "--n", "0"]) == 2
    err = capsys.readouterr().err
    assert "n must be an int >= 1" in err
    assert "Traceback" not in err


def test_unsafe_finite_flag(tmp_path):
    gf101 = PrimeField(101)
    inst = tmp_path / "inst.json"
    out = tmp_path / "w.json"
    mats = [
        Matrix.from_rows(gf101, [[1, 2], [3, 4]]),
        Matrix.from_rows(gf101, [[5, 6], [7, 8]]),
        Matrix.from_rows(gf101, [[9, 10], [11, 12]]),
    ]
    write_instance(inst, gf101, mats)
    assert (
        main(["solve", "--field", "prime:101", "--input", str(inst), "--output", str(out), "--unsafe-finite"])
        == 0
    )
    assert main(["verify", "--instance", str(inst), "--witness", str(out)]) == 0


def test_unsafe_finite_guard_is_usage_error(tmp_path):
    inst = tmp_path / "inst.json"
    write_instance(inst, GF2, unit_pair(GF2))
    assert main(["solve", "--field", "prime:2", "--input", str(inst), "--unsafe-finite"]) == 2


def test_solve_over_extension_field(tmp_path):
    from glndep.fields import ExtensionField

    gf4 = ExtensionField(2, 2)
    inst = tmp_path / "inst.json"
    out = tmp_path / "w.json"
    mats = [
        Matrix.from_rows(gf4, [[(1, 0)], [(0, 1)]]),
        Matrix.from_rows(gf4, [[(1, 1)], [(1, 0)]]),
    ]
    write_instance(inst, gf4, mats)
    assert main(["solve", "--field", "ext:2:2", "--input", str(inst), "--output", str(out)]) == 0
    assert main(["verify", "--instance", str(inst), "--witness", str(out)]) == 0


def test_make_h_writes_basis(tmp_path):
    out = tmp_path / "h.json"
    assert main(["make-h", "--field", "prime:2", "--n", "3", "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj == json.loads(json.dumps(fullrank_to_json(build_fullrank_basis(GF2, 3))))


def test_oracle_command_dependent(tmp_path):
    inst = tmp_path / "inst.json"
    out = tmp_path / "res.json"
    write_instance(inst, GF2, unit_pair(GF2))
    assert main(["oracle", "--input", str(inst), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["dependent"] is True


def test_oracle_command_independent(tmp_path):
    inst = tmp_path / "inst.json"
    out = tmp_path / "res.json"
    write_instance(inst, GF2, [Matrix.from_rows(GF2, [[1], [0]])])
    assert main(["oracle", "--input", str(inst), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["dependent"] is False


def test_check_theorem_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["check-theorem", "--q", "2", "--n", "2", "--m", "1", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["instances"] == 16
    assert report["all_have_witness"] is True
    summary = capsys.readouterr().out
    assert "all_have_witness=True" in summary


def test_check_theorem_cap_is_usage_error():
    assert main(["check-theorem", "--q", "2", "--n", "2", "--m", "2", "--cap", "10"]) == 2


def test_subspace_solve_command(tmp_path):
    inp = tmp_path / "family.json"
    out = tmp_path / "res.json"
    family = {
        "field": {"kind": "rational"},
        "ambient": 2,
        "subspaces": [[["1", "0"]], [["0", "1"]], [["1", "1"]]],
    }
    inp.write_text(json.dumps(family))
    assert main(["subspace-solve", "--input", str(inp), "--n", "1", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["dependent"] is True


def test_subspace_solve_independent(tmp_path):
    inp = tmp_path / "family.json"
    out = tmp_path / "res.json"
    family = {
        "field": {"kind": "prime", "p": 2},
        "ambient": 2,
        "subspaces": [[["1", "0"]], [["0", "1"]]],
    }
    inp.write_text(json.dumps(family))
    assert main(["subspace-solve", "--input", str(inp), "--n", "1", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["dependent"] is False


def _solve_exit_code(tmp_path, **matrix_overrides):
    obj = instance_to_json(GF2, unit_pair(GF2))
    obj["matrices"][0].update(matrix_overrides)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(obj))
    return main(["solve", "--field", "prime:2", "--input", str(inst)])


def test_matrix_with_zero_rows_is_input_error(tmp_path):
    assert _solve_exit_code(tmp_path, rows=0, entries=[]) == 3


def test_matrix_with_zero_cols_is_input_error(tmp_path):
    assert _solve_exit_code(tmp_path, cols=0, entries=[[], []]) == 3


def test_subspace_row_of_wrong_length_is_input_error(tmp_path):
    inp = tmp_path / "family.json"
    family = {
        "field": {"kind": "prime", "p": 2},
        "ambient": 2,
        "subspaces": [[["1", "0"]], [["0", "1", "1"]], [["1", "1"]]],
    }
    inp.write_text(json.dumps(family))
    assert main(["subspace-solve", "--input", str(inp), "--n", "1"]) == 3
    inp.write_text(json.dumps(dict(family, ambient=0, subspaces=[[], []])))
    assert main(["subspace-solve", "--input", str(inp), "--n", "1"]) == 3
    inp.write_text(json.dumps(dict(family, ambient="2", subspaces=[[], []])))
    assert main(["subspace-solve", "--input", str(inp), "--n", "1"]) == 3
    inp.write_text(json.dumps(dict(family, subspaces=5)))
    assert main(["subspace-solve", "--input", str(inp), "--n", "1"]) == 3
    del family["ambient"]
    inp.write_text(json.dumps(family))
    assert main(["subspace-solve", "--input", str(inp), "--n", "1"]) == 3


def test_cli_import_adds_no_heavy_modules():
    # Every CLI process pays for what `import glndep.cli` loads.  Compared
    # against a bare interpreter, so modules that site preloads do not count.
    import os
    import subprocess
    import sys

    import glndep

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(glndep.__file__)))

    def loaded(statement):
        script = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    added = loaded("import glndep.cli") - loaded("pass")
    assert "glndep.cli" in added
    assert not added & {"dataclasses", "inspect", "typing", "random"}


def test_console_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "glndep.cli", "check-theorem", "--q", "2", "--n", "1", "--m", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "all_have_witness=True" in proc.stdout
