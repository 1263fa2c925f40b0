"""Command-line behavior: pipelines, exit codes, deterministic output files."""

import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import glndep
from glndep.certificate import instance_to_json, witness_from_json
from glndep.cli import main
from glndep.fields import ExtensionField, PrimeField
from glndep.fullrank import build_fullrank_basis, fullrank_to_json
from glndep.matrix import Matrix
from glndep.rationals import RationalField

GF2 = PrimeField(2)
QQ = RationalField()


def write_instance(path, field, matrices):
    path.write_text(json.dumps(instance_to_json(field, matrices)))


def unit_pair(field):
    return [Matrix.from_rows(field, [[1], [0]]), Matrix.from_rows(field, [[0], [1]])]


def _python(*args, timeout=60):
    """Run the interpreter on args in a child process that imports this glndep,
    under a 2 GB address-space limit, so a runaway allocation fails the test."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(glndep.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
        preexec_fn=limit_memory,
    )


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


def test_verify_refuses_an_inv_tag_on_the_zero_matrix(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    out = tmp_path / "w.json"
    write_instance(inst, GF2, unit_pair(GF2))
    assert main(["solve", "--field", "prime:2", "--input", str(inst), "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    obj["entries"][0]["matrix"]["entries"] = [["0", "0"], ["0", "0"]]
    out.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst), "--witness", str(out)]) == 1
    assert capsys.readouterr().err == "verification failed: singular at entry 0: claimed-invertible entry is singular\n"


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
    # both: --random is not dropped in favour of --input, and nothing is written
    inst, saved = tmp_path / "inst.json", tmp_path / "inst2.json"
    write_instance(inst, GF2, unit_pair(GF2))
    assert main(["solve", "--field", "prime:2", "--input", str(inst), "--random", "2", "2", "3",
                 "--save-instance", str(saved)]) == 2
    assert not saved.exists()


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


@pytest.mark.parametrize("field, n", [("ext:2:40", "2"), ("ext:2147483647:2", "2"), ("ext:3:31", "3")])
def test_make_h_over_large_extensions_ends(tmp_path, field, n):
    # Each modulus search ran past 15 s while it scanned candidates that are
    # provably reducible.  In a child process, so a regression fails by the
    # timeout instead of hanging the suite.
    out = tmp_path / "h.json"
    proc = _python("-m", "glndep.cli", "make-h", "--field", field, "--n", n, "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    if field == "ext:2:40":
        # x^2 + x + a^35: a^35 has index 2^35, the first element of trace 1.
        one, zero = ["1"] + ["0"] * 39, ["0"] * 40
        assert json.loads(out.read_text())["modulus"] == [zero[:35] + ["1"] + zero[36:], one, one]


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
    def loaded(statement):
        proc = _python("-c", f"import sys\n{statement}\nprint(' '.join(sys.modules))")
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.decode().split())

    added = loaded("import glndep.cli") - loaded("pass")
    assert "glndep.cli" in added
    assert not added & {"dataclasses", "inspect", "typing", "random", "fractions", "decimal"}


def test_console_entry_point():
    proc = _python("-m", "glndep.cli", "check-theorem", "--q", "2", "--n", "1", "--m", "1")
    assert proc.returncode == 0
    assert b"all_have_witness=True" in proc.stdout


def test_extension_field_over_the_cap_is_usage_error(tmp_path, capsys):
    # Both reach ExtensionField, which refuses p^k > 2^64 before any search.
    inst = tmp_path / "inst.json"
    modulus = ["0"] * 1280
    modulus[0] = modulus[216] = modulus[1279] = "1"
    inst.write_text(json.dumps({
        "field": {"kind": "ext", "p": 2, "k": 1279, "modulus": modulus},
        "matrices": [{"field": {"kind": "prime", "p": 2}, "rows": 1, "cols": 1, "entries": [["1"]]}],
    }))
    start = time.perf_counter()
    assert main(["solve", "--field", "ext:2:2000", "--random", "1", "1", "2"]) == 2
    assert main(["verify", "--instance", str(inst), "--witness", str(inst)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("larger than the cap of 2^64 elements") == 2
    assert "Traceback" not in err


def test_check_theorem_flags_are_checked_before_any_work(capsys):
    # --m 0 used to index an empty tuple; 2^61 - 1 used to be trial-divided
    # up to its square root before the instance count met the cap.
    start = time.perf_counter()
    assert main(["check-theorem", "--q", "2", "--n", "1", "--m", "0"]) == 2
    assert main(["check-theorem", "--q", "2", "--n", "0", "--m", "1"]) == 2
    assert main(["check-theorem", "--q", "1", "--n", "1", "--m", "1"]) == 2
    assert main(["check-theorem", "--q", "2305843009213693951", "--n", "1", "--m", "1"]) == 2
    assert main(["check-theorem", "--q", "2", "--n", "1000000000000", "--m", "1000000000000"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "m must be an int >= 1, got 0" in err
    assert "2305843009213693951^2 instances exceed the cap of 10000000" in err
    assert "Traceback" not in err


def test_deeply_nested_json_is_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["verify", "--instance", str(deep), "--witness", str(deep)]) == 3
    assert main(["oracle", "--input", str(deep)]) == 3
    assert main(["subspace-solve", "--input", str(deep), "--n", "1"]) == 3
    assert capsys.readouterr().err.count("JSON nested too deeply") == 3


@pytest.mark.parametrize("command", ["verify", "oracle", "solve"])
def test_huge_integer_literals_are_input_errors(tmp_path, capsys, command):
    # int() refuses a literal of over 4,300 digits; its ValueError gave exit 2.
    inst = tmp_path / "inst.json"
    obj = instance_to_json(GF2, unit_pair(GF2))
    obj["matrices"][0]["rows"] = "@huge@"
    inst.write_text(json.dumps(obj).replace('"@huge@"', "1" + "0" * 5000))
    argv = {
        "verify": ["verify", "--instance", str(inst), "--witness", str(inst)],
        "oracle": ["oracle", "--input", str(inst)],
        "solve": ["solve", "--field", "prime:2", "--input", str(inst)],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {inst}: ") and "digits" in err
    assert "set_int_max_str_digits" not in err
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("selector", ["prime:4", "ext:4:2"])
def test_a_composite_selector_prime_is_an_input_error(capsys, selector):
    # PrimeField's NotPrimeError is no ValueError, and it gave exit 2.
    assert main(["make-h", "--field", selector, "--n", "2"]) == 3
    assert capsys.readouterr().err == f"input error: bad field selector '{selector}': 4 is not prime\n"


_DIGITS_5001 = "1" + "0" * 5000


@pytest.mark.parametrize(
    "selector",
    [f"prime:{_DIGITS_5001}", f"ext:{_DIGITS_5001}:2", f"ext:2:{_DIGITS_5001}"],
    ids=["prime", "ext-p", "ext-k"],
)
def test_huge_selector_numbers_are_input_errors(capsys, selector):
    # The interpreter's own refusal advises sys.set_int_max_str_digits(),
    # which a command-line user cannot call.
    assert main(["make-h", "--field", selector, "--n", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: bad field selector ") and "more digits than the limit" in err
    assert "set_int_max_str_digits" not in err
    assert len(err.encode()) < 1024


def test_bytes_that_are_not_utf8_are_input_errors(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_bytes(b'{"field": "\xff"}')
    assert main(["oracle", "--input", str(inst)]) == 3
    assert "can't decode byte 0xff" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change",
    [
        {"p": 2.0},
        {"k": True},
        {"k": 4.0},
        {"modulus": [1, 1, 0, 0, 1]},
        {"modulus": ["1", "0", "0", "0", "1"]},
        {"modulus": ["1", "1", "0", "0", "0"]},
    ],
    ids=["float-p", "bool-k", "float-k", "int-modulus", "reducible-modulus", "non-monic-modulus"],
)
def test_a_checked_modulus_lets_no_bad_descriptor_through(tmp_path, change):
    # The irreducibility of a given modulus is remembered per GF(p) and
    # coefficient tuple.  Since 2 == 2.0 == True, a memo keyed on the raw JSON
    # values would pass these once the valid descriptor had been parsed.
    gf16 = ExtensionField(2, 4)
    one = Matrix.from_rows(gf16, [[gf16.one]])
    inst = tmp_path / "inst.json"
    obj = instance_to_json(gf16, [one, one])
    inst.write_text(json.dumps(obj))
    assert main(["oracle", "--input", str(inst), "--output", str(tmp_path / "out.json")]) == 0
    for descriptor in (obj["field"], *(m["field"] for m in obj["matrices"])):
        descriptor.update(change)
    inst.write_text(json.dumps(obj))
    assert main(["oracle", "--input", str(inst)]) == 3


def test_oracle_on_a_tall_instance_is_refused_quickly(tmp_path, capsys):
    # 1 + |GL(1000, 2)| has about 10^6 bits; its square used to be computed
    # and then printed, which str() refuses beyond 4,300 digits.
    inst = tmp_path / "tall.json"
    write_instance(inst, GF2, [Matrix.from_rows(GF2, [[1]] * 1000)] * 20)
    start = time.perf_counter()
    assert main(["oracle", "--input", str(inst)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "(1 + |GL(1000, 2)|)^20 candidate tuples exceed the cap of 10000000" in capsys.readouterr().err


def _one_entry_instance(entry):
    matrix = {"field": {"kind": "prime", "p": 2}, "rows": 1, "cols": 1, "entries": [[entry]]}
    return {"field": {"kind": "prime", "p": 2}, "matrices": [matrix]}


@pytest.mark.parametrize(
    "instance",
    [
        {"field": [0] * 500_000, "matrices": []},
        _one_entry_instance("1" * 1_000_000),
        _one_entry_instance([0] * 300_000),
    ],
    ids=["long-field-list", "long-element-string", "long-list-entry"],
)
def test_oversized_input_values_are_quoted_briefly(tmp_path, capsys, instance):
    # Each message used to quote the whole value: 0.9 to 1.5 MB on stderr.
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    assert main(["oracle", "--input", str(inst)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert len(err.encode()) <= 1024


@pytest.mark.parametrize(
    "argv",
    [["make-h", "--field", "prime:2", "--n", "x" * 100_000], ["x" * 100_000]],
    ids=["long-flag-value", "long-subcommand"],
)
def test_bad_command_line_values_are_quoted_briefly(capsys, argv):
    # argparse used to quote the whole value: 100,122 and 100,234 bytes on stderr.
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid" in err
    assert "Traceback" not in err
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("exponent", ["1e100000000", "1E+100_000_000", "-2e-100000000"])
@pytest.mark.parametrize("command", ["solve", "verify", "subspace-solve"])
def test_huge_rational_exponents_are_input_errors(tmp_path, command, exponent):
    # Fraction computes 10**exp, so each of these ran for minutes.  In a child
    # process, since that computation cannot be interrupted.
    field = {"kind": "rational"}
    if command == "subspace-solve":
        doc = {"field": field, "ambient": 1, "subspaces": [[[exponent]], [["1"]]]}
    else:
        matrix = {"field": field, "rows": 1, "cols": 1, "entries": [[exponent]]}
        doc = {"field": field, "matrices": [matrix, matrix]}
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(doc))
    argv = {
        "solve": ["solve", "--field", "rational", "--input", str(inp)],
        "verify": ["verify", "--instance", str(inp), "--witness", str(inp)],
        "subspace-solve": ["subspace-solve", "--input", str(inp), "--n", "1"],
    }[command]
    proc = _python("-m", "glndep.cli", *argv, timeout=10)
    assert proc.returncode == 3
    assert b"exponent" in proc.stderr
    assert len(proc.stderr) < 1024


def test_a_rational_output_over_the_digit_limit_is_refused_in_glndeps_words(tmp_path):
    # "1e4300" passes the input rules, but the multiplier -1/10^4300 has a
    # denominator of more digits than str() writes; the interpreter's message
    # used to reach stderr.  In a child process, so the digit limit is the default one.
    field = {"kind": "rational"}
    doc = {"field": field, "matrices": [
        {"field": field, "rows": 1, "cols": 1, "entries": [[value]]} for value in ("1e4300", "1")
    ]}
    inp, out = tmp_path / "input.json", tmp_path / "w.json"
    inp.write_text(json.dumps(doc))
    proc = _python("-m", "glndep.cli", "solve", "--field", "rational", "--input", str(inp), "--output", str(out),
                   timeout=30)
    assert proc.returncode == 2
    assert proc.stderr == b"error: a rational value has more digits than the limit of 4,300\n"
    assert b"set_int_max_str_digits" not in proc.stderr
    assert len(proc.stderr) < 1024
    assert not out.exists()


_DIGITS_1500, _DIGITS_4000 = "1" * 1500, "7" * 4000


@pytest.mark.parametrize(
    "argv",
    [
        ["make-h", "--field", "prime:2", "--n", _DIGITS_1500],
        ["check-theorem", "--q", "3", "--n", _DIGITS_1500, "--m", "1"],
        ["check-theorem", "--q", _DIGITS_4000, "--n", "1", "--m", "1"],
        ["solve", "--field", "rational", "--random", "1", "1", _DIGITS_4000],
        ["make-h", "--field", "prime:2", "--n", "-" + _DIGITS_1500],
        ["solve", "--field", "prime:3", "--random", _DIGITS_1500, "0", "3"],
        ["check-theorem", "--q", "2", "--n", "1", "--m", "1", "--cap", "-" + _DIGITS_1500],
    ],
    ids=["make-h-n", "sweep-n", "sweep-q", "random-k", "make-h-negative-n", "random-zero-m", "sweep-cap"],
)
def test_refusals_of_huge_flag_values_are_short(argv):
    # Each refusal used to echo the value whole (1.5 to 4 KB), or to format
    # n**3, whose 4,500 digits are more than str() writes.  --random with a
    # zero size passed the cap and built range(N) of empty rows until memory ran out.
    proc = _python("-m", "glndep.cli", *argv)
    assert proc.returncode == 2, proc.stderr[-300:]
    assert b"set_int_max_str_digits" not in proc.stderr
    assert len(proc.stderr) < 1024


_LOADED = (
    "import sys, types\n"
    "from glndep.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*[n for n, m in sys.modules.items() if type(m) is types.ModuleType])\n"
    "sys.exit(code)\n"
)


def _loaded_by(*argv, code=0):
    """The modules a fresh CLI process has loaded when it ends, given argv.

    A submodule registered lazily is a types.ModuleType subclass until its
    first attribute access loads it; type() reads no attribute.
    """
    proc = _python("-c", _LOADED, *argv)
    assert proc.returncode == code, proc.stderr[-300:]
    return set(proc.stdout.decode().splitlines()[-1].split())


def _submodules(*names):
    return {f"glndep.{name}" for name in names}


# What only QQ needs: a finite-field command loads none of it.
_QQ = {"glndep.rationals", "fractions", "decimal"}


@pytest.mark.parametrize(
    "command, unloaded",
    [
        ("verify", _submodules("fullrank", "finite_solver", "rational_solver", "subspaces", "oracle") | _QQ),
        ("solve-rational", _submodules("fullrank", "finite_solver", "oracle", "subspaces")),
        ("make-h", _submodules("certificate", "finite_solver", "rational_solver", "subspaces", "oracle") | _QQ),
        ("oracle", _submodules("finite_solver", "fullrank", "rational_solver", "subspaces") | _QQ),
        ("solve-ext", _submodules("rational_solver", "subspaces", "oracle") | _QQ),
        ("solve-unsafe", _submodules("fullrank", "finite_solver", "subspaces", "oracle") | _QQ),
    ],
)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, command, unloaded):
    inst, wit = tmp_path / "inst.json", tmp_path / "w.json"
    write_instance(inst, GF2, unit_pair(GF2))
    assert main(["solve", "--field", "prime:2", "--input", str(inst), "--output", str(wit)]) == 0
    argv = {
        "verify": ["verify", "--instance", str(inst), "--witness", str(wit)],
        "solve-rational": ["solve", "--field", "rational", "--random", "2", "2", "3", "--output", str(wit)],
        "make-h": ["make-h", "--field", "prime:3", "--n", "2", "--output", str(tmp_path / "h.json")],
        "oracle": ["oracle", "--input", str(inst), "--output", str(tmp_path / "o.json")],
        "solve-ext": ["solve", "--field", "ext:2:3", "--random", "2", "2", "3", "--output", str(wit)],
        "solve-unsafe": [
            "solve", "--field", "prime:31", "--random", "2", "2", "3", "--unsafe-finite", "--output", str(wit)
        ],
    }[command]
    loaded = _loaded_by(*argv)
    assert "glndep.matrix" in loaded
    assert loaded & unloaded == set()
    if command == "solve-rational":
        # Reached through the lazily registered module, in a fresh process.
        assert _QQ <= loaded
        assert witness_from_json(json.loads(wit.read_text())).field == QQ


@pytest.mark.parametrize(
    "argv",
    [
        ["make-h", "--field", "prime:2", "--n", "1000"],
        ["solve", "--field", "prime:2"],
        ["check-theorem", "--q", "3", "--n", _DIGITS_1500, "--m", "1"],
    ],
    ids=["cap", "argparse", "sweep-size"],
)
def test_a_usage_error_loads_no_module_but_errors_and_cli(argv):
    # cli catches both verifiers' errors through their base in errors, and the
    # sweep-size check lives there too, so a refusal before any work loads
    # neither verifier nor what they import.
    loaded = _loaded_by(*argv, code=2)
    assert {name for name in loaded if name.startswith("glndep.")} == {"glndep.errors", "glndep.cli"}


_HUGE = 10 ** 1499


@pytest.mark.parametrize("case", ["rows", "cols", "ambient", "oracle-cap"])
def test_huge_sizes_in_input_files_are_quoted_briefly(tmp_path, case):
    # Each message used to print the whole 1,500-digit value: 1,551 bytes of
    # stderr for "cols", which a Hypothesis seed of test_cli_fuzz drew.
    path = tmp_path / "input.json"
    instance = instance_to_json(PrimeField(3), unit_pair(PrimeField(3)))
    if case in ("rows", "cols"):
        instance["matrices"][1][case] = _HUGE
        argv, code = ["solve", "--field", "prime:3", "--input", str(path)], 3
    elif case == "ambient":
        instance = {"field": {"kind": "prime", "p": 3}, "ambient": _HUGE, "subspaces": [[["1", "0"]]]}
        argv, code = ["subspace-solve", "--input", str(path), "--n", "1"], 3
    else:
        argv, code = ["oracle", "--input", str(path), "--cap", str(-_HUGE)], 2
    path.write_text(json.dumps(instance))
    proc = _python("-m", "glndep.cli", *argv)
    assert proc.returncode == code, proc.stderr[-300:]
    assert proc.stderr.startswith(b"input error: " if code == 3 else b"error: ")
    assert len(proc.stderr) < 1024


def test_help_under_warnings_as_errors_is_clean():
    # A registered glndep.cli would make runpy warn that it was imported before it ran.
    proc = _python("-W", "error", "-m", "glndep.cli", "--help")
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert b"check-theorem" in proc.stdout


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_a_cli_process_ends_as_main_returns(tmp_path, capsys, code):
    # The process entry freezes the collector before it exits: the exit code,
    # both streams and the output file must be what main() gives in process.
    inst, wit, out = tmp_path / "inst.json", tmp_path / "w.json", tmp_path / "out.json"
    write_instance(inst, GF2, unit_pair(GF2))
    assert main(["solve", "--field", "prime:2", "--input", str(inst), "--output", str(wit)]) == 0
    if code == 1:
        wit.write_text(json.dumps(dict(json.loads(wit.read_text()), entries=[{"tag": "zero"}] * 2)))
    if code == 3:
        inst.write_text("{not json")
    argv = {
        0: ["solve", "--field", "prime:3", "--random", "3", "2", "3", "--seed", "5", "--output", str(out)],
        1: ["verify", "--instance", str(inst), "--witness", str(wit)],
        2: ["make-h", "--field", "prime:2", "--n", "1000", "--output", str(out)],
        3: ["verify", "--instance", str(inst), "--witness", str(wit)],
    }[code]
    capsys.readouterr()
    assert main(argv) == code
    streams = capsys.readouterr()
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    proc = _python("-m", "glndep.cli", *argv)
    assert proc.returncode == code
    assert proc.stdout.decode() == streams.out
    assert proc.stderr.decode() == streams.err
    assert (out.read_bytes() if out.exists() else None) == written
    assert (written is not None) == (code == 0)


def test_main_never_freezes_the_collector(tmp_path):
    # Tests and the perfbench launcher call main() in one long process, which
    # must keep normal collection.
    before = gc.get_freeze_count()
    for seed in range(3):
        assert main(["solve", "--field", "prime:2", "--random", "2", "1", "2", "--seed", str(seed)]) == 0
    assert main(["make-h", "--field", "prime:2", "--n", "1000"]) == 2
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize(
    "argv, code",
    [(["check-theorem", "--q", "2", "--n", "1", "--m", "1"], 0), (["make-h", "--field", "prime:2", "--n", "1000"], 2)],
    ids=["check-theorem", "usage"],
)
def test_run_exits_with_mains_code_after_freezing(argv, code):
    # The console script calls run(); an atexit hook in the child sees that
    # the collector was frozen before the exit.
    script = (
        "import atexit, gc\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "from glndep.cli import run\n"
        "run()\n"
    )
    proc = _python("-c", script, *argv)
    assert proc.returncode == code, proc.stderr[-300:]
    assert proc.stdout.decode().splitlines()[-1] == "frozen True"
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'glndep = "glndep.cli:run"' in pyproject.read_text()
