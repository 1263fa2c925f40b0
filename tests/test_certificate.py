"""Witness model, the independent verifier, and JSON round trips."""

import ast
import random
from pathlib import Path

import pytest

from conftest import random_invertible, random_matrix
from glndep import errors, fields
from glndep.certificate import (
    TAG_INVERTIBLE,
    TAG_ZERO,
    VerificationError,
    Witness,
    instance_from_json,
    instance_to_json,
    verify_witness,
    witness_from_json,
    witness_to_json,
)
from glndep.fields import ExtensionField, PrimeField
from glndep.matrix import Matrix
from glndep.finite_solver import solve_finite
from glndep.rational_solver import find_gl_transform, solve_unsafe_finite
from glndep.rationals import RationalField

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = ExtensionField(2, 2)
QQ = RationalField()


def _identity_minus_identity(field, n, m, rng):
    matrix = random_matrix(rng, field, n, m)
    ident = Matrix.identity(field, n)
    witness = Witness((ident, -ident))
    return [matrix, matrix], witness


def test_witness_is_immutable():
    witness = Witness((Matrix.identity(GF2, 1), Matrix.identity(GF2, 1)))
    for name in ("field", "n", "entries", "tags", "extra"):
        with pytest.raises(AttributeError):
            setattr(witness, name, None)
    with pytest.raises(AttributeError):
        del witness.tags


def test_verify_accepts_identity_pair():
    rng = random.Random(1)
    for field in (GF3, QQ):
        matrices, witness = _identity_minus_identity(field, 2, 3, rng)
        verify_witness(matrices, witness)  # no exception


def test_verify_rejects_all_zero():
    m = Matrix.identity(GF2, 2)
    witness = Witness((Matrix.zero(GF2, 2, 2), Matrix.zero(GF2, 2, 2)))
    with pytest.raises(VerificationError) as exc:
        verify_witness([m, m], witness)
    assert exc.value.reason == "all-zero"


def test_verify_rejects_singular_claimed_invertible():
    m = Matrix.zero(GF2, 2, 2)
    singular = Matrix.from_rows(GF2, [[1, 1], [1, 1]])
    witness = Witness((singular,))
    with pytest.raises(VerificationError) as exc:
        verify_witness([m], witness)
    assert exc.value.reason == "singular"
    assert exc.value.index == 0


def test_verify_rejects_nonzero_sum():
    m = Matrix.from_rows(GF3, [[1]])
    ident = Matrix.identity(GF3, 1)
    witness = Witness((ident, ident))
    with pytest.raises(VerificationError) as exc:
        verify_witness([m, m], witness)
    assert exc.value.reason == "sum-nonzero"
    assert (exc.value.row, exc.value.col) == (0, 0)


def test_verify_rejects_count_and_field_mismatches():
    m = Matrix.identity(GF3, 2)
    witness = Witness((Matrix.identity(GF3, 2), -Matrix.identity(GF3, 2)))
    with pytest.raises(VerificationError) as exc:
        verify_witness([m], witness)
    assert exc.value.reason == "shape-mismatch"
    with pytest.raises(VerificationError) as exc:
        verify_witness([Matrix.identity(GF2, 2), Matrix.identity(GF2, 2)], witness)
    assert exc.value.reason == "field-mismatch"


@pytest.mark.parametrize("shape", [(3, 2), (2, 3)], ids=["rows", "cols"])
def test_verify_rejects_a_matrix_of_another_shape(shape):
    # Without this refusal the weighted sum would raise a bare ShapeError.
    witness = Witness((Matrix.identity(GF3, 2), -Matrix.identity(GF3, 2)))
    with pytest.raises(VerificationError) as exc:
        verify_witness([Matrix.identity(GF3, 2), Matrix.zero(GF3, *shape)], witness)
    assert exc.value.reason == "shape-mismatch"


def test_permutation_equivariance():
    rng = random.Random(2)
    for _ in range(20):
        mats = [random_matrix(rng, GF2, 2, 1) for _ in range(2)]
        witness = solve_finite(mats)
        verify_witness(mats, witness)
        perm = [1, 0]
        permuted = Witness(tuple(witness.entries[i] for i in perm))
        verify_witness([mats[i] for i in perm], permuted)


def test_right_action_equivariance():
    rng = random.Random(3)
    for field in (GF3, QQ):
        for _ in range(10):
            mats, witness = _identity_minus_identity(field, 2, 2, rng)
            hs = [random_invertible(rng, field, 2) for _ in mats]
            new_mats = [h * m for h, m in zip(hs, mats)]
            ident = Matrix.identity(field, 2)
            new_entries = tuple(g * find_gl_transform(h, ident) for g, h in zip(witness.entries, hs))
            transformed = Witness(new_entries)
            verify_witness(new_mats, transformed)


def _imports(source: Path) -> list[tuple[str, str | None]]:
    """(module, name) for every import in the source: the name taken from the
    module, or None for a plain import; modules of the package as '.name'."""
    found = []
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level
            if node.module:
                found += [(prefix + node.module, alias.name) for alias in node.names]
            else:
                found += [(prefix + alias.name, None) for alias in node.names]
    return found


# glob of package modules -> the rule each of their imports must pass, given
# the module imported and the name taken from it
IMPORT_RULES = {
    # the verifier is the trust anchor, so it never sees solver code
    "certificate.py": lambda mod, name: not any(word in mod for word in ("solve", "oracle", "subspace")),
    # the elimination core sits below every other module of the package
    "matrix.py": lambda mod, name: mod in (".fields", ".errors") or not mod.startswith((".", "glndep")),
    # polynomial arithmetic stays inside fields; H acts through fullrank's
    # multiplication by x mod f.  The zero and inv tags are the witness JSON's
    # vocabulary, so only certificate, which defines them, uses them.
    "*.py": lambda mod, name: not (name or "").startswith(("_poly_", "TAG_")),
}


def test_verifier_has_no_solver_imports():
    package = Path(__file__).resolve().parents[1] / "src" / "glndep"
    for pattern, allowed in IMPORT_RULES.items():
        paths = sorted(package.glob(pattern))
        assert paths, f"no module matches {pattern}"
        for path in paths:
            imports = _imports(path)
            assert imports, f"expected import statements in {path.name}"
            for mod, name in imports:
                assert allowed(mod, name), f"{path.name} imports {name or mod} from {mod}"


def test_no_output_waits_for_the_collection_at_exit():
    """cli.run calls gc.freeze() before the process exits, so the interpreter's
    final collections skip every object still alive.  That loses nothing only
    while no output or cleanup waits for them: every open() in the package is
    the expression of a with item, closed before main returns, and the
    package defines no __del__, imports no atexit and calls no weakref.finalize."""
    package = Path(__file__).resolve().parents[1] / "src" / "glndep"
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        withs = [node for node in ast.walk(tree) if isinstance(node, ast.With)]
        in_with = {id(item.context_expr) for node in withs for item in node.items}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name != "open" or id(node) in in_with, f"{where}: open() outside a with item"
                assert name != "finalize", f"{where}: calls {ast.unparse(func)}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name != "__del__", f"{where}: defines __del__"
        for mod, name in _imports(path):
            forbidden = "atexit" in (mod, name) or (mod, name) == ("weakref", "finalize")
            assert not forbidden, f"{path.name} imports {name or mod}"


# JSON

@pytest.mark.parametrize("field", [GF2, GF4, QQ])
def test_witness_json_round_trip(field):
    rng = random.Random(4)
    for _ in range(10):
        gs = [random_invertible(rng, field, 2), Matrix.zero(field, 2, 2), random_invertible(rng, field, 2)]
        witness = Witness(tuple(gs))
        assert witness_from_json(witness_to_json(witness)) == witness


def test_witness_json_rejects_missing_entries():
    obj = witness_to_json(Witness((Matrix.identity(GF2, 2),)))
    del obj["entries"]
    with pytest.raises(errors.ParseError):
        witness_from_json(obj)


def test_witness_json_rejects_unknown_tag():
    obj = witness_to_json(Witness((Matrix.identity(GF2, 2),)))
    obj["entries"][0]["tag"] = "unit"
    with pytest.raises(errors.ParseError):
        witness_from_json(obj)


def test_witness_json_rejects_wrong_shape_entry():
    obj = witness_to_json(Witness((Matrix.identity(GF2, 2),)))
    obj["n"] = 3
    with pytest.raises(errors.ParseError):
        witness_from_json(obj)


def test_witness_json_refuses_an_inv_tag_on_the_zero_matrix():
    # The tag is the one claim of the JSON form that the entries cannot carry.
    obj = witness_to_json(Witness((Matrix.identity(GF2, 2), Matrix.zero(GF2, 2, 2), Matrix.identity(GF2, 2))))
    obj["entries"][2]["matrix"]["entries"] = [["0", "0"], ["0", "0"]]
    with pytest.raises(VerificationError) as exc:
        witness_from_json(obj)
    assert (exc.value.reason, exc.value.index) == ("singular", 2)
    assert str(exc.value) == "singular at entry 2: claimed-invertible entry is singular"
    # A parse error in any entry still comes first, as its exit code did.
    obj["entries"][1]["tag"] = "unit"
    with pytest.raises(errors.ParseError):
        witness_from_json(obj)


def test_witness_reads_its_field_shape_and_tags_off_its_entries():
    witness = Witness((Matrix.identity(GF4, 3), Matrix.zero(GF4, 3, 3)))
    assert Witness.__slots__ == ("entries",)
    assert (witness.field, witness.n, witness.tags) == (GF4, 3, (TAG_INVERTIBLE, TAG_ZERO))
    with pytest.raises(errors.ShapeError):
        Witness(())
    with pytest.raises(errors.ShapeError):
        Witness((Matrix.zero(GF2, 2, 3),))
    with pytest.raises(errors.ShapeError):
        Witness((Matrix.identity(GF2, 2), Matrix.identity(GF2, 3)))
    with pytest.raises(errors.FieldMismatchError):
        Witness((Matrix.identity(GF2, 2), Matrix.identity(GF3, 2)))


def test_instance_json_round_trip():
    rng = random.Random(5)
    mats = [random_matrix(rng, GF4, 2, 3) for _ in range(3)]
    field, parsed = instance_from_json(instance_to_json(GF4, mats))
    assert field == GF4
    assert parsed == mats


def test_instance_json_rejects_field_mismatch():
    obj = instance_to_json(GF2, [Matrix.identity(GF2, 2)])
    obj["field"] = {"kind": "prime", "p": 3}
    with pytest.raises(errors.ParseError):
        instance_from_json(obj)


def test_a_given_modulus_is_tested_once(monkeypatch):
    # A GF(2^16) instance of 4 matrices and its witness, as glndep verify
    # reads them, hold 10 field descriptors with one modulus; Ben-Or's test
    # ran on it for each of them.
    modulus = (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,)
    field = ExtensionField(2, 16, modulus)
    rng = random.Random(16)
    mats = [random_matrix(rng, field, 2, 3) for _ in range(4)]
    instance, witness = instance_to_json(field, mats), witness_to_json(solve_unsafe_finite(mats))
    fields._modulus_is_irreducible.cache_clear()
    calls = []
    test = fields.is_irreducible
    monkeypatch.setattr(fields, "is_irreducible", lambda f, coeffs: calls.append(coeffs) or test(f, coeffs))
    parsed_field, parsed = instance_from_json(instance)
    verify_witness(parsed, witness_from_json(witness))
    assert parsed_field.modulus == modulus
    assert calls == [list(modulus)]


def test_tampered_witness_fails_end_to_end():
    rng = random.Random(6)
    mats = [random_matrix(rng, GF2, 2, 1) for _ in range(2)]
    witness = solve_finite(mats)
    obj = witness_to_json(witness)
    tampered = dict(obj, entries=[{"tag": "zero"} for _ in obj["entries"]])
    with pytest.raises(VerificationError):
        verify_witness(mats, witness_from_json(tampered))
