import json
import subprocess
import sys

import numpy as np
import pytest

from rotpair import Dim2LeftScalar, Dim2Proper, Dim4, generate_pair, load_pair
from rotpair.cli import (
    EXIT_NOT_ISOMORPHIC,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")


@pytest.fixture
def pair_file(tmp_path):
    doc = generate_pair(
        [Dim2Proper(alpha=0.5, beta=1.2, r=1),
         Dim4(alpha=0.5, beta=1.2, theta=0.8)],
        seed=1,
    )
    path = tmp_path / "pair.json"
    doc.save(path)
    return str(path)


@pytest.fixture
def twisted_file(tmp_path):
    doc = generate_pair([Dim4(alpha=0.5, beta=1.2, theta=0.8)], seed=2)
    path = tmp_path / "twisted.json"
    doc.save(path)
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCheck:
    def test_text_output(self, capsys, pair_file):
        rc, out, _ = run(capsys, "check", pair_file)
        assert rc == EXIT_OK
        assert "delta" in out and "epsilon" in out
        assert "proper" in out

    def test_json_output(self, capsys, pair_file):
        rc, out, _ = run(capsys, "check", pair_file, "--format", "json")
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["n"] == 6
        assert payload["delta"]["kind"] == "proper"
        assert abs(payload["delta"]["angle"] - 0.5) <= 1e-9

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "check", str(tmp_path / "nope.json"))
        assert rc == EXIT_VALIDATION
        assert "error" in err

    def test_invalid_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 2, "delta": [[2.0, 0.0], [0.0, 1.0]],
             "epsilon": [[1.0, 0.0], [0.0, 1.0]]}
        ))
        rc, _, err = run(capsys, "check", str(path))
        assert rc == EXIT_VALIDATION
        assert "error" in err

    def test_boolean_entry(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"n": 1, "delta": [[True]], "epsilon": [[-1]]}))
        rc, out, err = run(capsys, "check", str(path))
        assert rc == EXIT_VALIDATION
        assert out == ""
        assert "boolean" in err

    def test_string_entry(self, capsys, tmp_path):
        # numpy would read the strings as numbers and load the identity
        path = tmp_path / "strings.json"
        path.write_text(json.dumps({"n": 2, "delta": [["1", "0"], ["0", "1"]],
                                    "epsilon": [[1.0, 0.0], [0.0, 1.0]]}))
        rc, out, err = run(capsys, "check", str(path))
        assert rc == EXIT_VALIDATION
        assert out == ""
        assert err == "error: delta is not a numeric matrix\n"

    @pytest.mark.parametrize("tol", ["nan", "0"])
    def test_rejects_bad_tolerance(self, tmp_path, tol):
        # orthogonality residual 1.5e-3: a NaN tolerance would let it
        # through to the normal form
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 2, "delta": [[1.0, 1.5e-3], [0.0, 1.0]],
             "epsilon": [[1.0, 0.0], [0.0, 1.0]]}
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "rotpair.cli", "check", str(path),
             "--tol", tol],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_VALIDATION
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


    def test_huge_finite_entry_is_one_error_line(self, tmp_path):
        # an overflow warning before the refusal would reach stderr too
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"n": 2, "delta": [[1e200, 0.0], [0.0, 1.0]],
             "epsilon": [[1.0, 0.0], [0.0, 1.0]]}
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "rotpair.cli", "check", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_VALIDATION
        assert proc.stderr == ("error: delta: orthogonality residual inf "
                               "exceeds 1.000e-09\n")


class TestNormalForm:
    def test_json_angles(self, capsys, pair_file):
        rc, out, _ = run(capsys, "normal-form", pair_file, "--format", "json")
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["delta"]["angles"] == [0.5, 0.5, 0.5]
        assert payload["delta"]["fix_dim"] == 0


class TestDecompose:
    def test_json_blocks(self, capsys, pair_file):
        rc, out, _ = run(capsys, "decompose", pair_file, "--format", "json")
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert sorted(b["dim"] for b in payload["blocks"]) == [2, 4]
        assert "label" not in payload

    def test_text_blocks(self, capsys, pair_file):
        rc, out, _ = run(capsys, "decompose", pair_file)
        assert rc == EXIT_OK
        assert "block 1" in out


class TestClassify:
    def test_json_label(self, capsys, pair_file):
        rc, out, _ = run(capsys, "classify", pair_file, "--format", "json")
        assert rc == EXIT_OK
        payload = json.loads(out)
        families = sorted(f["family"] for f in payload["label"])
        assert families == ["dim2_proper", "dim4"]

    def test_text_mentions_families(self, capsys, pair_file):
        rc, out, _ = run(capsys, "classify", pair_file)
        assert rc == EXIT_OK
        assert "dim2_proper" in out and "dim4" in out

    def test_deterministic_json(self, capsys, pair_file):
        _, out1, _ = run(capsys, "classify", pair_file, "--format", "json")
        _, out2, _ = run(capsys, "classify", pair_file, "--format", "json")
        assert out1 == out2

    def test_identity_with_input_error_is_scalar(self, capsys, tmp_path):
        # delta is I off by 1e-12 in one entry: arccos spreads that into an
        # angle of about 1.4e-6, and the +I residual alone must take it
        delta = np.eye(4)
        delta[0, 0] = 0.999999999999
        epsilon = generate_pair([Dim2LeftScalar(1, 1.0)] * 2, seed=3).epsilon
        path = tmp_path / "near_identity.json"
        path.write_text(json.dumps({"n": 4, "delta": delta.tolist(),
                                    "epsilon": epsilon.tolist()}))
        rc, out, err = run(capsys, "classify", str(path))
        assert (rc, err) == (EXIT_OK, "")
        assert ([line.split() for line in out.splitlines()]
                == [["dim2_left_scalar", "r=1", "beta=1"]] * 2)

    def test_numerical_exit_at_extreme_tolerance(self, capsys, tmp_path):
        q = [[0.0, -1.0], [1.0, 0.0]]
        path = tmp_path / "quarter.json"
        path.write_text(json.dumps({"n": 2, "delta": q, "epsilon": q}))
        rc, _, err = run(capsys, "classify", str(path), "--tol", "1e-30")
        assert rc == EXIT_NUMERICAL
        assert "numerical" in err


class TestIsomorphic:
    def test_same_label(self, capsys, tmp_path, pair_file):
        other = generate_pair(
            [Dim4(alpha=0.5, beta=1.2, theta=0.8),
             Dim2Proper(alpha=0.5, beta=1.2, r=1)],
            seed=99,
        )
        path = tmp_path / "other.json"
        other.save(path)
        rc, out, _ = run(capsys, "isomorphic", pair_file, str(path))
        assert rc == EXIT_OK
        assert "isomorphic" in out

    def test_different_label(self, capsys, pair_file, twisted_file):
        rc, out, _ = run(capsys, "isomorphic", pair_file, twisted_file)
        assert rc == EXIT_NOT_ISOMORPHIC
        assert "not isomorphic" in out

    def test_quiet_keeps_exit_code(self, capsys, pair_file, twisted_file):
        rc, out, _ = run(capsys, "isomorphic", pair_file, twisted_file, "--quiet")
        assert rc == EXIT_NOT_ISOMORPHIC
        assert out == ""

    def test_quiet_json_still_prints(self, capsys, pair_file, twisted_file):
        rc, out, _ = run(capsys, "isomorphic", pair_file, twisted_file,
                         "--quiet", "--format", "json")
        assert rc == EXIT_NOT_ISOMORPHIC
        assert json.loads(out) == {"isomorphic": False}


class TestGenerate:
    SPEC = '[{"family": "dim2_proper", "alpha": 0.5, "beta": 1.2, "r": 1}]'

    def test_inline_spec(self, capsys, tmp_path):
        out_path = tmp_path / "gen.json"
        rc, out, _ = run(capsys, "generate", "--spec", self.SPEC,
                         "--seed", "5", "-o", str(out_path))
        assert rc == EXIT_OK
        assert out_path.exists()
        doc = load_pair(out_path)
        assert doc.n == 2
        assert doc.metadata["seed"] == 5

    def test_spec_from_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(self.SPEC)
        out_path = tmp_path / "gen.json"
        rc, _, _ = run(capsys, "generate", "--spec", str(spec_path),
                       "-o", str(out_path))
        assert rc == EXIT_OK
        assert load_pair(out_path).n == 2

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "generate", "--spec", self.SPEC, "--seed", "7", "-o", str(a))
        run(capsys, "generate", "--spec", self.SPEC, "--seed", "7", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_angle_next_to_zero(self, capsys, tmp_path):
        # 5e-8 lies next to 0, but the +I residual fails; the side must
        # come out proper, not as a failed identity
        path = str(tmp_path / "p.json")
        spec = '[{"family": "dim2_right_scalar", "alpha": 5e-8, "s": 1}]'
        rc, _, err = run(capsys, "generate", "--spec", spec, "--seed", "3",
                         "-o", path)
        assert (rc, err) == (EXIT_OK, "")
        rc, out, _ = run(capsys, "classify", path, "--format", "json")
        assert rc == EXIT_OK
        assert abs(json.loads(out)["label"][0]["alpha"] - 5e-8) <= 1e-15

    def test_bad_spec(self, capsys, tmp_path):
        rc, _, err = run(capsys, "generate", "--spec", "[{]",
                         "-o", str(tmp_path / "x.json"))
        assert rc == EXIT_VALIDATION
        assert "error" in err

    def test_non_integer_sign(self, capsys, tmp_path):
        out_path = tmp_path / "x.json"
        rc, _, err = run(capsys, "generate", "--spec",
                         '[{"family": "dim1", "r": 1.7, "s": -1}]',
                         "-o", str(out_path))
        assert rc == EXIT_VALIDATION
        assert "error" in err
        assert not out_path.exists()


class TestOracle:
    def test_witness_on_block_aligned_pair(self, capsys, tmp_path):
        # the witness set of a conjugated reducible pair has measure
        # zero, so feed the oracle an axis-aligned document instead
        from rotpair import PairDocument, realize, rot2
        from rotpair.linalg import block_diag

        d2, e2 = realize(Dim2Proper(alpha=0.5, beta=1.2, r=1))
        d4, e4 = realize(Dim4(alpha=0.5, beta=1.2, theta=0.8))
        doc = PairDocument(
            n=6,
            delta=block_diag(d2, d4),
            epsilon=block_diag(e2, e4),
        )
        path = tmp_path / "aligned.json"
        doc.save(path)
        rc, out, _ = run(capsys, "oracle", str(path), "--format", "json",
                         "--samples", "64")
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["witness"] is not None
        assert len(payload["witness"]) == 6

    def test_no_witness_on_twisted_pair(self, capsys, twisted_file):
        rc, out, _ = run(capsys, "oracle", twisted_file, "--format", "json",
                         "--samples", "512")
        assert rc == EXIT_OK
        assert json.loads(out)["witness"] is None

    def test_text_disclaimer(self, capsys, twisted_file):
        rc, out, _ = run(capsys, "oracle", twisted_file, "--samples", "128")
        assert rc == EXIT_OK
        assert "not a proof" in out


@pytest.mark.parametrize("argv", [
    ["generate", "--spec", TestGenerate.SPEC, "--seed", "-1"],
    ["oracle", "--seed", "-2"],
    ["oracle", "--samples", "-3"],
])
def test_bad_seed_or_samples_is_validation_error(tmp_path, twisted_file, argv):
    out_path = tmp_path / "gen.json"
    if argv[0] == "generate":
        argv = argv + ["-o", str(out_path)]
    else:
        argv = argv[:1] + [twisted_file] + argv[1:]
    proc = subprocess.run([sys.executable, "-m", "rotpair.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr.startswith("error: ")
    assert "non-negative integer" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out_path.exists()


@pytest.mark.parametrize("spec", [
    "[" * 100000 + "]" * 100000,
    '[{"family": "dim2_right_scalar", "alpha": 1' + "0" * 400 + ', "s": 1}]',
    '[{"family": "dim2_right_scalar", "alpha": 1' + "0" * 5000 + ', "s": 1}]',
], ids=["too-deep", "huge-int", "too-many-digits"])
def test_unusable_spec_file_is_validation_error(tmp_path, spec):
    spec_path, out_path = tmp_path / "spec.json", tmp_path / "gen.json"
    spec_path.write_text(spec)
    proc = subprocess.run([sys.executable, "-m", "rotpair.cli", "generate",
                           "--spec", str(spec_path), "-o", str(out_path)],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out_path.exists()


BAD_TOL = "tolerances must be finite and strictly positive"


# in process, where a coverage trace of the suite sees the branches
@pytest.mark.parametrize("argv, message", [
    (["check", "PAIR", "--tol", "0"], BAD_TOL),
    (["check", "PAIR", "--tol", "nan"], BAD_TOL),
    (["generate", "--spec", "SPEC", "-o", "OUT"],
     "--spec must be a JSON array of canonical forms"),
], ids=["tol-zero", "tol-nan", "spec-object"])
def test_typed_refusal_in_process(capsys, tmp_path, pair_file, argv, message):
    spec_path, out_path = tmp_path / "spec.json", tmp_path / "gen.json"
    spec_path.write_text("{}")
    paths = {"PAIR": pair_file, "SPEC": str(spec_path), "OUT": str(out_path)}
    rc, out, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert rc == EXIT_VALIDATION
    assert out == ""
    assert err == f"error: {message}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["classify", "DIR"],
    ["classify", "BINARY"],
    ["generate", "--spec", "DIR", "-o", "OUT"],
    ["generate", "--spec", "BINARY", "-o", "OUT"],
    ["generate", "--spec", TestGenerate.SPEC, "-o", "DIR"],
])
def test_unreadable_path_is_validation_error(capsys, tmp_path, argv):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\x7fELF\xff\xfe\x00")
    paths = {"DIR": str(tmp_path), "BINARY": str(binary),
             "OUT": str(tmp_path / "gen.json")}
    rc, out, err = run(capsys, *[paths.get(arg, arg) for arg in argv])
    assert rc == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: ")
    assert not (tmp_path / "gen.json").exists()


@pytest.mark.parametrize("flags", [
    (), ("--format", "json"), ("--quiet",), ("--format", "json", "--quiet"),
], ids=["text", "json", "quiet", "json-quiet"])
@pytest.mark.parametrize("command", [
    "check", "normal-form", "decompose", "classify", "isomorphic", "generate",
    "oracle",
])
def test_every_subcommand_in_every_output_mode(capsys, tmp_path, pair_file,
                                               twisted_file, command, flags):
    argv, code = {
        "check": (["check", pair_file], EXIT_OK),
        "normal-form": (["normal-form", pair_file], EXIT_OK),
        "decompose": (["decompose", pair_file], EXIT_OK),
        "classify": (["classify", pair_file], EXIT_OK),
        "isomorphic": (["isomorphic", pair_file, twisted_file], EXIT_NOT_ISOMORPHIC),
        "generate": (["generate", "--spec", TestGenerate.SPEC,
                      "-o", str(tmp_path / "gen.json")], EXIT_OK),
        "oracle": (["oracle", twisted_file, "--samples", "64"], EXIT_OK),
    }[command]
    rc, out, err = run(capsys, *argv, *flags)
    assert (rc, err) == (code, "")
    # JSON is printed even under --quiet; generate has no JSON and
    # prints its note as text in both formats
    if "json" in flags and command != "generate":
        json.loads(out)
    else:
        assert (out == "") == ("--quiet" in flags)


def test_module_entry_point(tmp_path):
    doc = generate_pair([Dim2Proper(alpha=0.5, beta=1.2, r=1)], seed=1)
    path = tmp_path / "pair.json"
    doc.save(path)
    proc = subprocess.run(
        [sys.executable, "-m", "rotpair.cli", "check", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "delta" in proc.stdout


def test_closed_stdout_ends_without_a_traceback(tmp_path):
    # the reader stops after 10 bytes, as `| head -c 10` does, while the
    # n = 96 normal form still fills more than a pipe buffer
    spec = [Dim4(0.7, 1.9, t) for t in np.linspace(0.3, 2.8, 12)]
    spec += [Dim2Proper(0.7, 1.9, r) for r in (1, -1) for _ in range(12)]
    path = tmp_path / "n96.json"
    generate_pair(spec, seed=3).save(path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "rotpair.cli", "normal-form", str(path),
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{\n  "delta'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_VALIDATION
    assert err == b""


def test_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rotpair.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_help_lists_subcommands():
    proc = subprocess.run(
        [sys.executable, "-m", "rotpair.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for name in ("check", "normal-form", "decompose", "classify",
                 "isomorphic", "generate", "oracle"):
        assert name in proc.stdout
