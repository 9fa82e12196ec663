import json
import subprocess
import sys

import numpy as np
import pytest

from traceless import Operator, cuntz, fock_truncation, identity, parse_star_poly
from traceless.cli import main
from traceless.serialization import dumps, matrix_to_json, poly_to_json
from traceless.witness import toeplitz_candidate_family

from helpers import random_hermitian, random_operator


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_witness_gen_then_check(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    code, envelope, _ = run_cli(
        capsys, "witness-gen", "--standard", "2", "--depth", "3", "--out", str(wfile)
    )
    assert code == 0
    assert wfile.exists()
    code, envelope, _ = run_cli(capsys, "witness-check", str(wfile))
    # the truncated family is boundary-invalid, but the report is still emitted
    assert code == 2
    report = envelope["result"]["report"]
    assert report["eta2"] == pytest.approx(0.5, abs=1e-12)
    assert report["eta1"] == pytest.approx(1.0, abs=1e-12)
    assert report["eta1_interior"] <= 1e-12


def test_symbolic_witness_check_is_valid(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    code, _, _ = run_cli(capsys, "witness-gen", "--standard", "2", "--out", str(wfile))
    assert code == 0
    code, envelope, _ = run_cli(capsys, "witness-check", str(wfile))
    assert code == 0
    assert envelope["result"]["report"]["valid"] is True
    assert envelope["result"]["report"]["eta2"] == pytest.approx(0.5, abs=1e-12)


def test_witness_build_from_candidates_file(tmp_path, capsys):
    cfile = tmp_path / "toeplitz-J2.json"
    code, _, _ = run_cli(
        capsys, "witness-gen", "--toeplitz-candidates", "2", "--out", str(cfile)
    )
    assert code == 0
    wfile = tmp_path / "wj.json"
    code, envelope, _ = run_cli(
        capsys,
        "witness-build",
        "--candidates",
        str(cfile),
        "--out",
        str(wfile),
    )
    assert code == 0
    assert envelope["result"]["witness"]["report"]["eta2"] == pytest.approx(
        2.0 / 3.0, abs=1e-12
    )
    assert envelope["result"]["witness"]["report"]["valid"] is True


def test_symbolic_witness_check_takes_eta2_from_an_upper_bound(tmp_path, capsys):
    # sum b b* of b1 = b2 = s1^5 / sqrt(2) is the projection s1^5 s1^5*, of
    # norm 1; a Fock truncation of depth <= 4 gives it norm 0
    b = poly_to_json(parse_star_poly("s1 s1 s1 s1 s1", 2) * 0.5**0.5)
    wfile = tmp_path / "w.json"
    wfile.write_text(
        dumps(
            {
                "backend": "symbolic",
                "elements": [b, b],
                "report": {"eta1": 0.0, "eta2": 0.0, "valid": True},
            }
        )
    )
    code, envelope, _ = run_cli(capsys, "witness-check", str(wfile))
    assert code == 2
    report = envelope["result"]["report"]
    assert report["eta2"] >= 1.0 - 1e-12
    assert report["valid"] is False


def test_witness_build_matrix_candidates_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(60)
    cfile = tmp_path / "rand.json"
    cfile.write_text(
        dumps(
            {
                "backend": "matrix",
                "elements": [matrix_to_json(random_operator(rng, 8)) for _ in range(3)],
            }
        )
    )
    code, envelope, _ = run_cli(capsys, "witness-build", "--candidates", str(cfile))
    assert code == 2
    assert envelope["error"]["code"] == "trace-obstruction"
    assert envelope["error"]["t0"] >= 1.0 - 1e-9


def test_decompose_verify_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(61)
    wfile = tmp_path / "w.json"
    run_cli(capsys, "witness-gen", "--toeplitz", "2", "--out", str(wfile))
    trunc = fock_truncation(2, 4)
    afile = tmp_path / "a.json"
    afile.write_text(dumps(matrix_to_json(random_hermitian(rng, 31, trunc.labels))))
    dfile = tmp_path / "d.json"
    code, envelope, _ = run_cli(
        capsys,
        "decompose",
        "--a",
        str(afile),
        "--witness",
        str(wfile),
        "--depth",
        "4",
        "--eps",
        "1e-10",
        "--solver",
        "neumann",
        "--out",
        str(dfile),
    )
    assert code == 0
    assert "tol" not in envelope["config"]
    report = envelope["result"]["decomposition"]
    assert report["n"] == 5
    assert report["residual_interior_norm"] <= 1e-8
    assert report["solver"]["method"] == "neumann"
    code, verdict, _ = run_cli(capsys, "verify", "--report", str(dfile))
    assert code == 0
    assert verdict["result"]["residual_norm"] == pytest.approx(
        report["residual_norm"], abs=1e-12
    )
    assert verdict["result"]["trace_defect"] <= 1e-9 * 31


def test_decompose_rejects_tampered_eta2(tmp_path, capsys):
    rng = np.random.default_rng(62)
    wfile = tmp_path / "w.json"
    run_cli(capsys, "witness-gen", "--standard", "2", "--depth", "3", "--out", str(wfile))
    afile = tmp_path / "a.json"
    afile.write_text(dumps(matrix_to_json(random_hermitian(rng, 15, fock_truncation(2, 3).labels))))
    argv = ("decompose", "--a", str(afile), "--witness", str(wfile))
    code, envelope, _ = run_cli(capsys, *argv)
    assert code == 0
    assert envelope["result"]["decomposition"]["residual_interior_norm"] <= 1e-8
    witness = json.loads(wfile.read_text())
    for tampered in (0.05, float("nan")):
        witness["report"]["eta2"] = tampered
        wfile.write_text(json.dumps(witness))
        code, envelope, _ = run_cli(capsys, *argv)
        assert code == 2
        assert envelope["error"]["code"] == "stale-report"


def test_symbolic_witness_with_a_stale_eta2_is_refused(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    run_cli(capsys, "witness-gen", "--toeplitz", "2", "--out", str(wfile))
    afile = tmp_path / "a.json"
    afile.write_text(dumps(matrix_to_json(identity(31, fock_truncation(2, 4).labels))))
    witness = json.loads(wfile.read_text())
    witness["report"]["eta2"] = 0.05
    wfile.write_text(json.dumps(witness))
    code, envelope, _ = run_cli(
        capsys, "decompose", "--a", str(afile), "--witness", str(wfile), "--depth", "4"
    )
    assert code == 2
    assert envelope["error"]["code"] == "stale-report"


def test_witness_gen_and_witness_check_print_the_same_eta2(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    _, generated, _ = run_cli(capsys, "witness-gen", "--standard", "2", "--out", str(wfile))
    _, checked, _ = run_cli(capsys, "witness-check", str(wfile))
    assert generated["result"]["witness"]["report"]["eta2"] == checked["result"]["report"]["eta2"]


def test_witness_build_without_a_source_is_an_input_error(capsys):
    code, envelope, _ = run_cli(capsys, "witness-build")
    assert code == 1
    assert envelope["error"]["code"] == "input-error"
    assert "--candidates" in envelope["error"]["message"]
    assert "--toeplitz" in envelope["error"]["message"]


def test_verify_refuses_an_element_of_the_other_backend(tmp_path, capsys):
    wfile = _standard_witness_file(tmp_path, capsys)
    rng = np.random.default_rng(67)
    afile = _matrix_file(
        tmp_path, "a.json", matrix_to_json(random_hermitian(rng, 7, fock_truncation(2, 2).labels))
    )
    dfile = tmp_path / "d.json"
    argv = ("decompose", "--a", afile, "--witness", str(wfile), "--out", str(dfile))
    assert run_cli(capsys, *argv)[0] == 0
    pfile = _matrix_file(tmp_path, "p.json", poly_to_json(parse_star_poly("s1 + s1*", 2)))
    code, envelope, _ = run_cli(capsys, "verify", "--report", str(dfile), "--a", pfile)
    assert code == 1
    assert envelope["error"]["code"] == "input-error"
    assert "--a" in envelope["error"]["message"]


_RESIDUAL_FIELDS = ("residual_norm", "residual_interior_norm", "trace_defect")


def _decompose_then_verify(tmp_path, capsys, afile, wfile):
    """decompose's residual fields and those verify prints for its report."""
    dfile = tmp_path / "d.json"
    argv = ("decompose", "--a", str(afile), "--witness", str(wfile), "--out", str(dfile))
    code, envelope, _ = run_cli(capsys, *argv)
    assert code == 0
    report = envelope["result"]["decomposition"]
    code, verdict, _ = run_cli(capsys, "verify", "--report", str(dfile))
    assert code == 0
    return report, verdict["result"]


def test_element_labels_other_than_the_witness_labels_are_an_input_error(tmp_path, capsys):
    wfile = _standard_witness_file(tmp_path, capsys)
    labels = fock_truncation(2, 2).labels[::-1]
    a = random_hermitian(np.random.default_rng(80), 7, labels)
    afile = _matrix_file(tmp_path, "a.json", matrix_to_json(a))
    code, envelope, _ = run_cli(capsys, "decompose", "--a", afile, "--witness", str(wfile))
    assert code == 1
    assert envelope["error"]["code"] == "input-error"
    assert "labels" in envelope["error"]["message"]


def test_an_element_of_another_dimension_is_a_dimension_mismatch(tmp_path, capsys):
    wfile = _standard_witness_file(tmp_path, capsys)
    a = random_hermitian(np.random.default_rng(84), 15, fock_truncation(2, 3).labels)
    for element in (a, Operator(a.entries)):
        afile = _matrix_file(tmp_path, "a.json", matrix_to_json(element))
        code, envelope, _ = run_cli(capsys, "decompose", "--a", afile, "--witness", str(wfile))
        assert code == 2
        assert envelope["error"]["code"] == "dimension-mismatch"


def test_an_unlabelled_element_takes_the_witness_labels(tmp_path, capsys):
    wfile = _standard_witness_file(tmp_path, capsys)
    a = random_hermitian(np.random.default_rng(81), 7)
    afile = _matrix_file(tmp_path, "a.json", matrix_to_json(a))
    report, verdict = _decompose_then_verify(tmp_path, capsys, afile, wfile)
    assert report["a"]["labels"] == list(fock_truncation(2, 2).labels)
    assert report["residual_interior_norm"] <= 1e-8
    for key in _RESIDUAL_FIELDS:
        assert verdict[key] == report[key]


def test_a_labelled_element_with_an_unlabelled_witness_agrees_with_verify(tmp_path, capsys):
    wfile = _standard_witness_file(tmp_path, capsys)
    witness = json.loads(wfile.read_text())
    for element in witness["elements"]:
        del element["labels"]
    wfile.write_text(json.dumps(witness))
    a = random_hermitian(np.random.default_rng(82), 7, fock_truncation(2, 2).labels)
    afile = _matrix_file(tmp_path, "a.json", matrix_to_json(a))
    report, verdict = _decompose_then_verify(tmp_path, capsys, afile, wfile)
    assert report["residual_interior_norm"] <= 1e-8
    for key in _RESIDUAL_FIELDS:
        assert verdict[key] == report[key]


@pytest.mark.parametrize("witness_labels", [True, False])
def test_decompose_derives_one_interior(tmp_path, capsys, monkeypatch, witness_labels):
    """The witness's interior, or a's own when the witness has no labels."""
    wfile = _standard_witness_file(tmp_path, capsys)
    if not witness_labels:
        witness = json.loads(wfile.read_text())
        for element in witness["elements"]:
            del element["labels"]
        wfile.write_text(json.dumps(witness))
    a = random_hermitian(np.random.default_rng(84), 7, fock_truncation(2, 2).labels)
    afile = _matrix_file(tmp_path, "a.json", matrix_to_json(a))
    calls = []
    truncation = cuntz.fock_truncation

    def counted(n, depth):
        calls.append((n, depth))
        return truncation(n, depth)

    monkeypatch.setattr(cuntz, "fock_truncation", counted)
    code, envelope, _ = run_cli(capsys, "decompose", "--a", afile, "--witness", str(wfile))
    assert code == 0
    assert envelope["result"]["decomposition"]["residual_interior_norm"] <= 1e-8
    assert calls == [(2, 2)]


def test_a_witness_file_that_claims_no_eta2_is_decomposed(tmp_path, capsys):
    wfile = _standard_witness_file(tmp_path, capsys)
    a = random_hermitian(np.random.default_rng(83), 7, fock_truncation(2, 2).labels)
    afile = _matrix_file(tmp_path, "a.json", matrix_to_json(a))
    argv = ("decompose", "--a", afile, "--witness", str(wfile))
    code, _, claimed = run_cli(capsys, *argv)
    assert code == 0
    witness = json.loads(wfile.read_text())
    for drop in (lambda w: w["report"].pop("eta2"), lambda w: w.pop("report")):
        drop(witness)
        wfile.write_text(json.dumps(witness))
        code, _, unclaimed = run_cli(capsys, *argv)
        assert code == 0
        assert unclaimed == claimed


def test_eval_normal_form_and_composition(capsys):
    code, envelope, _ = run_cli(capsys, "eval", "--expr", "s1* s1", "--n", "2")
    assert code == 0
    assert envelope["result"]["normal_form"] == "1"
    code, envelope, _ = run_cli(
        capsys, "eval", "--expr", "s1* s1", "--n", "2", "--depth", "2", "--compose"
    )
    diag = [row[k][0] for k, row in enumerate(envelope["result"]["matrix"]["entries"])]
    assert diag == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def test_eval_syntax_error_exit_1(capsys):
    code, envelope, _ = run_cli(capsys, "eval", "--expr", "s1 +", "--n", "2")
    assert code == 1
    assert envelope["error"]["code"] == "syntax-error"


def test_missing_file_exit_1(capsys):
    code, envelope, _ = run_cli(capsys, "witness-check", "/nonexistent/w.json")
    assert code == 1
    assert envelope["error"]["code"] == "input-error"


def test_dist_command(tmp_path, capsys):
    from traceless import evaluate

    trunc = fock_truncation(2, 4)
    ffile = tmp_path / "family.json"
    ffile.write_text(
        dumps(
            {
                "generators": [
                    matrix_to_json(evaluate(a, trunc))
                    for a in toeplitz_candidate_family(2)
                ]
            }
        )
    )
    code, envelope, _ = run_cli(capsys, "dist", "--family", str(ffile))
    assert code == 0
    assert envelope["result"]["opnorm_residual"] >= 1.0 - 1e-9
    code, envelope, _ = run_cli(
        capsys, "dist", "--family", str(ffile), "--interior-length", "3"
    )
    assert code == 0
    assert envelope["result"]["opnorm_residual"] <= 0.5 + 1e-6


def _family_file(tmp_path, generators):
    ffile = tmp_path / "family.json"
    ffile.write_text(dumps({"generators": [matrix_to_json(a) for a in generators]}))
    return str(ffile)


def test_dist_generators_with_different_labels_are_an_input_error(tmp_path, capsys):
    labels = fock_truncation(2, 2).labels
    rng = np.random.default_rng(85)
    generators = [random_operator(rng, 7, labels), random_operator(rng, 7, labels[::-1])]
    code, envelope, _ = run_cli(capsys, "dist", "--family", _family_file(tmp_path, generators))
    assert code == 1
    assert envelope["error"]["code"] == "input-error"
    assert "labels" in envelope["error"]["message"]


def test_dist_dim_other_than_the_generators_is_a_dimension_mismatch(tmp_path, capsys):
    rng = np.random.default_rng(86)
    ffile = _family_file(tmp_path, [random_operator(rng, 5) for _ in range(2)])
    code, envelope, _ = run_cli(capsys, "dist", "--family", ffile, "--dim", "3")
    assert code == 2
    assert envelope["error"]["code"] == "dimension-mismatch"
    code, envelope, _ = run_cli(capsys, "dist", "--family", ffile, "--dim", "5")
    assert code == 0
    assert envelope["config"]["dim"] == 5


@pytest.mark.parametrize(
    "argv, value",
    [
        (("decompose", "--a", "a.json", "--witness", "w.json", "--eps", "nan"), "nan"),
        (("decompose", "--a", "a.json", "--witness", "w.json", "--eps=-inf"), "-inf"),
        (("witness-check", "w.json", "--tol", "nan"), "nan"),
        (("witness-gen", "--standard", "2", "--tol", "inf"), "inf"),
        (("witness-build", "--toeplitz", "2", "--tol", "nan"), "nan"),
        (("decompose", "--a", "a.json", "--witness", "w.json", "--eps", "abc"), "abc"),
    ],
)
def test_a_non_finite_float_option_is_a_usage_error(capsys, argv, value):
    # refused by argparse before any file is read, as text that is not a number is
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid finite float value: {value!r}" in captured.err


@pytest.mark.parametrize("eps", ["0", "-0.0", "-1", "-1e-300"])
def test_a_non_positive_eps_is_a_usage_error(capsys, eps):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--a", "a.json", "--witness", "w.json", f"--eps={eps}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid positive float value: {eps!r}" in captured.err


def test_witness_elements_with_different_labels_are_an_input_error(tmp_path, capsys):
    wfile = _standard_witness_file(tmp_path, capsys)
    witness = json.loads(wfile.read_text())
    witness["elements"][1]["labels"].reverse()
    wfile.write_text(dumps(witness))
    code, envelope, _ = run_cli(capsys, "witness-check", str(wfile))
    assert code == 1
    assert envelope["error"]["code"] == "input-error"
    assert "labels" in envelope["error"]["message"]


def test_reports_are_byte_identical(capsys):
    _, _, first = run_cli(capsys, "witness-gen", "--toeplitz", "2", "--depth", "5")
    _, _, second = run_cli(capsys, "witness-gen", "--toeplitz", "2", "--depth", "5")
    assert first == second


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "traceless.cli", "eval", "--expr", "s1 s2*", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    envelope = json.loads(proc.stdout)
    assert envelope["tool"] == "traceless"
    assert envelope["result"]["normal_form"] == "s1 s2*"


def _matrix_file(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _standard_witness_file(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    code, _, _ = run_cli(
        capsys, "witness-gen", "--standard", "2", "--depth", "2", "--out", str(wfile)
    )
    assert code == 0
    return wfile


def test_non_finite_matrix_entry_is_an_input_error(tmp_path, capsys):
    wfile = _standard_witness_file(tmp_path, capsys)
    rng = np.random.default_rng(63)
    data = matrix_to_json(random_hermitian(rng, 7, fock_truncation(2, 2).labels))
    data["entries"][2][5][1] = float("nan")
    afile = _matrix_file(tmp_path, "a.json", data)
    code, envelope, _ = run_cli(capsys, "decompose", "--a", afile, "--witness", str(wfile))
    assert code == 1
    assert envelope["error"]["code"] == "input-error"
    assert "row 2, column 5" in envelope["error"]["message"]


def test_ragged_matrix_row_is_an_input_error(tmp_path, capsys):
    wfile = _standard_witness_file(tmp_path, capsys)
    rng = np.random.default_rng(64)
    data = matrix_to_json(random_hermitian(rng, 7, fock_truncation(2, 2).labels))
    del data["entries"][4][-1]
    afile = _matrix_file(tmp_path, "a.json", data)
    code, envelope, _ = run_cli(capsys, "decompose", "--a", afile, "--witness", str(wfile))
    assert code == 1
    assert envelope["error"]["code"] == "input-error"
    assert "row 4" in envelope["error"]["message"]


def test_labels_that_are_not_a_fock_basis_are_an_input_error(tmp_path, capsys):
    wfile = _standard_witness_file(tmp_path, capsys)
    witness = json.loads(wfile.read_text())
    for element in witness["elements"]:
        element["labels"][1], element["labels"][2] = element["labels"][2], element["labels"][1]
    wfile.write_text(dumps(witness))
    code, envelope, _ = run_cli(capsys, "witness-check", str(wfile))
    assert code == 1
    assert envelope["error"]["code"] == "input-error"
    assert "Fock basis" in envelope["error"]["message"]
    ffile = _matrix_file(tmp_path, "family.json", {"generators": witness["elements"]})
    code, envelope, _ = run_cli(capsys, "dist", "--family", ffile, "--interior-length", "1")
    assert code == 1
    assert "Fock basis" in envelope["error"]["message"]


_SYMBOLIC = ["--standard", "2"]
_D2, _D3, _D6 = (["--standard", "2", "--depth", str(depth)] for depth in (2, 3, 6))
_CHECK = ["witness-check", "{w}"]
_DECOMPOSE = ["decompose", "--a", "{a}", "--witness", "{w}"]
_VERIFY = ["verify", "--report", "{r}"]
_DIST = ["dist", "--family", "{f}"]
# case: (witness-gen arguments for {w}, file to edit, key path in it (empty
# for the whole file), new value, command); {a} is a valid d = 7 matrix, {r}
# its decomposition report over {w} and {f} the span family {"generators": [a]}
MALFORMED = {
    "symbolic-as-matrix-check": (_SYMBOLIC, "w", ["backend"], "matrix", _CHECK),
    "symbolic-as-matrix-decompose": (_SYMBOLIC, "w", ["backend"], "matrix", _DECOMPOSE),
    "matrix-as-symbolic-check": (_D6, "w", ["backend"], "symbolic", _CHECK),
    "matrix-as-symbolic-decompose": (
        _D6, "w", ["backend"], "symbolic", [*_DECOMPOSE, "--depth", "6"]
    ),
    "matrix-witness-with-polynomial": (
        _D2, "w", ["elements", 1], poly_to_json(parse_star_poly("s1", 2)), _CHECK
    ),
    "mixed-candidates": (
        ["--toeplitz-candidates", "2"], "w", ["elements", 0], matrix_to_json(identity(3)),
        ["witness-build", "--candidates", "{w}"],
    ),
    "nan-coefficient": (
        _SYMBOLIC, "w", ["elements", 0, "terms", 0, "re"], float("nan"), _CHECK
    ),
    "mu-not-a-string": (_SYMBOLIC, "w", ["elements", 0, "terms", 0, "mu"], 5, _CHECK),
    "nu-not-a-string": (_SYMBOLIC, "w", ["elements", 0, "terms", 0, "nu"], 5, _CHECK),
    "terms-not-a-list": (_SYMBOLIC, "w", ["elements", 0, "terms"], 5, _CHECK),
    "term-not-an-object": (_SYMBOLIC, "w", ["elements", 0, "terms", 0], 5, _CHECK),
    "elements-not-a-list": (_SYMBOLIC, "w", ["elements"], 5, _CHECK),
    "element-not-an-object": (_SYMBOLIC, "w", ["elements", 0], 5, _CHECK),
    "cell-too-short": (_D2, "a", ["entries", 3, 2], [0], _DECOMPOSE),
    "cell-not-a-number": (_D2, "a", ["entries", 3, 2], ["x", 0], _DECOMPOSE),
    "cell-bare-number": (_D2, "a", ["entries", 3, 2], 0.5, _DECOMPOSE),
    "cell-boolean": (_D2, "a", ["entries", 3, 2], [True, 0.0], _DECOMPOSE),
    "cell-int-past-float-range": (_D2, "a", ["entries", 3, 2], [10**400, 0], _DECOMPOSE),
    "row-not-a-list": (_D2, "a", ["entries", 0], 5, _DECOMPOSE),
    "entries-not-a-list": (_D2, "a", ["entries"], 5, _DECOMPOSE),
    **{
        f"coefficient-{part}-{kind}": (
            _SYMBOLIC, "w", ["elements", 0, "terms", 0, part], value, _CHECK
        )
        for part in ("re", "im")
        for kind, value in [
            ("string", "0.5"), ("null", None), ("list", [0.5]), ("object", {"re": 0.5}),
            ("boolean", True), ("int-past-float-range", 10**400),
        ]
    },
    "coefficient-modulus-past-float-range": (
        _SYMBOLIC, "w", ["elements", 0, "terms", 0],
        {"mu": "1", "nu": "", "re": 1.5e308, "im": 1.5e308}, _CHECK,
    ),
    **{f"degree-{v!r}": (_D3, "w", ["degree"], v, _CHECK) for v in ("1", 1.5, True, -1)},
    "witness-file-a-list": (_SYMBOLIC, "w", [], [], _CHECK),
    "report-file-a-list": (_D2, "r", [], [], _VERIFY),
    "report-not-an-object": (_SYMBOLIC, "w", ["report"], 5, _CHECK),
    "report-eta1-a-list": (_D2, "w", ["report", "eta1"], [0.5], _CHECK),
    "report-eta2-null": (_D2, "w", ["report", "eta2"], None, _DECOMPOSE),
    "pairs-not-a-list": (_D2, "r", ["pairs"], 5, _VERIFY),
    "pair-not-an-object": (_D2, "r", ["pairs", 0], 5, _VERIFY),
    "pair-element-not-an-object": (_D2, "r", ["pairs", 0, "x"], 5, _VERIFY),
    "pair-element-of-the-other-backend": (
        _D2, "r", ["pairs", 0, "x"], poly_to_json(parse_star_poly("s1", 2)), _VERIFY
    ),
    "dim-not-a-number": (_D2, "a", ["dim"], [7], _DECOMPOSE),
    "labels-not-a-list": (_D2, "a", ["labels"], 5, _DECOMPOSE),
    "label-not-a-string": (_D2, "a", ["labels", 1], 1, _DECOMPOSE),
    "n-not-a-number": (_SYMBOLIC, "w", ["elements", 0, "n"], [2], _CHECK),
    "generators-not-a-list": (_D2, "f", ["generators"], 5, _DIST),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_is_an_input_error(tmp_path, capsys, case):
    gen_args, target, path, value, command = MALFORMED[case]
    files = {name: tmp_path / f"{name}.json" for name in "wafr"}
    assert main(["witness-gen", *gen_args, "--out", str(files["w"])]) == 0
    a = random_hermitian(np.random.default_rng(66), 7, fock_truncation(2, 2).labels)
    files["a"].write_text(dumps(matrix_to_json(a)))
    files["f"].write_text(dumps({"generators": [matrix_to_json(a)]}))
    if target == "r":
        assert main([arg.format(**files) for arg in [*_DECOMPOSE, "--out", "{r}"]]) == 0
    data = value
    if path:
        data = node = json.loads(files[target].read_text())
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    files[target].write_text(json.dumps(data))
    capsys.readouterr()
    code = main([arg.format(**files) for arg in command])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"]["code"] == "input-error"
    assert captured.err == ""


@pytest.mark.parametrize("target", ["missing-dir/x.json", "."])
def test_an_out_file_that_cannot_be_opened_is_an_input_error(tmp_path, monkeypatch, capsys, target):
    monkeypatch.chdir(tmp_path)
    code, envelope, _ = run_cli(capsys, "eval", "--expr", "s1", "--n", "2", "--out", target)
    assert code == 1
    assert envelope["error"]["code"] == "input-error"
    assert "result" not in envelope
    assert envelope["config"]["out"] == target
    assert list(tmp_path.iterdir()) == []
