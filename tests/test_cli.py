"""Command line driver: exit codes, report files, decompositions."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from su3forms import cli

SRC = Path(__file__).resolve().parents[1] / "src"

#: algebra-only use: the library suite, a decomposition and the CLI command
_ALGEBRA_ONLY = """
import sys
from su3forms import cli
from su3forms.identities import run_algebra_suite
from su3forms.structure import decompose_three_form, psi_plus
assert run_algebra_suite(1, mode="exact").all_passed
decompose_three_form(psi_plus())
assert cli.main(["verify-algebra", "--trials", "1"]) == 0
assert "numpy" not in sys.modules, "numpy was imported"
"""

#: the sphere suites of the stencil benchmark, which draw their samples from
#: the stdlib generator
_SPHERE_SUITES = """
import sys
from su3forms import verify_gray, verify_linearized_basis, verify_spectral
for suite in (verify_gray, verify_spectral, verify_linearized_basis):
    assert suite(samples=1).all_passed
assert "numpy.random" not in sys.modules, "numpy.random was imported"
"""


def _run_script(script: str) -> subprocess.CompletedProcess:
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )


def run(argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse errors surface as SystemExit(2)
        return exc.code


def test_verify_algebra_passes(capsys):
    assert cli.main(["verify-algebra", "--trials", "3"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_algebra_use_never_imports_numpy():
    proc = _run_script(_ALGEBRA_ONLY)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_sphere_suites_never_import_numpy_random():
    proc = _run_script(_SPHERE_SUITES)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_verify_algebra_float_mode():
    assert cli.main(["verify-algebra", "--trials", "3", "--mode", "float"]) == 0


def test_report_files_are_reproducible(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify-algebra", "--trials", "3", "--seed", "5", "--out"]
    assert cli.main(argv + [str(f1)]) == 0
    assert cli.main(argv + [str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    data = json.loads(f1.read_text())
    assert data["samples"] == 3 and data["seed"] == 5 and data["h"] is None
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)


def test_verify_s6_spectral(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = cli.main(
        ["verify-s6", "--suite", "spectral", "--samples", "4", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["suite"] == "spectral" and data["h"] == 1e-3


def test_verify_s6_single_deformation(capsys):
    code = cli.main(
        ["verify-s6", "--suite", "linearized", "--samples", "4", "--deform", "a=e7"]
    )
    assert code == 0
    assert "five_form_vs_volume" in capsys.readouterr().out


def test_usage_errors_exit_two(monkeypatch, capsys):
    assert run(["verify-algebra", "--trials", "0"]) == 2
    assert run(["verify-s6", "--h", "1e-8"]) == 2
    assert run(["verify-s6", "--suite", "nope"]) == 2
    capsys.readouterr()
    # each bad direction is rejected for itself, not for the suite it runs
    assert run(["verify-s6", "--deform", "e9"]) == 2
    assert "e1..e7" in capsys.readouterr().err
    assert run(["verify-s6", "--deform", "1,2,3"]) == 2
    assert "7 components" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["gray", "spectral", "cl", "all"])
def test_deform_rejects_another_suite(capsys, suite):
    argv = ["verify-s6", "--suite", suite, "--samples", "1", "--deform", "a=e1"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--deform runs the linearized suite" in captured.err


def test_deform_without_a_suite_runs_the_linearized_suite(capsys):
    assert run(["verify-s6", "--samples", "1", "--deform", "a=e1"]) == 0
    assert "five_form_vs_volume" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_deformation_exits_two(capsys, value):
    argv = ["verify-s6", "--samples", "1", "--deform", f"a={value},0,0,0,0,0,0"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite" in captured.err


def _assert_usage_error(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    # rejected as a usage error: no suite ran, so no summary line printed
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err
    return captured.err


def _assert_rejected_before_running(argv, out, capsys):
    err = _assert_usage_error([*argv, "--out", str(out)], capsys)
    # nothing written: a missing path stays missing, a directory stays empty
    assert not out.exists() or (out.is_dir() and not any(out.iterdir()))
    return err


def test_unwritable_report_path_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    _assert_rejected_before_running(["verify-algebra", "--trials", "1"], out, capsys)


def test_unwritable_s6_report_path_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    _assert_rejected_before_running(["verify-s6", "--suite", "gray", "--samples", "1"], out, capsys)


@pytest.mark.parametrize(
    "argv",
    [["verify-algebra", "--trials", "1"], ["verify-s6", "--suite", "gray", "--samples", "1"]],
)
def test_directory_report_path_exits_two(tmp_path, capsys, argv):
    err = _assert_rejected_before_running(argv, tmp_path, capsys)
    assert "is a directory" in err


@pytest.mark.parametrize(
    "argv",
    [["verify-algebra", "--trials", "1"], ["verify-s6", "--suite", "spectral", "--samples", "1"]],
)
def test_empty_report_path_exits_two(tmp_path, capsys, monkeypatch, argv):
    # an empty --out is a usage error, not "no report"
    monkeypatch.chdir(tmp_path)
    err = _assert_usage_error([*argv, "--out", ""], capsys)
    assert "report path is empty" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("suite, samples", [("gray", "0"), ("gray", "-1"), ("spectral", "0")])
def test_empty_sphere_run_exits_two(capsys, suite, samples):
    assert run(["verify-s6", "--suite", suite, "--samples", samples]) == 2
    assert "samples must be at least 1" in capsys.readouterr().err


def test_decompose_psi_plus(monkeypatch, capsys):
    payload = json.dumps(
        {
            "mode": "exact",
            "terms": [
                {"blade": "e135", "coeff": "1"},
                {"blade": "e146", "coeff": "-1"},
                {"blade": "e236", "coeff": "-1"},
                {"blade": "e245", "coeff": "-1"},
            ],
        }
    )
    assert run(["decompose", "--kind", "3form"], payload, monkeypatch) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lambda"] == "1" and data["mu"] == "0"
    assert all(v == "0" for v in data["alpha"])
    assert all(v == "0" for row in data["S"] for v in row)
    assert data["residual"] == 0.0


def test_decompose_omega(monkeypatch, capsys):
    payload = json.dumps(
        {
            "mode": "exact",
            "terms": [
                {"blade": "e12", "coeff": "1"},
                {"blade": "e34", "coeff": "1"},
                {"blade": "e56", "coeff": "1"},
            ],
        }
    )
    assert run(["decompose", "--kind", "2form"], payload, monkeypatch) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["c"] == "1"
    assert data["phi0"]["terms"] == []
    assert all(v == "0" for v in data["xi"])


def test_decompose_float_two_form(monkeypatch, capsys):
    payload = json.dumps(
        {"mode": "float", "terms": [{"blade": "e12", "coeff": 2.0}]}
    )
    assert run(["decompose", "--kind", "2form"], payload, monkeypatch) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["residual"] < 1e-12
    assert abs(data["c"] - 2.0 / 3.0) < 1e-15


def test_decompose_endo(monkeypatch, capsys):
    rows = [[0.0] * 6 for _ in range(6)]
    rows[0][2] = rows[2][0] = 1.0  # symmetric, J-anticommuting part only
    rows[1][3] = rows[3][1] = -1.0
    payload = json.dumps({"mode": "float", "rows": rows})
    assert run(["decompose", "--kind", "endo"], payload, monkeypatch) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["residual"] < 1e-12
    assert all(abs(v) < 1e-12 for v in data["xi"])
    assert abs(data["S"][0][2] - 1.0) < 1e-12


@pytest.mark.parametrize("missing", ["mode", "rows"])
def test_decompose_endo_names_a_missing_key(monkeypatch, capsys, missing):
    payload = {"mode": "float", "rows": [[0.0] * 6 for _ in range(6)]}
    del payload[missing]
    assert run(["decompose", "--kind", "endo"], json.dumps(payload), monkeypatch) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "endomorphism object needs 'mode' and 'rows'" in captured.err
    assert repr(missing) in captured.err


def test_decompose_bad_blade(monkeypatch, capsys):
    payload = json.dumps({"mode": "exact", "terms": [{"blade": "e17", "coeff": "1"}]})
    assert run(["decompose", "--kind", "2form"], payload, monkeypatch) == 2
    assert "blade" in capsys.readouterr().err


def test_decompose_wrong_degree(monkeypatch, capsys):
    payload = json.dumps({"mode": "exact", "terms": [{"blade": "e123", "coeff": "1"}]})
    assert run(["decompose", "--kind", "2form"], payload, monkeypatch) == 2
    capsys.readouterr()


def test_decompose_malformed_json(monkeypatch, capsys):
    assert run(["decompose", "--kind", "3form"], "{not json", monkeypatch) == 2
    capsys.readouterr()


def _decompose_error(kind, payload, monkeypatch, capsys) -> str:
    """The one error line of a decompose run that must exit 2 and print nothing."""
    assert run(["decompose", "--kind", kind], payload, monkeypatch) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("kind", ["2form", "3form"])
def test_non_string_blade_exits_two_naming_it(monkeypatch, capsys, kind):
    payload = json.dumps({"mode": "exact", "terms": [{"blade": 12, "coeff": "1"}]})
    err = _decompose_error(kind, payload, monkeypatch, capsys)
    assert "blade" in err and "12" in err


@pytest.mark.parametrize("kind", ["2form", "3form", "endo"])
def test_json_nested_past_the_recursion_limit_exits_two(capsys, kind):
    assert cli.cmd_decompose(kind, io.StringIO("[" * 100_000)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "recursion" in captured.err


def test_huge_float_coefficient_exits_two(monkeypatch, capsys):
    # a JSON integer of 401 digits is no float
    payload = '{"mode": "float", "terms": [{"blade": "e12", "coeff": 1%s}]}' % ("0" * 400)
    _decompose_error("2form", payload, monkeypatch, capsys)


def test_exact_coefficient_with_an_exponent_exits_two_at_once(monkeypatch, capsys):
    # Fraction would expand 10^99999999; the exact string rule never lets it
    payload = json.dumps({"mode": "exact", "terms": [{"blade": "e12", "coeff": "1e99999999"}]})
    err = _decompose_error("2form", payload, monkeypatch, capsys)
    assert "integer or p/q" in err


def test_term_without_coeff_names_the_field(monkeypatch, capsys):
    payload = json.dumps({"mode": "exact", "terms": [{"blade": "e12"}]})
    err = _decompose_error("2form", payload, monkeypatch, capsys)
    assert "'terms'" in err and "'coeff'" in err


def test_rows_that_are_not_lists_name_the_field(monkeypatch, capsys):
    payload = json.dumps({"mode": "exact", "rows": [1, 2, 3, 4, 5, 6]})
    err = _decompose_error("endo", payload, monkeypatch, capsys)
    assert "'rows'" in err


def test_suite_step_whose_half_is_too_small_exits_two(capsys):
    from su3forms.sphere import require_suite_step

    with pytest.raises(ValueError) as library:
        require_suite_step(1.5e-7)
    argv = ["verify-s6", "--suite", "gray", "--samples", "1", "--h", "1.5e-7"]
    err = _assert_usage_error(argv, capsys)
    assert str(library.value) in err


def test_an_option_of_another_command_is_no_help_request(capsys):
    # argparse would read --h as an abbreviation of --help and exit 0
    _assert_usage_error(["verify-algebra", "--trials", "1", "--h", "1e-3"], capsys)


def test_failure_exits_one(monkeypatch, capsys):
    from su3forms.report import CheckResult, VerificationReport

    def fake(samples, h, seed):
        return VerificationReport(
            "gray", h, samples, seed, [CheckResult("broken", 1.0, None, False)]
        )

    monkeypatch.setattr("su3forms.suites.verify_gray", fake)
    assert cli.main(["verify-s6", "--suite", "gray", "--samples", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "entry, negated, code",
    [("1/10", "-1/10", 0), (0.1, -0.1, 2), (1.0, -1.0, 2), (True, "-1", 2), ("1/0", "0", 2)],
)
def test_exact_decompose_endo_takes_rationals_only(monkeypatch, capsys, entry, negated, code):
    # symmetric and J-anticommuting, so only the entries' type can fail
    rows = [["0"] * 6 for _ in range(6)]
    rows[0][2] = rows[2][0] = entry
    rows[1][3] = rows[3][1] = negated
    payload = json.dumps({"mode": "exact", "rows": rows})
    assert run(["decompose", "--kind", "endo"], payload, monkeypatch) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and "error" in captured.err
    else:
        assert json.loads(captured.out)["S"][0][2] == "1/10"


@pytest.mark.parametrize("entry", [0.1, True])
def test_exact_decompose_two_form_rejects_non_rational_entries(monkeypatch, capsys, entry):
    payload = json.dumps({"mode": "exact", "terms": [{"blade": "e12", "coeff": entry}]})
    assert run(["decompose", "--kind", "2form"], payload, monkeypatch) == 2
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["2form", "3form", "endo"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_decompose_rejects_non_finite_floats(monkeypatch, capsys, kind, value):
    if kind == "endo":
        # symmetric and J-anticommuting, so only the entries' values can fail
        rows = [[0.0] * 6 for _ in range(6)]
        rows[0][2] = rows[2][0] = value
        rows[1][3] = rows[3][1] = -value
        payload = {"mode": "float", "rows": rows}
    else:
        blade = "e12" if kind == "2form" else "e135"
        payload = {"mode": "float", "terms": [{"blade": blade, "coeff": value}]}
    assert run(["decompose", "--kind", kind], json.dumps(payload), monkeypatch) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err
