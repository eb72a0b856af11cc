import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nice_einstein
from nice_einstein.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_catalog_name(capsys):
    code, out = run_cli(capsys, "validate", "631:6")
    assert code == 0
    assert "valid nice Lie algebra" in out


def test_validate_bad_structure(capsys):
    code, out = run_cli(capsys, "validate", "(0,0,e^{12},e^{12})")
    assert code == 1
    assert "invalid" in out


def test_validate_family_needs_params(capsys):
    code, out = run_cli(capsys, "validate", "741:6")
    assert code == 1
    code, out = run_cli(capsys, "validate", "741:6", "--param", "lambda=2")
    assert code == 0


def test_info_output(capsys):
    code, out = run_cli(capsys, "info", "631:6")
    assert code == 0
    assert "rank over Q: 3" in out
    assert "(23)(45)" in out
    assert "fundamental domain" in out


def test_einstein_exit_codes(capsys):
    code, _ = run_cli(capsys, "einstein", "631:6", "--k", "0")
    assert code == 0
    code, _ = run_cli(capsys, "einstein", "75421:4", "--k", "0")
    assert code == 2
    code, _ = run_cli(capsys, "einstein", "754321:9", "--param", "lambda=2", "--k", "0")
    assert code == 2  # exact failure verdict


def test_einstein_json_schema(capsys):
    import jsonschema
    from importlib import resources

    schema = json.loads(resources.files("nice_einstein")
                        .joinpath("docs/result-schema.json").read_text())

    code, out = run_cli(capsys, "einstein", "631:6", "--k", "0", "--out", "json")
    assert code == 0
    rec = json.loads(out)
    jsonschema.validate(rec, schema)
    assert rec["half_S"] == ["4", "5", "12", "13", "26", "36", "146", "156"]
    assert rec["exact"] is True

    code, out = run_cli(capsys, "einstein", "741:6", "--param", "lambda=1/2",
                        "--mode", "sigma", "--sigma", "(23)(45)", "--out", "json")
    assert code == 0
    rec = json.loads(out)
    jsonschema.validate(rec, schema)
    assert rec["signatures"]["4,3"] == ["1", "237", "457", "12345"]

    code, out = run_cli(capsys, "einstein", "754321:9", "--param", "lambda=2",
                        "--k", "0", "--out", "json")
    assert code == 2
    rec = json.loads(out)
    jsonschema.validate(rec, schema)
    assert rec["outcome"] == "fails" and rec["failed_at"] == "L"


def test_einstein_numeric_grade_exit_code(capsys, monkeypatch):
    # A P decision that is only numeric-grade gives exit 3, not 2.  The
    # exact decider settles every catalog orthant, so force that grade.
    from nice_einstein import einstein
    from nice_einstein.solver import PDecision

    monkeypatch.setattr(einstein, "decide_condition_p",
                        lambda *a, **kw: PDecision(False, False, note="forced"))
    code, out = run_cli(capsys, "einstein", "8654321:25", "--k", "0")
    assert code == 3
    assert "numeric-grade" in out


def test_einstein_exact_negative(capsys):
    # Every P orthant of 8654321:25 has Groebner basis {1}: an exact "fails".
    code, out = run_cli(capsys, "einstein", "8654321:25", "--k", "0", "--out", "json")
    assert code == 2
    rec = json.loads(out)
    assert rec["exact"] is True
    assert rec["failed_at"] == "P"
    assert rec["warnings"] == []


def test_einstein_output_deterministic(capsys):
    _, out1 = run_cli(capsys, "einstein", "741:6", "--param", "lambda=1/2",
                      "--mode", "sigma", "--sigma", "(23)(45)", "--out", "json")
    _, out2 = run_cli(capsys, "einstein", "741:6", "--param", "lambda=1/2",
                      "--mode", "sigma", "--sigma", "(23)(45)", "--out", "json")
    assert out1 == out2


def test_einstein_csv_columns(capsys):
    code, out = run_cli(capsys, "einstein", "741:6", "--param", "lambda=1/2",
                        "--mode", "sigma", "--sigma", "(23)(45)", "--out", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "name,mode,k,outcome,half_S,sigma,p,q"
    assert any(line.endswith("4,3") for line in lines[1:])
    assert any(line.endswith("3,4") for line in lines[1:])


def test_einstein_solve_param(capsys):
    code, out = run_cli(capsys, "einstein", "93:86", "--k", "0",
                        "--solve-param", "a")
    assert code == 0
    assert "-1/8" in out and "1/8" in out


def test_einstein_sigma_all_involutions(capsys):
    code, out = run_cli(capsys, "einstein", "731:15", "--k", "0", "--mode", "sigma")
    assert code == 2


def test_verify_certificate(capsys):
    code, out = run_cli(capsys, "verify", "631:6",
                        "--metric", "1,1,1,1,-1,1", "--lambda", "0")
    assert code == 0
    assert "PASS" in out


def test_verify_failure(capsys):
    code, out = run_cli(capsys, "verify", "631:6",
                        "--metric", "1,1,1,1,1,1", "--lambda", "0")
    assert code == 1
    assert "FAIL" in out


def test_verify_sigma_metric(capsys):
    # the delta=1 certificate of the sigma classification
    code, out = run_cli(capsys, "verify", "741:6", "--param", "lambda=1/2",
                        "--sigma", "(23)(45)",
                        "--metric=-1/4,1,1,1,1,2,1", "--lambda", "0")
    assert code == 0


def test_curvature_command(capsys):
    code, out = run_cli(capsys, "curvature", "75432:3",
                        "--metric", "1,1,1,1,-1,1,1")
    assert code == 0
    assert "g(R,R)   = 5/2" in out
    assert "g(R',R') = -3/8" in out
    assert "scalar curvature = 0" in out
    assert "ad-invariant: no" in out


ASYMMETRIC_MATRIX = "1,1,0,0,0,0;0,1,0,0,0,0;0,0,1,0,0,0;0,0,0,1,0,0;0,0,0,0,1,0;0,0,0,0,0,1"


@pytest.mark.parametrize("command", ["verify", "curvature"])
@pytest.mark.parametrize("argv, detail", [
    (["631:6", "--metric", ASYMMETRIC_MATRIX], "entry (1,2) is 1 but (2,1) is 0"),
    # g2 != g3: the vector is not sigma-invariant
    (["741:6", "--param", "lambda=1/2", "--sigma", "(23)(45)", "--metric=-1/4,1,3,1,1,2,1"],
     "entry (2,3) is 1 but (3,2) is 3"),
    # a 3-cycle is not an involution
    (["631:6", "--sigma", "(123)", "--metric", "1,1,1,1,1,1"], "entry (1,2) is 1 but (2,1) is 0"),
])
def test_metric_must_be_symmetric(capsys, command, argv, detail):
    code = main([command, *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: metric is not symmetric: {detail}\n"


@pytest.mark.parametrize("command", ["verify", "curvature"])
def test_degenerate_metric_is_an_input_error(capsys, command):
    # Reported like every other input error: on stderr, stdout empty, exit 1.
    code = main([command, "631:6", "--metric", "0,1,1,1,1,1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: metric is degenerate\n"


@pytest.mark.parametrize("argv, message", [
    (["93:86", "--k", "0", "--solve-param", "zz"],
     "--solve-param zz must name the one unresolved parameter; unresolved: a"),
    (["852:30", "--k", "0", "--mode", "sigma", "--sigma", "(23)(45)(78)", "--solve-param", "a2"],
     "--solve-param a2 must name the one unresolved parameter; unresolved: a1, a2"),
    (["93:86", "--k", "0", "--param", "a=1", "--solve-param", "zz"],
     "--solve-param zz must name the one unresolved parameter; unresolved: none"),
    (["93:86", "--k", "0", "--solve-param", "a", "--mode", "sigma"],
     "--mode sigma with --solve-param needs --sigma"),
    (["631:6", "--k", "0", "--sigma", "(23)(45)"], "--sigma needs --mode sigma"),
    (["93:86", "--k", "0", "--solve-param", "a", "--sigma", "(12)"], "--sigma needs --mode sigma"),
])
def test_einstein_rejects_inconsistent_options(capsys, argv, message):
    code = main(["einstein", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_catalog_list(capsys):
    code, out = run_cli(capsys, "catalog", "list", "--filter", "63*")
    assert code == 0
    assert "631:6" in out


def test_catalog_run_subset(capsys):
    code, out = run_cli(capsys, "catalog", "run", "--filter", "62:4a")
    assert code == 0
    assert "checks match" in out


def test_catalog_run_dim7_zero_diffs(capsys):
    code, out = run_cli(capsys, "catalog", "run", "--filter", "7*")
    assert code == 0
    assert "DIFF" not in out


def test_catalog_run_subset_csv_deterministic(capsys):
    _, out1 = run_cli(capsys, "catalog", "run", "--filter", "631:6", "--out", "csv")
    _, out2 = run_cli(capsys, "catalog", "run", "--filter", "631:6", "--out", "csv")
    assert out1 == out2
    assert out1.splitlines()[0] == "name,mode,k,outcome,half_S,sigma,p,q"


def test_tolerance_env_override(capsys, monkeypatch):
    monkeypatch.setenv("NICE_EINSTEIN_TOL", "1e-3")
    code, out = run_cli(capsys, "verify", "631:6",
                        "--metric", "1,1,1,1,-1,1", "--lambda", "0")
    assert code == 0
    assert "tolerance 0.001" in out


GOLDEN = Path(__file__).parent / "golden"


# Goldens whose classification fails exactly exit with 2; the rest with 0.
FAILS_EXACTLY = {"8654321_25_k0.json"}


@pytest.mark.parametrize("argv, golden", [
    (["631:6", "--k", "0"], "631_6_k0.json"),
    (["741:6", "--param", "lambda=1/2", "--mode", "sigma", "--sigma", "(23)(45)"],
     "741_6_sigma.json"),
    (["93:86", "--k", "0", "--solve-param", "a"], "93_86_solve_a.txt"),
    # Vacuous certificates print the orthant enumeration's witness point.
    (["10:1", "--mode", "sigma", "--sigma", "(13)(27)(45)(68)(90)", "--k", "0"],
     "10_1_sigma.json"),
    # 32 certificates recovered from one classification's facts.
    (["841:48", "--param", "a2=2", "--k", "0"], "841_48_a2_2_k0.json"),
    # The nonlinear P path: metrics from a rational point of a Groebner
    # basis, and an exact failure at P with basis {1}.
    (["842:121a", "--k", "1"], "842_121a_k1.json"),
    (["8654321:25", "--k", "0"], "8654321_25_k0.json"),
])
def test_einstein_json_pinned(capsys, argv, golden):
    # The whole stdout, byte for byte: verdicts, certificates, float
    # residuals and the solved parameter values.
    code, out = run_cli(capsys, "einstein", *argv, "--out", "json")
    assert code == (2 if golden in FAILS_EXACTLY else 0)
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["631:6", "--k", "0"],
    ["741:6", "--param", "lambda=1/2", "--mode", "sigma", "--sigma", "(23)(45)"],
])
def test_linear_records_leave_sympy_unimported(argv):
    # Only the nonlinear P layer needs sympy; metric recovery does not.
    src = Path(nice_einstein.__file__).resolve().parents[1]
    script = ("import sys\n"
              "from nice_einstein.cli import main\n"
              f"assert main(['einstein', *{argv!r}]) == 0\n"
              "print('sympy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.splitlines()[-1] == "False"
