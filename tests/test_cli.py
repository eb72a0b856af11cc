import json
import os
import shlex
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


def test_verify_exact_metric_fails_unless_the_residual_is_zero(capsys):
    # 1/20000000000 is far below the default tolerance, but the metric is exact
    code, out = run_cli(capsys, "verify", "631:6",
                        "--metric", "1,1,1,1,-1,10000000001/10000000000", "--lambda", "0")
    assert code == 1
    assert out.splitlines()[-2:] == ["max |Ric - 0 id| = 1/20000000000", "verdict: FAIL"]


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


@pytest.mark.parametrize("argv, message", [
    (["einstein", "@/nonexistent/file"], "cannot read '/nonexistent/file'"),
    (["info", "@" + str(Path(nice_einstein.__file__).parent)], "cannot read"),
    (["einstein", "631:6", "--k", "1/0"], "bad --k '1/0'"),
    (["einstein", "631:6", "--k", "one"], "bad --k 'one'"),
    (["einstein", "741:6", "--param", "lambda=1/0"], "bad --param lambda '1/0'"),
    (["verify", "631:6", "--metric", "1,1,1,1,1,1", "--lambda", "1/0"], "bad --lambda '1/0'"),
    (["verify", "631:6", "--metric", "1,1/0,1,1,1,1"], "bad --metric entry '1/0'"),
    (["curvature", "62:4a", "--metric", "1,0;0,1/0"], "bad --metric entry '1/0'"),
])
def test_malformed_input_is_an_error_not_a_traceback(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_validate_reports_a_zero_denominator_as_invalid(capsys):
    code, out = run_cli(capsys, "validate", "(0,0,1/0 e^{12})")
    assert code == 1
    assert out.startswith("invalid: zero denominator")


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
    # 8531:60a at k = 1 has two float certificates with oracle residual about 8e-15
    code, out = run_cli(capsys, "einstein", "8531:60a", "--k", "1")
    assert code == 0 and "warning" not in out
    for env, flag in (("1e-30", []), ("1", ["--tol", "1e-30"])):
        monkeypatch.setenv("NICE_EINSTEIN_TOL", env)
        code, out = run_cli(capsys, "einstein", "8531:60a", "--k", "1", *flag)
        assert code == 3
        warnings = [line for line in out.splitlines() if "warning" in line]
        assert len(warnings) == 2
        assert all(w.startswith("  warning: numeric certificate for delta=")
                   and w.endswith(" above tolerance 1e-30") for w in warnings)


def test_verify_has_no_tolerance(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "631:6", "--metric", "1,1,1,1,-1,1", "--tol", "1e-3"])
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# The whole shipped catalog


def test_whole_catalog_matches_and_every_exact_certificate_passes_the_oracle():
    from nice_einstein.catalog import load_catalog, run_entry
    from nice_einstein.einstein import DEFAULT_TOL

    checks = [chk for entry in load_catalog() for chk in run_entry(entry, DEFAULT_TOL)]
    assert len(checks) == 143
    assert [f"{c.entry} {c.label}" for c in checks if not c.ok] == []
    results = {id(c.result): c.result for c in checks if c.result is not None}.values()
    certs = [cert for res in results for cert in res.certificates]
    exact = [cert for cert in certs if cert.exact]
    assert (len(certs), len(exact)) == (642, 574)
    assert all(cert.oracle_residual == 0 for cert in exact)


def _catalog_einstein_argvs():
    """`einstein --out json` argv of every catalog record, plus each parameter solve."""
    from nice_einstein.catalog import load_catalog

    out = []
    for entry in load_catalog():
        for mode, recs in entry.expected.items():
            for rec in recs:
                argv = ["einstein", entry.name, "--k", rec.get("k", "0"), "--out", "json"]
                if mode == "sigma":
                    argv += ["--mode", "sigma", "--sigma", rec["sigma"]]
                params = sorted(rec.get("param", {}).items())
                out.append(argv + [a for n, v in params for a in ("--param", f"{n}={v}")])
                if rec.get("solve_param"):
                    out.append(argv + [a for n, v in params if n != rec["solve_param"]
                                       for a in ("--param", f"{n}={v}")]
                               + ["--solve-param", rec["solve_param"]])
    return out


# sha256 over argv, exit code and stdout of each run whose certificates are
# all exact; float certificates print fitted metrics, so they are left out.
EXACT_CATALOG_SHA256 = "cb36d76fbb4d041af51c89aa0527ba989fa389d1365244ff3816d47b8fb6bdb2"


def test_exact_catalog_einstein_json_is_pinned(capsys):
    import hashlib

    argvs = _catalog_einstein_argvs()
    assert (len(argvs), sum("--solve-param" in a for a in argvs)) == (88, 8)
    digest = hashlib.sha256()
    kept = 0
    for argv in argvs:
        code, out = run_cli(capsys, *argv)
        body = out.split("\n", 1)[1] if out.startswith("solved ") else out
        recs = json.loads(body)
        recs = recs if isinstance(recs, list) else [recs]
        if all(c["exact"] for r in recs for c in r["certificates"]):
            kept += 1
            digest.update(f"{' '.join(argv)}\n[exit {code}]\n{out}".encode())
    assert kept == 82
    assert digest.hexdigest() == EXACT_CATALOG_SHA256


def _readme_cli_argvs():
    """argv of every `nice-einstein ...` line of README's command-line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("nice-einstein ")]


# sha256 over argv, exit code and stdout of every README example, in order.
README_CLI_SHA256 = "4e5e5667a6e9bb52d312ec2b99c96d564c112b091d2b2b388b1004ee61cc1a58"


def test_readme_command_line_examples_are_pinned(capsys):
    import hashlib

    argvs = _readme_cli_argvs()
    assert [a[0] for a in argvs].count("verify") == 2 and len(argvs) == 13
    digest = hashlib.sha256()
    for argv in argvs:
        code, out = run_cli(capsys, *argv)
        digest.update(f"{shlex.join(argv)}\n[exit {code}]\n{out}".encode())
    assert digest.hexdigest() == README_CLI_SHA256


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
