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


def test_info_reduces_the_root_matrix_once_mod_2(capsys, monkeypatch):
    from nice_einstein import linalg

    built = []
    init = linalg.F2Reduction.__init__

    def counted(self, M):
        built.append(M)
        init(self, M)

    monkeypatch.setattr(linalg.F2Reduction, "__init__", counted)
    code, out = run_cli(capsys, "info", "631:6")
    assert code == 0 and "rank over Q: 3   rank mod 2: 3\n" in out
    assert len(built) == 1


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


@pytest.mark.parametrize("argv, code, params", [
    (["93:86", "--k", "0", "--solve-param", "a"], 0, [{"a": "-1/8"}, {"a": "1/8"}]),
    (["741:6", "--mode", "sigma", "--sigma", "(23)(45)", "--solve-param", "lambda"], 0,
     [{"lambda": "1/2"}]),
    # no involution but the identity: no records
    (["(0,0,e^{12},e^{13})", "--mode", "sigma"], 2, []),
])
def test_einstein_json_and_csv_print_one_document(capsys, argv, code, params):
    got, out = run_cli(capsys, "einstein", *argv, "--out", "json")
    assert got == code
    recs = json.loads(out)
    recs = recs if isinstance(recs, list) else [recs]
    assert [r["params"] for r in recs] == params
    got, out = run_cli(capsys, "einstein", *argv, "--out", "csv")
    assert got == code
    lines = out.splitlines()
    assert lines[0] == "name,mode,k,outcome,half_S,sigma,p,q"
    assert all(line.count(",") == 7 for line in lines) and (len(lines) > 1) == bool(params)


def test_einstein_text_summaries(capsys):
    # the solved values and the missing involutions are told in text output only
    code, out = run_cli(capsys, "einstein", "93:86", "--k", "0", "--solve-param", "a")
    assert code == 0 and out.startswith("solved a: { -1/8, 1/8 }\n93:86  mode=diagonal")
    code, out = run_cli(capsys, "einstein", "93:86", "--k", "1", "--solve-param", "a")
    assert (code, out) == (2, "solved a: none\n")
    code, out = run_cli(capsys, "einstein", "(0,0,e^{12},e^{13})", "--mode", "sigma")
    assert (code, out) == (2, "no diagram involutions exist\n")


@pytest.mark.parametrize("argv", [
    ["einstein", "631:6", "--timings"],
    ["einstein", "93:86", "--solve-param", "a", "--timings"],
    ["einstein", "(0,0,e^{12},e^{13})", "--mode", "sigma", "--timings"],
    ["catalog", "run", "--filter", "62:4a", "--timings"],
])
def test_timings_go_to_stderr_on_every_path(capsys, argv):
    import re

    main(argv)
    err = capsys.readouterr().err
    assert re.fullmatch(r"\[\d+\.\d\ds\]\n", err), err


@pytest.mark.parametrize("argv, option", [
    (["catalog", "list", "--out", "json"], "--out json"),
    (["catalog", "list", "--timings"], "--timings"),
    # they print no name
    (["verify", "631:6", "--metric", "1,1,1,1,-1,1", "--name", "foo"], "--name foo"),
    (["curvature", "631:6", "--metric", "1,1,1,1,-1,1", "--name", "foo"], "--name foo"),
])
def test_options_that_change_nothing_are_usage_errors(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {option}\n")


@pytest.mark.parametrize("source", ["631:6", "(0,0,0,e^{12},e^{13},e^{25}+e^{34})", "@"])
def test_name_labels_every_input(capsys, tmp_path, source):
    if source == "@":
        path = tmp_path / "alg.txt"
        path.write_text("(0,0,0,e^{12},e^{13},e^{25}+e^{34})\n", encoding="utf-8")
        source = f"@{path}"
    code, out = run_cli(capsys, "validate", source, "--name", "foo")
    assert code == 0 and out.endswith("  [foo]\n")
    code, out = run_cli(capsys, "info", source, "--name", "foo")
    assert code == 0 and out.startswith("name: foo\n")
    code, out = run_cli(capsys, "einstein", source, "--name", "foo", "--out", "json")
    assert code == 0 and json.loads(out)["name"] == "foo"
    code, out = run_cli(capsys, "info", source)
    assert out.startswith("name: 631:6\n" if source == "631:6" else "name: (unnamed)\n")


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
    (["einstein", "631:6", "--param", "foo=1", "--out", "json"],
     "--param foo is not a parameter of the input; parameters: none"),
    (["validate", "631:6", "--param", "lambda=2"],
     "--param lambda is not a parameter of the input; parameters: none"),
    (["einstein", "852:30", "--param", "a1=1", "--param", "b=2", "--mode", "sigma",
      "--sigma", "(23)(45)(78)", "--solve-param", "a2"],
     "--param b is not a parameter of the input; parameters: a1, a2"),
    (["verify", "741:6", "--param", "lamda=1/2", "--metric", "1,1,1,1,1,1,1"],
     "--param lamda is not a parameter of the input; parameters: lambda"),
    # the last value would win, and lambda=1 alone is not even an algebra
    (["einstein", "741:6", "--param", "lambda=1", "--param", "lambda=1/2"],
     "--param lambda is given more than once"),
    # validate and catalog report on the same channel as every other command
    (["validate", "nosuch"], "'nosuch' is neither a structure string nor a catalog name"),
    (["validate", "@/nonexistent/file"], "cannot read '/nonexistent/file'"),
    (["validate", "(0,0,e^{12},e^{12})"], "not a nice diagram: (N1) arrows from 1 with label 2"),
    (["validate", "(0,0,1/0 e^{12})"], "zero denominator"),
    (["validate", "741:6"], "missing parameter value(s): ['lambda']"),
    (["validate", "741:6", "--param", "lambda"], "bad --param 'lambda', expected NAME=RATIONAL"),
    (["validate", "741:6", "--param", "lambda=x"], "bad --param lambda 'x'"),
    (["validate", "741:6", "--param", "mu=2"],
     "--param mu is not a parameter of the input; parameters: lambda"),
    (["validate", "741:6", "--param", "lambda=1", "--param", "lambda=2"],
     "--param lambda is given more than once"),
    (["catalog", "list", "--filter", "zz*"], "no catalog entries match 'zz*'"),
    (["catalog", "run", "--filter", "zz*"], "no catalog entries match 'zz*'"),
    # Fraction would expand 10**e first
    (["einstein", "631:6", "--k", "1e1001"],
     "bad --k '1e1001', expected a rational number with a decimal exponent of at most 1000"),
    (["validate", "741:6", "--param", "lambda=2.5E-99999999"],
     "bad --param lambda '2.5E-99999999', expected a rational number with a decimal exponent"),
    (["verify", "631:6", "--metric", "1,1,1,1,1,1e99999999"], "bad --metric entry '1e99999999'"),
])
def test_malformed_input_is_an_error_not_a_traceback(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_huge_decimal_exponent_exits_at_once():
    src = Path(nice_einstein.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "nice_einstein.cli", "einstein", "631:6", "--k", "1e99999999"],
        capture_output=True, text=True, timeout=20, env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: bad --k '1e99999999'") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("k, code", [("1e1000", 2), ("-25e-1000", 2), ("5e-1", 2), ("0e0", 0)])
def test_decimal_exponents_up_to_the_bound_are_read(capsys, k, code):
    assert main(["einstein", "631:6", f"--k={k}"]) == code
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("tol", ["nan", "abc", "-1", "inf", "-inf", ""])
def test_einstein_tol_must_be_a_finite_number_at_least_zero(capsys, tol):
    # nan would switch the numeric-certificate check off, and -1 flag every one
    code = main(["einstein", "8531:60a", "--k", "1", f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: bad --tol {tol!r}, expected a finite number >= 0\n"


@pytest.mark.parametrize("tol, code", [("1e-9", 0), ("0", 3), ("1e-30", 3)])
def test_einstein_tol_gates_the_float_certificates(capsys, tol, code):
    assert main(["einstein", "8531:60a", "--k", "1", "--tol", tol]) == code
    out = capsys.readouterr().out
    assert ("above tolerance" in out) == (code == 3)


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


def test_einstein_tolerance(capsys):
    # 8531:60a at k = 1 has two float certificates with oracle residual about 8e-15
    code, out = run_cli(capsys, "einstein", "8531:60a", "--k", "1")
    assert code == 0 and "warning" not in out
    code, out = run_cli(capsys, "einstein", "8531:60a", "--k", "1", "--tol", "1e-30")
    assert code == 3
    warnings = [line for line in out.splitlines() if "warning" in line]
    assert len(warnings) == 2
    assert all(w.startswith("  warning: numeric certificate for delta=")
               and w.endswith(" above tolerance 1e-30") for w in warnings)


def test_verify_has_no_tolerance(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "631:6", "--metric", "1,1,1,1,-1,1", "--tol", "1e-3"])
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_catalog_has_no_tolerance(capsys):
    # `catalog run` prints no result's warnings, so a tolerance changed nothing
    with pytest.raises(SystemExit):
        main(["catalog", "run", "--tol", "1e-3"])
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"


# Goldens whose classification fails exactly exit with 2; the rest with 0.
FAILS_EXACTLY = {"8654321_25_k0.json"}


@pytest.mark.parametrize("argv, golden", [
    (["631:6", "--k", "0"], "631_6_k0.json"),
    (["741:6", "--param", "lambda=1/2", "--mode", "sigma", "--sigma", "(23)(45)"],
     "741_6_sigma.json"),
    (["93:86", "--k", "0", "--solve-param", "a"], "93_86_solve_a.json"),
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
    # residuals and the solved parameter values (in each record's params).
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
# all exact, and of the other runs, whose float metrics are evaluated from
# the Smith form's exponents.
EXACT_CATALOG_SHA256 = "f076676d7d915b5a9dcd199c2da005170c720b7a028c95b69bb849833b2fe652"
FLOAT_CATALOG_SHA256 = "a1db5ca6c9e355182464dd4dee81c0502777953f66ded783d71e8aeb953117e3"


def test_exact_catalog_einstein_json_is_pinned(capsys):
    import hashlib

    argvs = _catalog_einstein_argvs()
    assert (len(argvs), sum("--solve-param" in a for a in argvs)) == (88, 8)
    exact, floats = hashlib.sha256(), hashlib.sha256()
    kept = 0
    for argv in argvs:
        code, out = run_cli(capsys, *argv)
        recs = json.loads(out)
        recs = recs if isinstance(recs, list) else [recs]
        is_exact = all(c["exact"] for r in recs for c in r["certificates"])
        kept += is_exact
        (exact if is_exact else floats).update(f"{' '.join(argv)}\n[exit {code}]\n{out}".encode())
    assert kept == 82
    assert exact.hexdigest() == EXACT_CATALOG_SHA256
    assert floats.hexdigest() == FLOAT_CATALOG_SHA256


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


def test_readme_library_example_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    res = names["res"]
    assert res.success and res.exact
    assert res.certificates[0].oracle_residual == 0
    assert names["alg"].n == 7


@pytest.mark.parametrize("argv", [
    ["einstein", "8542:15a", "--param", "a2=2", "--k", "0", "--out", "json"],
    ["catalog", "run", "--filter", "85*"],
])
def test_float_certificates_need_no_numpy(argv):
    # float metrics are read off the Smith form: a blocked numpy import is never tried
    src = Path(nice_einstein.__file__).resolve().parents[1]
    script = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              "from nice_einstein.cli import main\n"
              f"sys.exit(main({argv!r}))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stderr) == (0, "")


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
