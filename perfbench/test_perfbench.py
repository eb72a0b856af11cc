"""Tests of the benchmark's inputs, checks and span arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import nice_einstein.catalog as catalog  # noqa: E402
import nice_einstein.einstein as einstein  # noqa: E402
from nice_einstein.algebra import parse_family  # noqa: E402
from nice_einstein.curvature import LieBrackets, ricci_tensor, scalar_curvature  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from speed import REF_S, SpeedProbe  # noqa: E402

ENTRIES = catalog.load_catalog()
RECORDS = inputs.catalog_records(ENTRIES, True) + inputs.catalog_records(ENTRIES, False)


def _params(rec):
    return {k: Fraction(v) for k, v in rec.raw.get("param", {}).items()}


def test_workloads_split_the_catalog():
    nonlinear = inputs.catalog_records(ENTRIES, True)
    certify = inputs.catalog_records(ENTRIES, False)
    assert len(nonlinear) == 12 and len(certify) == 68
    assert {r.entry for r in nonlinear} == set(inputs.NONLINEAR_ENTRIES)
    assert sum(bool(r.raw.get("solve_param")) for r in certify) == 8


def test_seed_zero_is_the_shipped_catalog():
    for p in range(3):
        assert [r.structure for r in inputs.rescaled_records(RECORDS, 0, p)] == \
            [r.structure for r in RECORDS]
    for e in ENTRIES:
        n = parse_family(e.structure).n
        assert inputs.rescale_structure(e.structure, [Fraction(1)] * n) == e.structure


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rescaled_strings_parse_to_the_rescaled_constants(seed):
    """Every rescaled string parses, passes Jacobi, and carries c s_i s_j / s_k."""
    for rec in RECORDS:
        if rec.raw.get("solve_param"):
            continue
        fam = parse_family(rec.structure)
        n = fam.n
        sigma = inputs.parse_cycles(rec.raw["sigma"], n) if rec.raw.get("sigma") else None
        rng = inputs.random.Random(f"catalog/{seed}/0/{rec.key}")
        s = inputs.draw_scales(rng, n, sigma)
        if sigma is not None:
            assert all(s[i] == s[sigma[i] - 1] for i in range(n))
        text = inputs.rescale_structure(rec.structure, s)
        assert text == inputs.rescaled_records([rec], seed, 0)[0].structure
        alg = parse_family(text).substitute(_params(rec))  # raises on a Jacobi failure
        want = fam.substitute(_params(rec)).brackets()
        for (i, j), (k, c) in alg.brackets().items():
            assert want[(i, j)][0] == k
            assert c == want[(i, j)][1] * s[i - 1] * s[j - 1] / s[k - 1]


def test_rescaling_distributes_over_parameters():
    text = "(0,0,0,(lambda-1) e^{12},lambda e^{13},e^{23},e^{16}+e^{25}+e^{34})"
    s = [Fraction(2), Fraction(1, 3), Fraction(1), Fraction(1), Fraction(1),
         Fraction(1), Fraction(1)]
    out = inputs.rescale_structure(text, s)
    assert out == ("(0,0,0,(2/3lambda-2/3) e^{12},(2lambda) e^{13},1/3 e^{23},"
                   "2 e^{16}+1/3 e^{25}+e^{34})")
    fam = parse_family(out)
    assert fam.substitute({"lambda": 2}).brackets()[(1, 2)] == (4, Fraction(2, 3))


@pytest.mark.parametrize("seed", [1, 2])
def test_rescaled_catalog_keeps_every_expectation(seed):
    errors = []
    tally = inputs.Tally()
    for rec in inputs.rescaled_records(RECORDS, seed, 1):
        entry = catalog.CatalogEntry(rec.entry, rec.structure, rec.params,
                                     {rec.mode: [rec.raw]})
        tally.add(inputs.check_catalog_item(
            catalog.run_entry(entry, einstein.DEFAULT_TOL), errors))
    assert errors == [] and tally.failed == 0
    assert (tally.results, tally.certs) == (80, 642)


def _outcome(residual, exact=True, ok=True):
    cert = SimpleNamespace(exact=exact, oracle_residual=residual)
    res = SimpleNamespace(exact=exact, certificates=(cert,))
    return SimpleNamespace(entry="e", label="l", ok=ok, got="g", want="w", result=res)


def test_oracle_items_cover_every_algebra_and_kind():
    specs = inputs.oracle_specs(ENTRIES)
    assert len(specs) == 3 * len(ENTRIES) + sum(bool(e.expected.get("sigma")) for e in ENTRIES)
    algebras = [(s, catalog.find_entry(s.entry).algebra(
        {k: Fraction(v) for k, v in s.params.items()})) for s in specs]
    items = inputs.oracle_items(algebras, 3, 1)
    assert [i.gram for i in items] == [i.gram for i in inputs.oracle_items(algebras, 3, 1)]
    assert [i.gram for i in items] != [i.gram for i in inputs.oracle_items(algebras, 3, 2)]
    for item in items:
        G, n = item.gram, item.algebra.n
        assert all(G[i][j] == G[j][i] for i in range(n) for j in range(n))
        if item.spec.kind == "gram":
            assert sum(G[i][j] != 0 for i in range(n) for j in range(n)) > n
        if item.spec.kind == "sigma":
            assert all(item.g[i] == item.g[item.spec.sigma[i] - 1] for i in range(n))


@pytest.mark.parametrize("kind", inputs.ORACLE_KINDS)
def test_oracle_checks_pass_on_the_library_and_fail_on_a_wrong_operator(kind):
    spec = next(s for s in inputs.oracle_specs(ENTRIES) if s.entry == "631:6" and s.kind == kind)
    alg = catalog.find_entry("631:6").algebra()
    item = inputs.oracle_items([(spec, alg)], 5, 0)[0]
    B = LieBrackets.from_nice(alg)
    ric, op = ricci_tensor(B, item.gram)
    want = (einstein.ricci_sigma(alg, spec.sigma, item.g) if kind == "sigma"
            else einstein.ricci_diagonal(alg, item.g) if item.g else None)
    errors = []
    t = inputs.check_oracle_item(item, B.c, ric, op, want, einstein.DEFAULT_TOL, errors)
    assert (t.checks, t.failed, t.exact_results) == (1, 0, int(kind != "float")), errors
    bad = [list(row) for row in op]
    bad[0][0] += Fraction(1, 10**3)
    assert inputs.check_oracle_item(item, B.c, ric, bad, want, einstein.DEFAULT_TOL,
                                    errors).failed == 1


def test_nilpotent_scalar_is_the_scalar_curvature():
    alg = catalog.find_entry("731:15").algebra()
    B = LieBrackets.from_nice(alg)
    spec = inputs.OracleAlgebra("731:15", "gram", {}, None)
    G = inputs.oracle_items([(spec, alg)], 7, 0)[0].gram
    assert inputs.nilpotent_scalar(B.c, G) == scalar_curvature(B, G)
    assert inputs.invert(inputs.invert(G)) == [list(r) for r in G]


def test_catalog_check_requires_zero_residual_on_exact_certificates():
    errors = []
    assert inputs.check_catalog_item([_outcome(Fraction(0))], errors).failed == 0
    assert inputs.check_catalog_item([_outcome(1e-12, exact=False)], errors).failed == 0
    t = inputs.check_catalog_item([_outcome(Fraction(1, 10**9))], errors)
    assert (t.checks, t.failed) == (2, 1) and len(errors) == 1
    assert inputs.check_catalog_item([_outcome(Fraction(0), ok=False)], errors).failed == 1


def test_self_times_on_a_synthetic_nested_trace():
    ticks = iter([0, 1, 2, 3, 4, 5, 6, 7, 9, 10])
    tr = Tracer(clock=lambda: next(ticks))
    root = tr.begin("root")            # 0 .. 10
    a = tr.begin("a")                  # 1 .. 6
    for _ in range(2):
        with tr.span("b"):             # 2 .. 3 and 4 .. 5
            pass
    tr.end(a)
    with tr.span("c"):                 # 7 .. 9
        pass
    tr.end(root)
    assert self_times(tr.spans) == {"root": (1, 3), "a": (1, 3), "b": (2, 2), "c": (1, 2)}
    # Self times add up to the root's wall time.
    assert sum(s for _, s in self_times(tr.spans).values()) == 10


def test_recursive_layer_gets_self_time_once():
    ticks = iter([0, 2, 3, 5, 6, 8])
    tr = Tracer(clock=lambda: next(ticks))
    outer = tr.begin("einstein.parameter_solve")   # 0 .. 8
    inner = tr.begin("einstein.classify")          # 2 .. 6
    with tr.span("einstein.parameter_solve"):      # 3 .. 5
        pass
    tr.end(inner)
    tr.end(outer)
    st = self_times(tr.spans)
    assert st["einstein.parameter_solve"] == (2, 4 + 2)
    assert st["einstein.classify"] == (1, 2)


def test_instrumented_patches_every_lookup_site_and_restores():
    import nice_einstein.curvature as curvature
    import nice_einstein.solver as solver

    originals = (einstein.decide_condition_p, catalog.parameter_solve,
                 curvature.ricci_tensor, einstein.ricci_tensor)
    tr = Tracer()
    with tr.instrumented():
        assert tr.missing == []
        assert einstein.decide_condition_p is solver.decide_condition_p
        assert einstein.decide_condition_p is not originals[0]
        assert catalog.parameter_solve is einstein.parameter_solve is not originals[1]
        entry = catalog.find_entry("631:6")
        assert all(c.ok for c in catalog.run_entry(entry, einstein.DEFAULT_TOL))
    assert (einstein.decide_condition_p, catalog.parameter_solve,
            curvature.ricci_tensor, einstein.ricci_tensor) == originals
    assert isinstance(LieBrackets.__dict__["from_nice"], classmethod)
    st = self_times(tr.spans)
    assert st["einstein.classify"][0] == 3
    assert st["curvature.from_nice"][0] == st["curvature.ricci_tensor"][0] == 16
    assert tr.counts["einstein.recover_metric.exact"] == 16


def test_tail_percentile_leaves_ten_samples_beyond():
    import statistics

    def beyond(n, q):
        value = statistics.quantiles(range(n), n=100, method="inclusive")[q - 1]
        return sum(1 for x in range(n) if x > value)

    for n in (24, 136, 314, 942):
        q = run.tail_percentile(n)
        assert beyond(n, q) >= 10 and (q == 99 or beyond(n, q + 1) < 10)


def test_speed_scale_is_the_mean_speed_of_the_samples_inside():
    probe = SpeedProbe()
    probe.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    probe.times = [REF_S, REF_S, 2 * REF_S, 2 * REF_S, REF_S, REF_S]
    assert probe.scale(0.0, 5.0) == pytest.approx(5 / 6)
    # Two samples inside: widened by the nearer neighbour, the earlier on a tie.
    assert probe.scale(1.5, 3.5) == pytest.approx((1 + 0.5 + 0.5) / 3)
    # None inside: the three nearest.
    assert probe.scale(5.5, 6.0) == pytest.approx((0.5 + 1 + 1) / 3)


def test_speed_probe_samples_and_restores_the_alarm():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    with probe.running(interval=0.01):
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
    assert len(probe.times) >= 5 and probe.busy_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.starts == sorted(probe.starts)


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-nonlinear", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
