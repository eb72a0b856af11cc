from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from nice_einstein import (
    SigmaMetric,
    diagonal_einstein,
    format_delta,
    halved_signatures,
    logsign,
    parameter_solve,
    parse,
    parse_permutation,
    recover_metric,
    ricci_diagonal,
    ricci_sigma,
    root_matrix,
    sigma_einstein,
    sigma_signature,
    sufficient_condition,
    to_string,
)
from nice_einstein.catalog import load_catalog, run_entry
from nice_einstein.einstein import DEFAULT_TOL, delta_sort_key
from nice_einstein.linalg import _int_scale, kernel_basis
from nice_einstein.solver import abs_monomial


def parse_delta(text: str, n: int):
    """Inverse of format_delta: digit list with 0 for node 10."""
    out = [0] * n
    if text in ("", "∅"):
        return tuple(out)
    for ch in text:
        out[(10 if ch == "0" else int(ch)) - 1] = 1
    return tuple(out)


def deltas(strings, n):
    return [parse_delta(s, n) for s in strings]


def condition_P_holds(X, c, alphas):
    """|X|^a = |c|^(2a) for each integer exponent row a, exactly."""
    return all(abs_monomial(X, a) == abs_monomial(c, a) ** 2 for a in alphas)


# ---------------------------------------------------------------------------
# Ricci by the weight formula


def test_ricci_diagonal_heisenberg(algebras):
    assert ricci_diagonal(algebras["heisenberg"], [F(1)] * 3) == (F(-1, 2), F(-1, 2), F(1, 2))


def test_ricci_diagonal_abelian():
    assert ricci_diagonal(parse("(0,0,0)"), [F(1), F(-2), F(3)]) == (0, 0, 0)


def test_ricci_diagonal_631_6_family(algebras):
    a = algebras["631:6"]
    for g1, g2, g3 in [(F(1), F(1), F(1)), (F(2), F(-3), F(1, 2))]:
        g = [g1, g2, g3, g1 * g2, -g1 * g3, g1 * g2 * g3]
        assert ricci_diagonal(a, g) == (0,) * 6


def test_ricci_sigma_matches_certificate(families):
    a = families["741:6"].substitute({"lambda": F(1, 2)})
    sigma = parse_permutation("(23)(45)", 7)
    r = sigma_einstein(a, sigma, 0)
    assert r.success
    for cert in r.certificates[:2]:
        assert ricci_sigma(a, sigma, cert.metric.g) == (0,) * 7


def test_ricci_sigma_abelian():
    a = parse("(0,0)")
    assert ricci_sigma(a, (2, 1), [F(3), F(3)]) == (0, 0)


def test_ricci_sigma_requires_invariance(families):
    a = families["741:6"].substitute({"lambda": 2})
    sigma = parse_permutation("(23)(45)", 7)
    with pytest.raises(ValueError):
        ricci_sigma(a, sigma, [F(1), F(2), F(3), F(1), F(1), F(1), F(1)])


# ---------------------------------------------------------------------------
# The decision pipeline


def test_631_6_full_classification(algebras):
    r = diagonal_einstein(algebras["631:6"], 0)
    assert r.success and r.exact
    assert [format_delta(d) for d in r.signatures.half_S] == [
        "4", "5", "12", "13", "26", "36", "146", "156"]
    assert len(r.signatures.S) == 16
    assert all(c.oracle_residual == 0 for c in r.certificates)


def test_631_6_recovered_family(algebras):
    r = diagonal_einstein(algebras["631:6"], 0)
    cert = next(c for c in r.certificates if format_delta(c.delta) == "5")
    g = cert.metric.g
    assert g[3] == g[0] * g[1] and g[4] == -g[0] * g[2] and g[5] == g[0] * g[1] * g[2]
    # the gauge directions preserve those relations
    for w in cert.freedom.exponents:
        scaled = tuple(gi * F(3) ** e for gi, e in zip(g, w))
        assert scaled[3] == scaled[0] * scaled[1]
        assert scaled[4] == -scaled[0] * scaled[2]
        assert scaled[5] == scaled[0] * scaled[1] * scaled[2]
        assert ricci_diagonal(algebras["631:6"], scaled) == (0,) * 6


def test_754321_9_fails_L(families):
    r = diagonal_einstein(families["754321:9"].substitute({"lambda": 2}), 0)
    assert not r.success and r.failed_at == "L" and r.exact


def test_75421_4_fails_P(algebras):
    r = diagonal_einstein(algebras["75421:4"], 0)
    assert not r.success and r.failed_at == "P" and r.exact


def test_842_117_einstein_nonzero(algebras):
    r = diagonal_einstein(algebras["842:117"], 1)
    assert r.success and r.exact
    assert all(c.oracle_residual == 0 for c in r.certificates)


def test_abelian_k0_all_signatures():
    r = diagonal_einstein(parse("(0,0,0)"), 0)
    assert r.success and (r.detail, r.exact) == ("", True)
    assert len(r.signatures.S) == 8
    assert [format_delta(d) for d in r.signatures.half_S] == ["∅", "1", "2", "3"]
    assert all(c.X == () and c.exact and c.oracle_residual == 0 for c in r.certificates)
    assert [c.metric.g for c in r.certificates[:3]] == [(1, 1, 1), (-1, 1, 1), (1, -1, 1)]


def test_abelian_k_nonzero_fails():
    r = diagonal_einstein(parse("(0,0)"), 1)
    assert not r.success and r.failed_at == "K"
    assert r.detail == "the weight system tM X = [k] has no solution"


def test_certificates_come_in_delta_sort_key_order():
    results = [c.result for e in load_catalog() for c in run_entry(e, DEFAULT_TOL)
               if c.result is not None and c.result.success]
    results += [diagonal_einstein(parse("(0,0,0)"), 0),
                sigma_einstein(parse("(0,0)"), (2, 1), 0)]
    assert len({id(r) for r in results}) == 47   # 45 catalog records with metrics
    for r in results:
        keys = [delta_sort_key(c.delta) for c in r.certificates]
        assert keys == sorted(keys), r.algebra


def test_sigma_731_15_trivial_invariant_space(algebras):
    sigma = parse_permutation("(23)(56)", 7)
    r = sigma_einstein(algebras["731:15"], sigma, 0)
    assert not r.success and r.failed_at == "H"
    assert "sigma-invariant" in r.detail


def test_sigma_741_6_theorem_rows(families):
    a = families["741:6"].substitute({"lambda": F(1, 2)})
    sigma = parse_permutation("(23)(45)", 7)
    r = sigma_einstein(a, sigma, 0)
    assert r.success and r.exact
    sets = r.signatures.signature_sets()
    assert sets[(4, 3)] == ["1", "237", "457", "12345"]
    assert sets[(3, 4)] == ["67", "1236", "1456", "234567"]


def test_sigma_abelian_freedom_is_sigma_invariant():
    # abelian metrics take the Smith-form recovery of every other algebra, so
    # the free directions are the sigma-invariant kernel, not all unit vectors
    r = sigma_einstein(parse("(0,0,0,0)"), (2, 1, 4, 3), 0)
    assert r.success and len(r.certificates) == 4
    assert {c.freedom.exponents for c in r.certificates} == {((1, 1, 0, 0), (0, 0, 1, 1))}
    # sigma = identity pairs no nodes: every unit vector stays free
    r = sigma_einstein(parse("(0,0,0,0)"), (1, 2, 3, 4), 0)
    assert {c.freedom.exponents for c in r.certificates} == {
        tuple(tuple(int(i == j) for j in range(4)) for i in range(4))}


def test_sigma_abelian_trivially_flat():
    a = parse("(0,0)")
    r = sigma_einstein(a, (2, 1), 0)
    assert r.success
    assert r.signatures.signature_sets() == {(1, 1): ["∅", "12"]}


# ---------------------------------------------------------------------------
# Individual condition operations


def test_condition_P_741_6_exact_relation(families):
    lam = F(1, 2)
    a = families["741:6"].substitute({"lambda": lam})
    M, _ = root_matrix(a.diagram)
    alphas = [_int_scale(v) for v in kernel_basis(M.transpose())]
    # solution family x6 = (lambda - 1) x5, oracle-verified; the variant
    # relation x6 = (1/lambda - 1) x5 is inconsistent with the Ricci formula
    x5 = F(2)
    x6 = (lam - 1) * x5
    X = (x6, -x5 - x6, x5, x5, -x5 - x6, x6)
    assert condition_P_holds(X, a.c, alphas)
    Xbad = (x5, -2 * x5, x5, x5, -2 * x5, x5)
    assert not condition_P_holds(Xbad, a.c, alphas)


def test_condition_P_93_86(families):
    a = families["93:86"].substitute({"a": F(1, 8)})
    M, _ = root_matrix(a.diagram)
    alphas = [_int_scale(v) for v in kernel_basis(M.transpose())]
    assert len(alphas) == 1
    X = tuple(2 * x for x in alphas[0])
    assert condition_P_holds(X, a.c, alphas)


def test_recover_metric_75432_3_normalized_family(algebras):
    a = algebras["75432:3"]
    for y in (F(3), F(-2), F(1, 4)):
        X = (F(1), y, F(-1), -y, -y, y, F(-1), F(1))
        delta = logsign([F(1), F(1), F(1), y, -y, y * y, y])
        metric, freedom = recover_metric(a, X, delta)
        # gauge-normalize g1 = 1 along the one-dimensional kernel direction
        (w,) = freedom.exponents
        assert w[0] != 0
        t = (F(1) / metric.g[0]) ** F(1, w[0])
        g = tuple(gi * t ** e for gi, e in zip(metric.g, w))
        assert g == (F(1), F(1), F(1), y, -y, y * y, y)


def test_recover_metric_sigma_invariant(families):
    a = families["741:6"].substitute({"lambda": F(1, 2)})
    sigma = parse_permutation("(23)(45)", 7)
    r = sigma_einstein(a, sigma, 0)
    for cert in r.certificates:
        g = cert.metric.g
        for i in range(7):
            assert g[i] == g[sigma[i] - 1]


def test_recover_metric_rejects_bad_signs(algebras):
    a = algebras["631:6"]
    X = (F(1), F(-1), F(-1), F(1))
    with pytest.raises(ValueError):
        recover_metric(a, X, parse_delta("1", 6))


def test_recover_metric_abelian():
    a = parse("(0,0,0)")
    metric, freedom = recover_metric(a, (), parse_delta("2", 3))
    assert metric.g == (F(1), F(-1), F(1))
    assert len(freedom.exponents) == 3


def test_sigma_identity_reproduces_every_diagonal_catalog_record():
    # A diagonal metric is sigma-diagonal for sigma = id; each classification
    # here builds its systems and recovery afresh (None and id are two keys).
    runs = [(entry.algebra({n: F(v) for n, v in rec.get("param", {}).items()}),
             F(rec.get("k", "0")))
            for entry in load_catalog() for rec in entry.expected.get("diagonal", [])]
    assert len(runs) == 55
    for a, k in runs:
        d = diagonal_einstein(a, k)
        s = sigma_einstein(a, tuple(range(1, a.n + 1)), k)
        assert (s.mode, d.mode) == ("sigma", "diagonal")
        assert ((s.success, s.failed_at, s.exact, s.signatures, s.warnings)
                == (d.success, d.failed_at, d.exact, d.signatures, d.warnings)), a.name
        assert ([(c.X, c.delta, c.metric.g, c.oracle_residual, c.freedom, c.exact)
                 for c in s.certificates]
                == [(c.X, c.delta, c.metric.g, c.oracle_residual, c.freedom, c.exact)
                    for c in d.certificates]), a.name


def test_halved_signatures_631_6(algebras):
    r = diagonal_einstein(algebras["631:6"], 0)
    assert halved_signatures(r.signatures.S) == list(r.signatures.half_S)


def test_halved_signatures_trivial_pair():
    assert halved_signatures([(0, 0), (1, 1)]) == [(0, 0)]


def test_halved_signatures_rejects_open_set():
    with pytest.raises(ValueError):
        halved_signatures([(0, 1)])


def test_halved_signatures_node_ten_order(algebras):
    r = diagonal_einstein(algebras["dim10"], 0)
    half = [format_delta(d) for d in r.signatures.half_S]
    assert half.index("169") < half.index("160")  # (1,6,9) before (1,6,10)


def test_sigma_signature_741_6():
    sigma = parse_permutation("(23)(45)", 7)
    m = SigmaMetric(sigma, (F(-1), F(1), F(1), F(1), F(1), F(1), F(1)),
                    parse_delta("1", 7))
    assert sigma_signature(m) == (4, 3)


def test_sigma_signature_all_positive_pairs():
    sigma = parse_permutation("(12)(34)", 4)
    m = SigmaMetric(sigma, (F(1),) * 4, (0,) * 4)
    assert sigma_signature(m) == (2, 2)


def test_sigma_signature_852_30():
    sigma = parse_permutation("(23)(45)(78)", 8)
    g = tuple(F(-1) if b else F(1) for b in parse_delta("2345", 8))
    m = SigmaMetric(sigma, g, parse_delta("2345", 8))
    assert sigma_signature(m) == (5, 3)


def test_sufficient_condition(algebras):
    assert sufficient_condition(algebras["842:117"], 1)
    assert not sufficient_condition(algebras["75432:3"], 1)   # (K) unsolvable
    with pytest.raises(ValueError):
        sufficient_condition(algebras["842:117"], 0)


def test_parameter_solve_93_86(families):
    solved = parameter_solve(families["93:86"], k=0)
    assert [u for u, _ in solved] == [F(-1, 8), F(1, 8)]
    # each value comes with the classification that confirmed it
    assert all(res.success and res.exact for _, res in solved)


def test_parameter_solve_741_6_sigma(families):
    fam = families["741:6"]
    for cycles, value in (("(23)(45)", F(1, 2)), ("(12)(56)", F(-1)), ("(13)(46)", F(2))):
        sigma = parse_permutation(cycles, 7)
        assert [u for u, _ in parameter_solve(fam, sigma=sigma, k=0)] == [value]


def test_parameter_solve_852_30(families):
    part = families["852:30"].partial({"a1": 1})
    sigma = parse_permutation("(23)(45)(78)", 8)
    assert [u for u, _ in parameter_solve(part, sigma=sigma, k=0)] == [F(2)]


def test_parameter_solve_852_30_other_involutions(families):
    fam = families["852:30"]
    # constraint a2 = 2 a1^2 at a1 = 1
    sigma = parse_permutation("(12)(56)(78)", 8)
    assert [u for u, _ in parameter_solve(fam.partial({"a1": 1}), sigma=sigma, k=0)] == [F(2)]
    # constraint a1 = -2 a2^2 at a2 = 1
    sigma = parse_permutation("(13)(46)(78)", 8)
    assert [u for u, _ in parameter_solve(fam.partial({"a2": 1}), sigma=sigma, k=0)] == [F(-2)]


def test_parameter_solve_skips_only_unparseable_probes(families, monkeypatch):
    from nice_einstein.algebra import AlgebraFamily, ParseError

    def raising(error):
        def substitute(self, values):
            raise error
        return substitute
    # a probe where a coefficient vanishes drops its region
    monkeypatch.setattr(AlgebraFamily, "substitute", raising(ParseError("vanishes")))
    assert parameter_solve(families["93:86"], k=0) == []
    # any other failure is a bug, and surfaces
    monkeypatch.setattr(AlgebraFamily, "substitute", raising(TypeError("a bug")))
    with pytest.raises(TypeError, match="a bug"):
        parameter_solve(families["93:86"], k=0)


def test_parameter_solve_requires_single_parameter(families):
    with pytest.raises(ValueError):
        parameter_solve(families["852:30"], k=0)


def test_binomial_pattern_rare_branches():
    from nice_einstein.einstein import _binomial_pattern
    from nice_einstein.linalg import AffineSet
    from nice_einstein.solver import classify_functionals

    # X = (1 + t, 2 + 2t, 3): X_1 and X_2 share a class, X_3 is constant.
    # |X_1 X_2 / X_3| = R is 2 X_1^2 / 3 = R, one live class of exponent 2.
    fc = classify_functionals(AffineSet((F(1), F(2), F(3)), ((F(1), F(2), F(0)),)))
    row = [F(1), F(0), F(0)]
    assert _binomial_pattern(fc, (1, 1, -1), F(6)) == ("slices", [(row, F(3)), (row, F(-3))])
    assert _binomial_pattern(fc, (1, 1, -1), F(4)) is None      # X_1^2 = 6
    # X = (1 + t0, t1, 3): |X_1|^2 / |X_2| = R has live exponents 2 and -1,
    # which do not cancel, so it is not binomial.
    fc = classify_functionals(AffineSet(
        (F(1), F(0), F(3)), ((F(1), F(0), F(0)), (F(0), F(1), F(0)))))
    assert _binomial_pattern(fc, (2, -1, 0), F(1)) is None


def test_negation_flips_k(algebras):
    a = algebras["842:117"]
    r = diagonal_einstein(a, 1)
    cert = r.certificates[0]
    neg = tuple(-x for x in cert.metric.g)
    assert ricci_diagonal(a, neg) == tuple(-x for x in ricci_diagonal(a, cert.metric.g))


# ---------------------------------------------------------------------------
# Per-classification facts: each matrix is reduced once


def _counting(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def _rescaled(a, s):
    """a in the basis e'_i = s_i e_i, parsed again from its structure string."""
    import dataclasses

    c = tuple(cv * F(s[i - 1]) * s[j - 1] / s[k - 1]
              for (i, j, k), cv in zip(a.indices(), a.c))
    assert c != a.c
    return parse(to_string(dataclasses.replace(a, c=c)))


def test_recovery_facts_built_once_per_diagram(monkeypatch, cold_caches):
    import nice_einstein.diagram as diagram
    import nice_einstein.einstein as einstein
    import nice_einstein.linalg as linalg
    from nice_einstein.catalog import find_entry

    counts = {}
    _counting(monkeypatch, diagram, "validate_nice", counts)
    _counting(monkeypatch, einstein, "kernel_basis", counts)
    _counting(monkeypatch, linalg, "smith_normal_form", counts)
    _counting(monkeypatch, einstein, "F2Reduction", counts)
    _counting(monkeypatch, einstein, "recover_metric", counts)
    a = find_entry("841:48").algebra({"a2": F(2)})
    res = diagonal_einstein(a, 0)
    assert res.success and len(res.certificates) == 32
    assert counts == {"validate_nice": 1, "kernel_basis": 1, "smith_normal_form": 1,
                      "F2Reduction": 1, "recover_metric": 32}
    # the same diagram in another basis: new constants, nothing rebuilt
    counts.clear()
    again = diagonal_einstein(_rescaled(a, (2, 3, 1, 1, 1, 1, 1, 1)), 0)
    assert again.success and len(again.certificates) == 32
    assert counts == {"recover_metric": 32}


def test_exact_magnitudes_solved_once_per_ray(monkeypatch):
    import nice_einstein.einstein as einstein
    from nice_einstein.catalog import find_entry

    counts = {}
    _counting(monkeypatch, einstein.MultiplicativeSystem, "solve", counts)
    _counting(monkeypatch, einstein, "_log_solve", counts)
    _counting(monkeypatch, einstein, "recover_metric", counts)
    # 32 certificates over the rays X and -X: only the signs differ, so the
    # magnitudes are solved once
    res = diagonal_einstein(find_entry("841:48").algebra({"a2": F(2)}), 0)
    assert res.success and len(res.certificates) == 32
    assert len({c.X for c in res.certificates}) == 2
    assert len({tuple(map(abs, c.X)) for c in res.certificates}) == 1
    assert counts == {"solve": 1, "recover_metric": 32}


def test_sigma_weights_computed_once_per_classification(monkeypatch):
    import nice_einstein.einstein as einstein
    from nice_einstein.catalog import find_entry

    counts = {}
    _counting(monkeypatch, einstein, "tilde_c", counts)
    a = find_entry("741:6").algebra({"lambda": F(1, 2)})
    sigma = parse_permutation("(23)(45)", a.n)
    # a winner: the systems' weights are reused by metric recovery
    res = sigma_einstein(a, sigma, 0)
    assert res.success and res.certificates
    assert counts == {"tilde_c": 1}
    # no winner: K fails before recovery is built
    counts.clear()
    assert not sigma_einstein(a, sigma, 5).success
    assert counts == {"tilde_c": 1}


def test_parameter_solve_builds_one_basis_per_leaf(monkeypatch, families):
    import nice_einstein.solver as solver

    counts = {}
    _counting(monkeypatch, solver, "_p_basis", counts)
    # the sign regions of a share their leaves, and every orthant of the leaf
    # is decided on its +1 gauge slice, so one basis is built
    assert [u for u, _ in parameter_solve(families["93:86"], k=0)] == [F(-1, 8), F(1, 8)]
    assert counts == {"_p_basis": 1}


def test_catalog_solve_record_calls_parameter_solve_once(monkeypatch):
    import nice_einstein.catalog as catalog

    counts = {}
    _counting(monkeypatch, catalog, "parameter_solve", counts)
    _counting(monkeypatch, catalog, "diagonal_einstein", counts)
    # the record's own value is read off the solve, not classified again
    assert all(chk.ok for chk in catalog.run_entry(catalog.find_entry("93:86"), 1e-9))
    assert counts == {"parameter_solve": 1}


def test_p_layer_builds_one_basis_per_pair_of_gauge_slices(monkeypatch):
    import nice_einstein.einstein as einstein
    import nice_einstein.solver as solver
    from nice_einstein.catalog import find_entry

    counts = {}
    _counting(monkeypatch, solver, "_p_basis", counts)
    _counting(monkeypatch, einstein, "decide_condition_p", counts)
    # 6 orthants of one leaf with the same signs, those with X_pin < 0
    # decided as their antipodes on the +1 slice: one basis {1}
    res = diagonal_einstein(find_entry("8654321:25").algebra(), 0)
    assert (res.success, res.failed_at, res.detail) == (False, "P", "Groebner basis {1}")
    assert counts == {"decide_condition_p": 6, "_p_basis": 1}


def test_each_cone_is_gauge_sliced_once(monkeypatch):
    import nice_einstein.solver as solver
    from nice_einstein.catalog import find_entry, run_entry

    sliced = []
    cut = solver.gauge_slice
    monkeypatch.setattr(solver, "gauge_slice", lambda S: sliced.append(S) or cut(S))
    # the k = 0 records of the catalog's nonlinear entries: 4 leaves, each
    # cut once however many of its orthants reach P
    for name in ("86532:6", "8654321:24", "8654321:25", "85321:48", "8521:12",
                 "842:121a", "842:121b"):
        assert all(chk.ok for chk in run_entry(find_entry(name), 1e-9))
    assert len(sliced) == len(set(sliced)) == 4


def test_float_magnitudes_fitted_once_per_ray(monkeypatch):
    import nice_einstein.einstein as einstein
    from nice_einstein.catalog import find_entry

    counts = {}
    _counting(monkeypatch, einstein.MultiplicativeSystem, "solve", counts)
    _counting(monkeypatch, einstein, "_log_solve", counts)
    _counting(monkeypatch, einstein, "recover_metric", counts)
    # exact X, but the Smith form needs fractional powers: the log-space fit,
    # once for every sign variant of the ray
    res = diagonal_einstein(find_entry("8542:15a").algebra({"a2": F(2)}), 0)
    assert res.success and len(res.certificates) == 16
    assert not any(c.exact for c in res.certificates)
    assert len({tuple(map(abs, c.X)) for c in res.certificates}) == 1
    assert counts == {"solve": 1, "_log_solve": 1, "recover_metric": 16}


def test_signs_and_magnitudes_solved_once_per_ray(monkeypatch):
    import nice_einstein.einstein as einstein
    from nice_einstein.catalog import find_entry
    from nice_einstein.einstein import _Recovery

    a = find_entry("831:37").algebra()
    res = diagonal_einstein(a, 0)
    assert res.exact and len(res.certificates) == 64
    rays = {tuple(c.X) for c in res.certificates}
    facts = _Recovery.of(a, None)
    counts = {}
    _counting(monkeypatch, einstein, "logsign", counts)
    _counting(monkeypatch, einstein.MultiplicativeSystem, "solve", counts)
    for cert in res.certificates:
        assert recover_metric(a, cert.X, cert.delta, facts=facts) == (
            cert.metric, cert.freedom)
    # one rhs and logsign per X, one multiplicative solve per |X|
    assert len(rays) == len(facts.by_X) == counts["logsign"] == 2
    assert len(facts.by_ray) == counts["solve"] == len({tuple(map(abs, X)) for X in rays})


@pytest.mark.parametrize("name, k", [("631:6", 0), ("842:121a", 1)])
def test_exact_certificate_check_fails_on_a_perturbed_metric(monkeypatch, name, k):
    import dataclasses

    import nice_einstein.einstein as einstein
    from nice_einstein.catalog import find_entry
    from nice_einstein.curvature import LieBrackets, einstein_residual, ricci_tensor

    a = find_entry(name).algebra()
    res = diagonal_einstein(a, k)
    cert = res.certificates[0]
    mags = tuple(abs(x) for x in cert.metric.g)
    assert cert.exact and einstein._oracle_residuals(a, None, mags, [cert.delta], F(k)) == [0]
    # a perturbed magnitude, and a perturbed mask: each fails with the Gram path's residual
    flipped = (1 - cert.delta[0],) + cert.delta[1:]
    assert flipped not in {c.delta for c in res.certificates}
    dec = SimpleNamespace(root_is_rational=True, root_X=cert.X, note="")
    for g, delta in (((2 * mags[0],) + mags[1:], cert.delta), (mags, flipped)):
        bad = dataclasses.replace(
            cert.metric, g=tuple(-x if d else x for x, d in zip(g, delta)), delta=delta)
        _, op = ricci_tensor(LieBrackets.from_nice(a), bad.gram())
        want = einstein_residual(op, F(k, 2))
        got, = einstein._oracle_residuals(a, None, g, [delta], F(k))
        assert type(got) is F and got == want != 0
        with pytest.raises(AssertionError, match="curvature oracle"):
            einstein._certificate(dec, bad, cert.freedom, True, got, F(k), 1e-9, [])
    # and the classification raises when recovery hands the oracle a wrong |g|
    solve = einstein._Recovery.solve

    def perturbed(self, X):
        signs, mags = solve(self, X)
        return signs, (2 * mags[0],) + mags[1:]
    monkeypatch.setattr(einstein._Recovery, "solve", perturbed)
    with pytest.raises(AssertionError, match="curvature oracle"):
        diagonal_einstein(a, k)


def test_exact_check_compares_every_entry_with_lambda(monkeypatch):
    """The numerator check against op = lambda id, on given Ricci numerators R:
    each verdict and residual is that of the Gram path on the same R."""
    import nice_einstein.curvature as curvature
    import nice_einstein.einstein as einstein
    from nice_einstein.curvature import LieBrackets, diagonal_gram, einstein_residual, ricci_tensor

    a = parse("(0,0,e^{12})")
    lam = F(-1, 2)
    # g = (1, 1, 1): L = M = det = 1, so op = R / d_den^2 = R / 4
    cases = [([[-2, 0, 0], [0, -2, 0], [0, 0, -2]], 0),
             ([[-2, 0, 0], [1, -2, 0], [0, 0, -2]], F(1, 4)),
             ([[-2, 0, 0], [0, 0, 0], [0, 0, -2]], F(1, 2)),
             ([[-2, 0, 0], [0, -3, 0], [0, 0, -2]], F(1, 4))]
    for R, want in cases:
        monkeypatch.setattr(curvature, "_exact_ricci", lambda f, rows, D, R=R: [list(r) for r in R])
        got, = einstein._oracle_residuals(a, None, (F(1),) * 3, [(0, 0, 0)], F(-1))
        _, op = ricci_tensor(LieBrackets.from_nice(a), diagonal_gram([F(1)] * 3))
        assert got == want == einstein_residual(op, lam) and type(got) is F


def test_sigma_signatures_cross_checked_once_per_pattern(monkeypatch, cold_caches):
    import nice_einstein.einstein as einstein
    from nice_einstein.catalog import find_entry

    counts = {}
    _counting(monkeypatch, einstein, "symmetric_signature", counts)
    a = find_entry("831:37").algebra()
    sigma = parse_permutation("(45)", a.n)
    first = sigma_einstein(a, sigma, 0)
    assert first.success and len(first.signatures.S) == 32
    assert counts == {"symmetric_signature": 32}
    # classified again: every (sigma, delta) is known, and nothing is cross-checked
    counts.clear()
    assert sigma_einstein(a, sigma, 0) == first and counts == {}
    # the public function still cross-checks on every call
    metric = first.certificates[0].metric
    assert sigma_signature(metric) == sigma_signature(metric)
    assert counts == {"symmetric_signature": 2}


def test_recover_metric_checks_every_sign_pattern_on_a_solved_ray(algebras):
    from nice_einstein.einstein import _Recovery

    a = algebras["631:6"]
    res = diagonal_einstein(a, 0)
    facts = _Recovery.of(a, None)
    for cert in res.certificates:
        assert recover_metric(a, cert.X, cert.delta, facts=facts) == (
            cert.metric, cert.freedom)
    assert len(facts.by_ray) == len({tuple(map(abs, c.X)) for c in res.certificates})
    bad = tuple(1 - d for d in res.certificates[0].delta[:1]) + res.certificates[0].delta[1:]
    with pytest.raises(ValueError, match="mod-2"):
        recover_metric(a, res.certificates[0].X, bad, facts=facts)


def test_l_system_reduced_once_per_diagram(monkeypatch, cold_caches):
    import nice_einstein.diagram as diagram
    import nice_einstein.einstein as einstein
    from nice_einstein.catalog import find_entry

    counts = {}
    _counting(monkeypatch, diagram, "validate_nice", counts)
    _counting(monkeypatch, einstein, "F2Reduction", counts)
    returned, solved = [], []
    enumerate_orthants, solve_deltas = einstein.feasible_orthants, einstein._Systems.deltas

    def recorded_orthants(*args, **kwargs):
        out = enumerate_orthants(*args, **kwargs)
        returned.extend(out)
        return out

    def recorded_deltas(self, eps):
        solved.append(solve_deltas(self, eps))
        return solved[-1]
    monkeypatch.setattr(einstein, "feasible_orthants", recorded_orthants)
    monkeypatch.setattr(einstein._Systems, "deltas", recorded_deltas)
    # a catalog-nonlinear record: many orthants, one L system serving every
    # orthant that L's parity checks let through
    a = find_entry("86532:6").algebra()
    res = diagonal_einstein(a, 1)
    assert res.success
    assert counts == {"validate_nice": 1, "F2Reduction": 1}
    assert len(solved) == len(returned) == 13 and all(solved)
    # in another basis the diagram's orthants are enumerated no more; each
    # one's sign patterns are solved again, against the new weights
    counts.clear()
    again = diagonal_einstein(_rescaled(a, (1, 2, 1, 1, 3, 1, 1, 1)), 1)
    assert again.success and counts == {}
    assert len(returned) == 13 and solved[13:] == solved[:13]


def test_cold_and_warm_caches_give_equal_records(cold_caches):
    from nice_einstein.catalog import find_entry

    names = ("631:6", "86532:6", "841:48", "852:30", "741:6", "8654321:19")
    cold = [run_entry(find_entry(name), DEFAULT_TOL) for name in names]
    warm = [run_entry(find_entry(name), DEFAULT_TOL) for name in names]
    assert cold == warm and all(chk.ok for checks in cold for chk in checks)


def test_each_diagram_sigma_and_k_builds_its_own_systems(monkeypatch, cold_caches):
    import nice_einstein.einstein as einstein
    from nice_einstein.catalog import find_entry

    counts = {}
    _counting(monkeypatch, einstein, "F2Reduction", counts)
    a = find_entry("86532:6").algebra()
    sigma = parse_permutation("(12)(45)(78)", a.n)
    results = [diagonal_einstein(a, 0), diagonal_einstein(a, 1), sigma_einstein(a, sigma, 1)]
    assert [(r.success, r.failed_at) for r in results] == [
        (False, "H"), (True, None), (True, None)]
    assert counts == {"F2Reduction": 3}
    assert einstein._diagram_systems.cache_info().currsize == 3
    bases = [einstein._diagram_systems(a.diagram, s, F(k))
             for s, k in ((None, 0), (None, 1), (sigma, 1))]
    assert len({id(b) for b in bases}) == 3
    assert bases[0].k_rhs != bases[1].k_rhs and bases[0].zero and not bases[1].zero
    assert bases[1].aff != bases[2].aff and bases[2].l_system.rows > a.m


def test_a_diagram_is_validated_once_and_shared(monkeypatch, cold_caches):
    import nice_einstein.diagram as diagram
    from nice_einstein import NiceDiagram, ParseError

    counts = {}
    _counting(monkeypatch, diagram, "validate_nice", counts)
    first = parse("(0,0,e^{12},e^{13})")
    assert parse("(0,0,e^{12},2 e^{13})").diagram is first.diagram
    assert NiceDiagram.from_pairs(4, [(2, 1, 3), (1, 3, 4)]) is first.diagram
    assert counts == {"validate_nice": 1}
    # a failed validation is not kept: every parse raises again
    for _ in range(2):
        with pytest.raises(ParseError, match="not a nice diagram"):
            parse("(0,0,e^{12},e^{12})")
        with pytest.raises(ValueError, match="not a nice diagram"):
            NiceDiagram.from_pairs(4, [(1, 2, 3), (1, 2, 4)])
    assert counts == {"validate_nice": 5}


def test_a_classification_leaves_the_shared_k_rows_as_they_were():
    import nice_einstein.einstein as einstein
    from nice_einstein.catalog import find_entry

    # 8654321:19 slices K before its leaf, so its search adds rows to K's
    a = find_entry("8654321:19").algebra()
    base = einstein._diagram_systems(a.diagram, None, F(0))
    before = base.k_rows, base.k_rhs
    assert isinstance(base.k_rows, tuple) and all(isinstance(r, tuple) for r in base.k_rows)
    first = diagonal_einstein(a, 0)
    assert (base.k_rows, base.k_rhs) == before
    assert diagonal_einstein(a, 0) == first and first.failed_at == "L"
