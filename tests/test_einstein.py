from fractions import Fraction as F

import pytest

from nice_einstein import (
    SigmaMetric,
    condition_P_holds_exact,
    condition_P_residual,
    diagonal_einstein,
    format_delta,
    halved_signatures,
    logsign,
    parameter_solve,
    parse,
    parse_delta,
    parse_permutation,
    recover_metric,
    ricci_diagonal,
    ricci_sigma,
    root_matrix,
    sigma_einstein,
    sigma_signature,
    sufficient_condition,
)
from nice_einstein.linalg import kernel_basis


def deltas(strings, n):
    return [parse_delta(s, n) for s in strings]


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
    assert r.success
    assert len(r.signatures.S) == 8
    assert [format_delta(d) for d in r.signatures.half_S] == ["∅", "1", "2", "3"]


def test_abelian_k_nonzero_fails():
    r = diagonal_einstein(parse("(0,0)"), 1)
    assert not r.success and r.failed_at == "K"


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


def test_sigma_abelian_trivially_flat():
    a = parse("(0,0)")
    r = sigma_einstein(a, (2, 1), 0)
    assert r.success
    assert r.signatures.signature_sets() == {(1, 1): ["∅", "12"]}


# ---------------------------------------------------------------------------
# Individual condition operations


def test_condition_P_residual_vacuous():
    assert condition_P_residual([F(1)], [F(1)], []) == []


def test_condition_P_741_6_exact_relation(families):
    lam = F(1, 2)
    a = families["741:6"].substitute({"lambda": lam})
    M, _ = root_matrix(a.diagram)
    alphas = kernel_basis(M.transpose())
    # solution family x6 = (lambda - 1) x5, oracle-verified; the variant
    # relation x6 = (1/lambda - 1) x5 is inconsistent with the Ricci formula
    x5 = F(2)
    x6 = (lam - 1) * x5
    X = (x6, -x5 - x6, x5, x5, -x5 - x6, x6)
    assert condition_P_holds_exact(X, a.c, alphas)
    assert all(abs(v) < 1e-12 for v in condition_P_residual(X, a.c, alphas))
    Xbad = (x5, -2 * x5, x5, x5, -2 * x5, x5)
    assert not condition_P_holds_exact(Xbad, a.c, alphas)


def test_condition_P_93_86(families):
    a = families["93:86"].substitute({"a": F(1, 8)})
    M, _ = root_matrix(a.diagram)
    alphas = kernel_basis(M.transpose())
    assert len(alphas) == 1
    X = tuple(2 * x for x in alphas[0])
    assert condition_P_holds_exact(X, a.c, alphas)


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
    assert parameter_solve(families["93:86"], k=0) == [F(-1, 8), F(1, 8)]


def test_parameter_solve_741_6_sigma(families):
    fam = families["741:6"]
    assert parameter_solve(fam, sigma=parse_permutation("(23)(45)", 7), k=0) == [F(1, 2)]
    assert parameter_solve(fam, sigma=parse_permutation("(12)(56)", 7), k=0) == [F(-1)]
    assert parameter_solve(fam, sigma=parse_permutation("(13)(46)", 7), k=0) == [F(2)]


def test_parameter_solve_852_30(families):
    part = families["852:30"].partial({"a1": 1})
    sigma = parse_permutation("(23)(45)(78)", 8)
    assert parameter_solve(part, sigma=sigma, k=0) == [F(2)]


def test_parameter_solve_852_30_other_involutions(families):
    fam = families["852:30"]
    # constraint a2 = 2 a1^2 at a1 = 1
    sigma = parse_permutation("(12)(56)(78)", 8)
    assert parameter_solve(fam.partial({"a1": 1}), sigma=sigma, k=0) == [F(2)]
    # constraint a1 = -2 a2^2 at a2 = 1
    sigma = parse_permutation("(13)(46)(78)", 8)
    assert parameter_solve(fam.partial({"a2": 1}), sigma=sigma, k=0) == [F(-2)]


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


def test_recovery_facts_built_once_per_classification(monkeypatch):
    import nice_einstein.einstein as einstein
    import nice_einstein.linalg as linalg
    from nice_einstein.catalog import find_entry

    counts = {}
    _counting(monkeypatch, einstein, "kernel_basis", counts)
    _counting(monkeypatch, linalg, "smith_normal_form", counts)
    _counting(monkeypatch, einstein, "recover_metric", counts)
    res = diagonal_einstein(find_entry("841:48").algebra({"a2": F(2)}), 0)
    assert res.success and len(res.certificates) == 32
    assert counts == {"kernel_basis": 1, "smith_normal_form": 1, "recover_metric": 32}



def test_exact_magnitudes_solved_once_per_ray(monkeypatch):
    import nice_einstein.einstein as einstein
    from nice_einstein.catalog import find_entry

    counts = {}
    _counting(monkeypatch, einstein.MultiplicativeSystem, "solve", counts)
    _counting(monkeypatch, einstein, "_log_solve", counts)
    _counting(monkeypatch, einstein, "recover_metric", counts)
    # 32 certificates over 2 rays X; only the signs differ within a ray
    res = diagonal_einstein(find_entry("841:48").algebra({"a2": F(2)}), 0)
    assert res.success and len(res.certificates) == 32
    assert len({c.X for c in res.certificates}) == 2
    assert counts == {"solve": 2, "recover_metric": 32}


def test_parameter_solve_builds_one_basis_per_leaf(monkeypatch, families):
    import nice_einstein.solver as solver

    counts = {}
    _counting(monkeypatch, solver, "_p_basis", counts)
    # the sign regions of a share their leaves, and the two gauge slices of
    # the leaf share one basis up to a sign flip, so one basis is built
    assert parameter_solve(families["93:86"], k=0) == [F(-1, 8), F(1, 8)]
    assert counts == {"_p_basis": 1}


def test_p_layer_builds_one_basis_per_pair_of_gauge_slices(monkeypatch):
    import nice_einstein.einstein as einstein
    import nice_einstein.solver as solver
    from nice_einstein.catalog import find_entry

    counts = {}
    _counting(monkeypatch, solver, "_p_basis", counts)
    _counting(monkeypatch, einstein, "decide_condition_p", counts)
    # 6 orthants of one leaf, on both gauge slices with the same signs: the
    # -1 slice's basis {1} is the sign flip of the +1 slice's
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
    # exact X, but the Smith form needs fractional powers: the log-space fit
    res = diagonal_einstein(find_entry("8542:15a").algebra({"a2": F(2)}), 0)
    assert res.success and len(res.certificates) == 16
    assert not any(c.exact for c in res.certificates)
    assert counts == {"solve": 4, "_log_solve": 4, "recover_metric": 16}


def test_recover_metric_checks_every_sign_pattern_on_a_solved_ray(algebras):
    from nice_einstein.einstein import _Recovery

    a = algebras["631:6"]
    res = diagonal_einstein(a, 0)
    facts = _Recovery.of(a, None)
    for cert in res.certificates:
        assert recover_metric(a, cert.X, cert.delta, facts=facts) == (
            cert.metric, cert.freedom)
    assert len(facts.by_ray) == len({c.X for c in res.certificates})
    bad = tuple(1 - d for d in res.certificates[0].delta[:1]) + res.certificates[0].delta[1:]
    with pytest.raises(ValueError, match="mod-2"):
        recover_metric(a, res.certificates[0].X, bad, facts=facts)


def test_l_system_reduced_once_per_classification(monkeypatch):
    import nice_einstein.einstein as einstein
    from nice_einstein.catalog import find_entry

    counts = {}
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
    res = diagonal_einstein(find_entry("86532:6").algebra(), 1)
    assert res.success
    assert counts["F2Reduction"] == 1
    assert len(solved) == len(returned) == 13 and all(solved)
