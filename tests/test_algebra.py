from fractions import Fraction as F

import pytest

from nice_einstein import (
    NiceLieAlgebra,
    ParseError,
    diagonal_derivations,
    eigendistribution_involutive,
    fundamental_domain,
    jacobi_residuals,
    nonzero_trace_derivation_witness,
    parse,
    parse_permutation,
    root_matrix,
    sigma_eigenspace_involutivity,
    sigma_einstein,
    tilde_c,
    to_string,
)


def test_parse_631_6_constants(algebras):
    a = algebras["631:6"]
    assert a.c == (F(1),) * 4
    assert a.indices() == ((1, 2, 4), (1, 3, 5), (2, 5, 6), (3, 4, 6))


def test_parse_75432_3_constants(algebras):
    assert algebras["75432:3"].c == (F(-1), F(1), F(1), F(1), F(1), F(1), F(1), F(1))


def test_parse_heisenberg(algebras):
    a = algebras["heisenberg"]
    assert a.n == 3 and a.m == 1
    assert a.brackets() == {(1, 2): (3, F(1))}


def test_parse_grammar_variants():
    a = parse("(0, 0, 3/2 e^{12})")
    assert a.c == (F(3, 2),)
    b = parse("(0,0,e^12)")  # two digits without braces
    assert b.c == (F(1),)
    c = parse("(0,0,e^{21})")  # reversed wedge normalizes with a sign
    assert c.c == (F(-1),)
    d = parse("(0,) * 8 is not valid") if False else parse(
        "(0,0,0,0,0,0,0,0,0,e^{12}+e^{34}+e^{56}+e^{78}+e^{90})".replace("+e^{90}", ""))
    assert d.n == 10


def test_parse_unicode_minus():
    a = parse("(0,0,−e^{12})")
    assert a.c == (F(-1),)


def test_parse_node_ten_digit_zero():
    a = parse("(0,0,0,0,0,0,0,0,0,e^{19}+e^{28})")
    assert a.n == 10
    assert a.indices() == ((1, 9, 10), (2, 8, 10))
    assert to_string(a) == "(0,0,0,0,0,0,0,0,0,e^{19}+e^{28})"


@pytest.mark.parametrize("bad", [
    "0,0,e^{12}",                 # missing parens
    "(0,0,e^{12)",                # broken brace
    "(0,0,0 e^{12})",             # zero coefficient
    "(0,0,e^{11})",               # degenerate wedge
    "(0,0,e^{12}+e^{12})",        # duplicate wedge
    "(0,0,e^{12},e^{12})",        # N2 violation: same pair hits two targets
    "(0,0,1/0 e^{12})",           # zero denominator
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_parse_rejects_unresolved_parameters():
    with pytest.raises(ParseError, match="substitute"):
        parse("(0,0,lambda e^{12})")


def test_parse_rejects_jacobi_failure():
    with pytest.raises(ParseError, match="Jacobi"):
        parse("(0,0,0,e^{12},e^{13},-e^{25}+e^{34})")


def test_round_trip_on_catalog():
    from nice_einstein.catalog import load_catalog
    for entry in load_catalog():
        fam = entry.family()
        samples = {}
        for rec in entry.expected.get("diagonal", []) + entry.expected.get("sigma", []):
            if rec.get("param"):
                samples = {k: F(v) for k, v in rec["param"].items()}
                break
        if fam.params() and not samples:
            continue
        a = fam.substitute(samples)
        assert parse(to_string(a)).c == a.c
        assert parse(to_string(a)).diagram == a.diagram


def test_jacobi_residuals_vanish_on_catalog():
    from nice_einstein.catalog import load_catalog
    for entry in load_catalog():
        fam = entry.family()
        if fam.params():
            continue
        assert jacobi_residuals(fam.substitute({})) == []


def test_jacobi_detects_single_sign_flip(algebras):
    # flip c_{25,6} in 631:6 by hand and expand d^2 directly
    good = algebras["631:6"]
    flipped = tuple(-cv if idx == (2, 5, 6) else cv
                    for idx, cv in zip(good.indices(), good.c))
    bad = NiceLieAlgebra("broken", good.diagram, flipped)
    res = jacobi_residuals(bad)
    assert res
    assert all(k == 6 for (k, _), _ in res)


def test_jacobi_abelian():
    assert jacobi_residuals(parse("(0,0,0)")) == []


def test_tilde_c_741_6(families):
    lam = F(1, 2)
    a = families["741:6"].substitute({"lambda": lam})
    sigma = parse_permutation("(23)(45)", 7)
    assert tilde_c(a, sigma) == (lam, lam - 1, F(-1), F(1), F(1), F(1))
    sigma2 = parse_permutation("(13)(46)", 7)
    assert tilde_c(a, sigma2) == (F(-1), -lam, 1 - lam, F(1), F(1), F(1))


def test_tilde_c_identity(algebras):
    a = algebras["631:6"]
    assert tilde_c(a, tuple(range(1, 7))) == a.c


def test_tilde_c_involution_round_trip(families):
    a = families["741:6"].substitute({"lambda": 3})
    sigma = parse_permutation("(23)(45)", 7)
    ct = tilde_c(a, sigma)
    b = NiceLieAlgebra(None, a.diagram, ct)
    assert tilde_c(b, sigma) == a.c


def test_tilde_c_rejects_non_automorphism(algebras):
    with pytest.raises(ValueError):
        tilde_c(algebras["631:6"], parse_permutation("(12)", 6))


@pytest.mark.parametrize("text, sigma, message", [
    ("(0,0,0,e^{12},e^{13},e^{25}+e^{34})", "(12)", "sigma is not a diagram automorphism"),
    ("(0,0,0)", "(123)", "sigma is not an involution"),
])
@pytest.mark.parametrize("check", [tilde_c, sigma_eigenspace_involutivity, sigma_einstein])
def test_sigma_must_be_an_involutive_automorphism(text, sigma, message, check):
    a = parse(text)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(a, parse_permutation(sigma, a.n))


def test_diagonal_derivations_dims(algebras):
    assert len(diagonal_derivations(algebras["631:6"])) == 3
    assert len(diagonal_derivations(parse("(0,0,0,0)"))) == 4
    assert len(diagonal_derivations(algebras["dim10"])) == 3


def test_diagonal_derivations_exponentiate_to_automorphisms(algebras):
    # exp of a derivation rescales the basis compatibly: g_k / (g_i g_j) = 1
    from nice_einstein.einstein import _int_scale
    for name in ("631:6", "75432:3", "dim10"):
        a = algebras[name]
        for v in diagonal_derivations(a):
            w = _int_scale(v)
            g = [F(2) ** e for e in w]
            for (i, j), (k, _) in a.brackets().items():
                assert g[k - 1] == g[i - 1] * g[j - 1]


def test_nonzero_trace_witness(families, algebras):
    w = nonzero_trace_derivation_witness(families["754321:9"].substitute({"lambda": 2}))
    assert w is not None and sum(w) != 0
    M, _ = root_matrix(algebras["842:117"].diagram)
    assert nonzero_trace_derivation_witness(algebras["842:117"]) is None


def test_fundamental_domain_invertible_mod2(algebras):
    # 842:117 has invertible mod-2 root matrix: everything normalizes to 1
    fd = fundamental_domain(algebras["842:117"])
    assert len(fd.normalized_to_one) == 8
    assert fd.normalized_to_pm_one == ()
    assert fd.free == ()


def test_fundamental_domain_62_4a(algebras):
    fd = fundamental_domain(algebras["62:4a"])
    assert fd.rank_f2 == 3
    assert fd.rank_q == 4
    assert fd.normalized_to_one == ((1, 3, 5), (2, 4, 5), (1, 2, 6))
    assert fd.normalized_to_pm_one == ((3, 4, 6),)
    assert fd.free == ()


def test_fundamental_domain_631_6_rank_cross_check(algebras):
    from nice_einstein.linalg import F2Reduction, rref
    a = algebras["631:6"]
    M, M2 = root_matrix(a.diagram)
    fd = fundamental_domain(a)
    assert fd.rank_q == len(rref(M)[1]) == 3
    assert fd.rank_f2 == F2Reduction(M2).rank == 3
    assert len(fd.free) == a.m - fd.rank_q


def _greedy_fundamental_domain(a):
    """Reference: grow each row basis in index order, one rank per candidate row."""
    from nice_einstein.algebra import FundamentalDomainReport
    from nice_einstein.linalg import F2Reduction, MatF2, MatQ, rref
    M, M2 = root_matrix(a.diagram)
    chosen2, rows2 = [], []
    for r in range(a.m):
        cand = rows2 + [list(M2.data[r])]
        if F2Reduction(MatF2.from_rows(cand)).rank > len(rows2):
            rows2, chosen2 = cand, chosen2 + [r]
    chosen_q, rows_q = list(chosen2), [list(M.data[r]) for r in chosen2]
    for r in range(a.m):
        cand = rows_q + [list(M.data[r])]
        if r not in chosen_q and len(rref(MatQ.from_rows(cand))[1]) > len(rows_q):
            rows_q, chosen_q = cand, chosen_q + [r]
    idx = a.indices()
    return FundamentalDomainReport(
        tuple(idx[r] for r in chosen2),
        tuple(idx[r] for r in sorted(chosen_q) if r not in chosen2),
        tuple(idx[r] for r in range(a.m) if r not in chosen_q), len(chosen_q), len(chosen2))


def test_fundamental_domain_matches_the_greedy_rank_loop(algebras):
    from nice_einstein.catalog import load_catalog
    catalog = [entry.algebra({n: F(v) for n, v in next(
        rec for recs in entry.expected.values() for rec in recs).get("param", {}).items()})
        for entry in load_catalog()]
    assert len(catalog) == 44
    for a in [*catalog, *algebras.values(), parse("(0,0,0)")]:
        assert fundamental_domain(a) == _greedy_fundamental_domain(a), a.name


def test_eigendistribution_involutive_dim10(algebras):
    a = algebras["dim10"]
    assert eigendistribution_involutive(a, [1, 4, 6, 7, 9]) == (True, True)
    plus, minus = eigendistribution_involutive(a, [1, 2, 3, 4, 9])
    assert not (plus and minus)


def test_eigendistribution_abelian_any_split():
    a = parse("(0,0,0,0)")
    assert eigendistribution_involutive(a, [1, 3]) == (True, True)


def test_sigma_eigenspace_dim10_not_integrable(algebras):
    a = algebras["dim10"]
    sigma = parse_permutation("(13)(27)(45)(68)(90)", 10)
    plus, minus = sigma_eigenspace_involutivity(a, sigma)
    assert not (plus and minus)


def test_sigma_eigenspace_abelian_r2():
    a = parse("(0,0)")
    assert sigma_eigenspace_involutivity(a, (2, 1)) == (True, True)


def test_sigma_eigenspace_741_6(families):
    a = families["741:6"].substitute({"lambda": F(1, 2)})
    sigma = parse_permutation("(23)(45)", 7)
    with pytest.raises(ValueError):
        # has fixed points: rejected
        sigma_eigenspace_involutivity(a, sigma)


def test_family_partial_substitution(families):
    fam = families["852:30"]
    part = fam.partial({"a1": 1})
    assert part.params() == ["a2"]
    a = part.substitute({"a2": 2})
    assert a.c[0] == 1 and a.c[1] == 2


def test_family_zero_coefficient_rejected(families):
    with pytest.raises(ParseError):
        families["741:6"].substitute({"lambda": 1})
