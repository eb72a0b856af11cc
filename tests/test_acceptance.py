"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Every
numeric tolerance and time budget is pinned here.
"""

import random
import time
from fractions import Fraction as F

from nice_einstein import (
    LieBrackets,
    ad_invariance_check,
    diagonal_einstein,
    diagonal_gram,
    eigendistribution_involutive,
    format_delta,
    involutions,
    nonzero_trace_derivation_witness,
    parameter_solve,
    parse_permutation,
    projected_riemann_norm,
    ricci_diagonal,
    ricci_sigma,
    ricci_tensor,
    riemann_norm,
    root_matrix,
    sigma_einstein,
    sigma_gram,
)
from nice_einstein.catalog import find_entry
from nice_einstein.linalg import kernel_basis

TOL = 1e-9


def report(num, ok, label, t0, budget):
    dt = time.time() - t0
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'}  {label}  ({dt:.2f}s / {budget}s)")
    assert ok, label
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.2f}s)"


def alg(name, **params):
    entry = find_entry(name)
    return entry.family().substitute({k: F(v) for k, v in params.items()})


def half_strings(res):
    return [format_delta(d) for d in res.signatures.half_S]


def test_criterion_1_631_6():
    t0 = time.time()
    a = alg("631:6")
    res = diagonal_einstein(a, 0, TOL)
    ok = res.success and res.exact
    ok = ok and half_strings(res) == ["4", "5", "12", "13", "26", "36", "146", "156"]
    cert = next(c for c in res.certificates if format_delta(c.delta) == "5")
    g = cert.metric.g
    ok = ok and g[3] == g[0] * g[1] and g[4] == -g[0] * g[2] and g[5] == g[0] * g[1] * g[2]
    ok = ok and all(c.oracle_residual == 0 for c in res.certificates)
    report(1, ok, "631:6 half_S and recovered family, oracle-exact", t0, 1)


def test_criterion_2_table_dim7():
    t0 = time.time()
    ok = True
    r = diagonal_einstein(alg("75432:3"), 0, TOL)
    ok &= r.success and half_strings(r) == ["5", "47", "137", "267"]
    # the lambda pairing of the three half_S sets follows the
    # oracle-verified computation (cross-checked against the corresponding
    # dim-8 algebra, which is this one plus a trivial factor)
    table = {
        "2":   ["5", "13", "27", "46", "126", "147", "234", "367"],
        "1/2": ["6", "17", "23", "45", "125", "134", "247", "357"],
        "-1":  ["4", "12", "37", "56", "136", "157", "235", "267"],
    }
    for lam, want in table.items():
        r = diagonal_einstein(alg("741:6", **{"lambda": lam}), 0, TOL)
        ok &= r.success and half_strings(r) == want
    r = diagonal_einstein(alg("731:15"), 0, TOL)
    ok &= r.success and set(half_strings(r)) == {
        "5", "6", "12", "13", "27", "37", "45", "46", "124", "134",
        "157", "167", "235", "247", "236", "347"} and len(r.signatures.half_S) == 16
    r = diagonal_einstein(alg("754321:9", **{"lambda": "2"}), 0, TOL)
    ok &= (not r.success) and r.failed_at == "L"
    for name in ("75421:4", "74321:12"):
        r = diagonal_einstein(alg(name), 0, TOL)
        ok &= (not r.success) and r.failed_at in ("P", "H")
    report(2, ok, "dim-7 table regenerated with exact failure verdicts", t0, 10)


def test_criterion_3_sigma_dim7():
    t0 = time.time()
    fam = find_entry("741:6").family()
    expected = {
        "(23)(45)": ("1/2", {(4, 3): ["1", "237", "457", "12345"],
                             (3, 4): ["67", "1236", "1456", "234567"]}),
        "(12)(56)": ("-1", {(4, 3): ["3", "127", "567", "12356"],
                            (3, 4): ["47", "1234", "3456", "124567"]}),
        "(13)(46)": ("2", {(4, 3): ["2", "137", "467", "12346"],
                           (3, 4): ["57", "1235", "2456", "134567"]}),
    }
    ok = True
    for sig_text, (lam, sets) in expected.items():
        sigma = parse_permutation(sig_text, 7)
        sols = [u for u, _ in parameter_solve(fam, sigma=sigma, k=0, tol=TOL)]
        ok &= sols == [F(lam)]
        res = sigma_einstein(fam.substitute({"lambda": F(lam)}), sigma, 0, TOL)
        ok &= res.success
        got = res.signatures.signature_sets()
        for pq, want in sets.items():
            ok &= got.get(pq) == want
    report(3, ok, "sigma-diagonal dim-7: parameters and signature sets verbatim", t0, 10)


def test_criterion_4_dim8_spot_checks():
    t0 = time.time()
    ok = True
    r = diagonal_einstein(alg("85432:9"), 0, TOL)
    ok &= r.success and half_strings(r) == ["6", "36", "58", "148", "278", "358",
                                            "1348", "1456"]
    r = diagonal_einstein(alg("842:111a"), 0, TOL)
    ok &= r.success and half_strings(r) == [
        "5", "6", "125", "126", "134", "137", "148", "178", "234", "237",
        "248", "278", "358", "368", "457", "467"]
    for name in ("8531:93", "842:107"):
        r = diagonal_einstein(alg(name), 0, TOL)
        ok &= (not r.success) and r.failed_at == "P" and r.exact
    report(4, ok, "dim-8 spot checks incl. exact (P) failures", t0, 30)


def test_criterion_5_table4_spot_checks():
    t0 = time.time()
    ok = True
    fam852 = find_entry("852:30").family()
    sigma = parse_permutation("(23)(45)(78)", 8)
    sols = parameter_solve(fam852.partial({"a1": F(1)}), sigma=sigma, k=0, tol=TOL)
    ok &= [u for u, _ in sols] == [F(2)]
    res = sigma_einstein(fam852.substitute({"a1": F(1), "a2": F(2)}), sigma, 0, TOL)
    got = res.signatures.signature_sets()
    ok &= got.get((5, 3)) == ["2345"]
    ok &= got.get((4, 4)) == ["236", "14578"]
    ok &= got.get((3, 5)) == ["1678"]
    sigma = parse_permutation("(23)(56)", 8)
    res = sigma_einstein(alg("841:48", a2="1/2"), sigma, 0, TOL)
    got = res.signatures.signature_sets()
    ok &= got.get((5, 3)) == ["1", "238", "568", "12356"]
    ok &= got.get((4, 4)) == ["14", "78", "1237", "1567", "2348", "4568",
                              "123456", "235678"]
    ok &= got.get((3, 5)) == ["478", "12347", "14567", "2345678"]
    report(5, ok, "852:30 and 841:48 sigma rows with solved parameters", t0, 30)


def test_criterion_6_curvature_norms():
    t0 = time.time()
    a = alg("75432:3")
    B = LieBrackets.from_nice(a)
    ok = True
    for y in (F(1), F(2), F(-3)):
        G = diagonal_gram([F(1), F(1), F(1), y, -y, y * y, y])
        ok &= riemann_norm(B, G) == F(1, 2) * y + y * y + 1
        ok &= projected_riemann_norm(B, G) == -y * y - y + F(13, 8)
    report(6, ok, "curvature norms of the one-parameter family, exact at 3 points", t0, 1)


def test_criterion_7_93_86():
    t0 = time.time()
    fam = find_entry("93:86").family()
    ok = [u for u, _ in parameter_solve(fam, k=0, tol=TOL)] == [F(-1, 8), F(1, 8)]
    a = fam.substitute({"a": F(1, 8)})
    res = diagonal_einstein(a, 0, TOL)
    ok &= res.success and half_strings(res) == ["125", "346"]
    B = LieBrackets.from_nice(a)
    inv, _ = ad_invariance_check(B, res.certificates[0].metric.gram())
    ok &= inv is False
    report(7, ok, "93:86 parameters, half_S, and non-ad-invariance", t0, 5)


def test_criterion_8_dim10():
    t0 = time.time()
    a = alg("10:1")
    res = diagonal_einstein(a, 0, TOL)
    ok = res.success and half_strings(res) == [
        "169", "160", "259", "250", "389", "380", "479", "470",
        "1237", "1248", "1345", "1578", "2346", "2678", "3567", "4568"]
    # 3-parameter recovered family: rescale one certificate along all three
    # gauge directions at random rational values; the oracle must stay zero
    cert = res.certificates[0]
    ok &= len(cert.freedom.exponents) == 3
    rng = random.Random(5)
    B = LieBrackets.from_nice(a)
    for _ in range(3):
        g = list(cert.metric.g)
        for w in cert.freedom.exponents:
            s = F(rng.randint(1, 5), rng.randint(1, 3))
            g = [x * s ** e for x, e in zip(g, w)]
        _, op = ricci_tensor(B, diagonal_gram(g))
        ok &= all(op[i][j] == 0 for i in range(10) for j in range(10))
    report(8, ok, "10-dim half_S and Ricci-flat 3-parameter family", t0, 5)


def test_criterion_9_nonzero_curvature():
    t0 = time.time()
    ok = True
    for name in ("86532:6", "8531:60a", "8531:60b", "842:117",
                 "842:121a", "842:121b"):
        r = diagonal_einstein(alg(name), 1, TOL)
        ok &= r.success
        for c in r.certificates:
            if c.exact:
                ok &= c.oracle_residual == 0
            else:
                ok &= float(abs(c.oracle_residual)) <= TOL
    for name, params in (("754321:9", {"lambda": "2"}), ("75432:3", {})):
        a = alg(name, **params)
        r = diagonal_einstein(a, 1, TOL)
        ok &= (not r.success) and r.failed_at == "K"
        w = nonzero_trace_derivation_witness(a)
        ok &= w is not None and sum(w) != 0
    report(9, ok, "six dim-8 Einstein algebras at k=1; obstruction consistency", t0, 60)


def test_criterion_10_property_suites():
    t0 = time.time()
    from nice_einstein.catalog import load_catalog
    rng = random.Random(20241)

    def rand_frac():
        v = F(rng.randint(1, 9), rng.randint(1, 5))
        return -v if rng.random() < 0.5 else v

    pool = []
    for entry in load_catalog():
        fam = entry.family()
        values = {}
        for rec in entry.expected.get("diagonal", []) + entry.expected.get("sigma", []):
            if rec.get("param"):
                values = {k: F(v) for k, v in rec["param"].items()}
                break
        if fam.params() and not values:
            continue
        pool.append(fam.substitute(values))
    ok = True
    pairs = 0
    i = 0
    while pairs < 200:
        a = pool[i % len(pool)]
        i += 1
        B = LieBrackets.from_nice(a)
        invs = involutions(a.diagram)
        if invs and pairs % 4 == 3:
            sigma, _ = invs[rng.randrange(len(invs))]
            g = [F(0)] * a.n
            for v in range(1, a.n + 1):
                if g[v - 1] == 0:
                    val = rand_frac()
                    g[v - 1] = val
                    g[sigma[v - 1] - 1] = val
            formula = ricci_sigma(a, sigma, g)
            _, op = ricci_tensor(B, sigma_gram(g, sigma))
        else:
            g = [rand_frac() for _ in range(a.n)]
            formula = ricci_diagonal(a, g)
            _, op = ricci_tensor(B, diagonal_gram(g))
        for r in range(a.n):
            for c in range(a.n):
                ok &= op[r][c] == (formula[r] if r == c else 0)
        pairs += 1

    # negation, scaling, kernel gauge on a sample
    for a in pool[:8]:
        g = [rand_frac() for _ in range(a.n)]
        base = ricci_diagonal(a, g)
        ok &= ricci_diagonal(a, [-x for x in g]) == tuple(-x for x in base)
        t = F(3, 2)
        ok &= ricci_diagonal(a, [t * x for x in g]) == tuple(x / t for x in base)
        M, _ = root_matrix(a.diagram)
        for w in kernel_basis(M):
            from nice_einstein.einstein import _int_scale
            wi = _int_scale(w)
            ok &= ricci_diagonal(a, [x * F(2) ** e for x, e in zip(g, wi)]) == base

    # mod-2 re-verification on a classification
    a = alg("631:6")
    res = diagonal_einstein(a, 0, TOL)
    _, M2 = root_matrix(a.diagram)
    for cert in res.certificates:
        eps = tuple(1 if x < 0 else 0 for x in cert.X)
        ok &= tuple(M2.mul_vec(cert.delta)) == eps
    report(10, ok, "200 oracle-equivalence pairs and invariance laws", t0, 120)


def test_criterion_11_integrability():
    t0 = time.time()
    a = alg("10:1")
    ok = eigendistribution_involutive(a, [1, 4, 6, 7, 9]) == (True, True)
    plus, minus = eigendistribution_involutive(a, [1, 2, 3, 4, 9])
    ok &= not (plus and minus)
    # sigma eigenspaces fail to be involutive on every nonabelian catalog
    # algebra carrying a fixed-point-free involution
    from nice_einstein.catalog import load_catalog
    from nice_einstein import sigma_eigenspace_involutivity
    found = 0
    for entry in load_catalog():
        fam = entry.family()
        values = {}
        for rec in entry.expected.get("diagonal", []) + entry.expected.get("sigma", []):
            if rec.get("param"):
                values = {k: F(v) for k, v in rec["param"].items()}
                break
        if fam.params() and not values:
            continue
        alg_ = fam.substitute(values)
        if alg_.m == 0:
            continue
        for sigma, fpf in involutions(alg_.diagram):
            if not fpf:
                continue
            found += 1
            plus, minus = sigma_eigenspace_involutivity(alg_, sigma)
            ok &= not (plus and minus)
    ok &= found > 0
    report(11, ok, f"integrability splits and {found} fixed-point-free checks", t0, 5)
