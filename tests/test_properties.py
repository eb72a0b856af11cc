"""Randomized invariants: the formula-vs-oracle backbone and its corollaries."""

import random
from fractions import Fraction as F
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from nice_einstein import (
    LieBrackets,
    diagonal_einstein,
    diagonal_gram,
    parse_permutation,
    ricci_diagonal,
    ricci_sigma,
    ricci_tensor,
    root_matrix,
    sigma_einstein,
    sigma_gram,
    tilde_c,
)
from nice_einstein.catalog import load_catalog
from nice_einstein.curvature import (_ZERO, _einstein_residuals, _exact_connection,
                                     _exact_ricci, _sign_batch, einstein_residual)
from nice_einstein.diagram import involutions
from nice_einstein.einstein import _int_scale
from nice_einstein.linalg import f2_solve_all, kernel_basis


def catalog_algebras():
    out = []
    for entry in load_catalog():
        fam = entry.family()
        values = {}
        for rec in entry.expected.get("diagonal", []) + entry.expected.get("sigma", []):
            if rec.get("param"):
                values = {k: F(v) for k, v in rec["param"].items()}
                break
        if fam.params() and not values:
            continue
        out.append(fam.substitute(values))
    return out


ALGEBRAS = catalog_algebras()


def rand_frac(rng):
    v = F(rng.randint(1, 9), rng.randint(1, 5))
    return -v if rng.random() < 0.5 else v


def test_oracle_equivalence_200_random_pairs():
    rng = random.Random(20240)
    pairs = 0
    i = 0
    while pairs < 200:
        a = ALGEBRAS[i % len(ALGEBRAS)]
        i += 1
        B = LieBrackets.from_nice(a)
        invs = involutions(a.diagram)
        use_sigma = bool(invs) and pairs % 5 in (3, 4)
        if use_sigma:
            sigma, _ = invs[rng.randrange(len(invs))]
            g = [F(0)] * a.n
            for v in range(1, a.n + 1):
                w = sigma[v - 1]
                if g[v - 1] == 0:
                    val = rand_frac(rng)
                    g[v - 1] = val
                    g[w - 1] = val
            formula = ricci_sigma(a, sigma, g)
            _, op = ricci_tensor(B, sigma_gram(g, sigma))
        else:
            g = [rand_frac(rng) for _ in range(a.n)]
            formula = ricci_diagonal(a, g)
            _, op = ricci_tensor(B, diagonal_gram(g))
        for r in range(a.n):
            for c in range(a.n):
                want = formula[r] if r == c else F(0)
                assert op[r][c] == want
        pairs += 1
    assert pairs == 200


def test_negation_closure():
    rng = random.Random(7)
    for a in ALGEBRAS[:12]:
        g = [rand_frac(rng) for _ in range(a.n)]
        r1 = ricci_diagonal(a, g)
        r2 = ricci_diagonal(a, [-x for x in g])
        assert r2 == tuple(-x for x in r1)


def test_negation_preserves_ricci_flat(algebras):
    r = diagonal_einstein(algebras["631:6"], 0)
    for cert in r.certificates[:4]:
        neg = [-x for x in cert.metric.g]
        assert ricci_diagonal(algebras["631:6"], neg) == (0,) * 6


def test_scaling_covariance():
    rng = random.Random(8)
    for a in ALGEBRAS[:12]:
        g = [rand_frac(rng) for _ in range(a.n)]
        t = F(rng.randint(1, 7), rng.randint(1, 4))
        scaled = ricci_diagonal(a, [t * x for x in g])
        base = ricci_diagonal(a, g)
        assert scaled == tuple(x / t for x in base)


def test_scaling_preserves_signature_set(algebras):
    # the admissible-signature SET is scale invariant: rescale a certificate
    # and recheck it is still Ricci-flat with the same sign pattern
    r = diagonal_einstein(algebras["75432:3"], 0)
    for cert in r.certificates:
        for t in (F(2), F(1, 3)):
            g = [t * x for x in cert.metric.g]
            assert ricci_diagonal(algebras["75432:3"], g) == (0,) * 7
            assert tuple(1 if x < 0 else 0 for x in g) == cert.delta


def test_kernel_gauge_invariance():
    rng = random.Random(9)
    for a in ALGEBRAS[:12]:
        M, _ = root_matrix(a.diagram)
        ker = kernel_basis(M)
        if not ker:
            continue
        g = [rand_frac(rng) for _ in range(a.n)]
        base = ricci_diagonal(a, g)
        w = _int_scale(ker[rng.randrange(len(ker))])
        gauged = [x * F(2) ** e for x, e in zip(g, w)]
        assert ricci_diagonal(a, gauged) == base


def test_f2_solutions_reverified(algebras, families):
    # every delta in a signature report satisfies the mod-2 identity exactly
    for a in (algebras["631:6"], algebras["731:15"],
              families["741:6"].substitute({"lambda": 2})):
        res = diagonal_einstein(a, 0)
        _, M2 = root_matrix(a.diagram)
        by_eps = {}
        for cert in res.certificates:
            eps = tuple(1 if float(x) < 0 else 0 for x in cert.X)
            by_eps.setdefault(eps, []).append(cert.delta)
        for eps, ds in by_eps.items():
            sols = set(f2_solve_all(M2, eps))
            for d in ds:
                assert d in sols


def test_sigma_f2_identity(families):
    a = families["741:6"].substitute({"lambda": F(1, 2)})
    sigma = parse_permutation("(23)(45)", 7)
    res = sigma_einstein(a, sigma, 0)
    _, M2 = root_matrix(a.diagram)
    ct = tilde_c(a, sigma)
    shift = tuple((1 if cv < 0 else 0) ^ (1 if cw < 0 else 0)
                  for cv, cw in zip(a.c, ct))
    for cert in res.certificates:
        eps = tuple((1 if x < 0 else 0) ^ s for x, s in zip(cert.X, shift))
        assert M2.mul_vec(cert.delta) == eps
        for v in range(1, 8):
            assert cert.delta[v - 1] == cert.delta[sigma[v - 1] - 1]


def test_p_vacuity_when_transpose_kernel_trivial(algebras):
    # ker tM = 0: the pipeline never fails at P
    a = algebras["842:117"]
    M, _ = root_matrix(a.diagram)
    assert kernel_basis(M.transpose()) == []
    for k in (0, 1, F(-2), F(3, 2)):
        r = diagonal_einstein(a, k)
        assert r.failed_at != "P"


def test_certificates_pass_oracle_within_tolerance():
    rng = random.Random(10)
    sample = [a for a in ALGEBRAS if a.name in
              ("86532:6", "8531:60a", "842:121a")]
    for a in sample:
        r = diagonal_einstein(a, 1)
        assert r.success
        for cert in r.certificates:
            if cert.exact:
                assert cert.oracle_residual == 0
            else:
                assert float(abs(cert.oracle_residual)) <= 1e-9


MAGNITUDES = tuple(F(x) for x in ("1", "2", "3", "1/2", "1/3", "2/3", "3/2"))


@lru_cache(maxsize=None)
def einstein_magnitudes(i: int):
    """|g| of the first diagonal k = 0 certificate of ALGEBRAS[i], or None."""
    res = diagonal_einstein(ALGEBRAS[i], 0)
    if not res.success or not res.certificates[0].exact:
        return None
    return tuple(abs(x) for x in res.certificates[0].metric.g)


@st.composite
def sign_runs(draw):
    """(algebra, sigma or None, 2-6 metrics): one |g|, each metric with its own signs.

    sigma-invariant for sigma; the magnitudes are those of an Einstein
    certificate (diagonal, when the algebra has one) or drawn, and so
    almost never Einstein.
    """
    i = draw(st.integers(0, len(ALGEBRAS) - 1))
    a = ALGEBRAS[i]
    sigma = draw(st.sampled_from([None] + [s for s, _ in involutions(a.diagram)]))
    orbit = range(a.n) if sigma is None else [min(v, sigma[v] - 1) for v in range(a.n)]
    mags = einstein_magnitudes(i) if sigma is None and draw(st.booleans()) else None
    if mags is None:
        mags = [draw(st.sampled_from(MAGNITUDES)) for _ in range(a.n)]
    runs = draw(st.lists(st.lists(st.sampled_from((1, -1)), min_size=a.n, max_size=a.n),
                         min_size=2, max_size=6))
    return a, sigma, [[signs[o] * mags[o] for o in orbit] for signs in runs]


@given(sign_runs())
@settings(max_examples=80, deadline=None)
def test_sign_ring_form_matches_the_integer_sums(case):
    """A run of sign patterns of one |g| in one oracle batch: its sign-ring form,
    evaluated at each mask, gives the integer sums of that mask's frame, and so
    the Gram path's Ricci tensor entry by entry, with the shared zero; each
    residual at lambda = 0 is the Gram path's."""
    a, sigma, metrics = case
    B = LieBrackets.from_nice(a)
    perm = sigma or tuple(range(1, a.n + 1))
    mags = [abs(x) for x in metrics[0]]
    masks = [sum(1 << i for i, x in enumerate(g) if x < 0) for g in metrics]
    frame, numerators = _sign_batch(B, perm, mags, masks)
    grams = [diagonal_gram(g) if sigma is None else sigma_gram(g, sigma) for g in metrics]
    for mask, R, gram in zip(masks, numerators, grams):
        f = frame(mask)
        assert R == _exact_ricci(f, *_exact_connection(f))
        ric = f.quotients(R, f.d_den * f.d_den)
        assert ric == ricci_tensor(B, gram)[0]
        assert all(x is _ZERO for row in ric for x in row if not x)
    assert _einstein_residuals(B, perm, mags, masks, F(0)) == [
        einstein_residual(ricci_tensor(B, gram)[1], F(0)) for gram in grams]
