import json
import math
import random
from fractions import Fraction as F
from itertools import combinations
from typing import Optional, Sequence

import pytest
import sympy

from nice_einstein import parse
from nice_einstein.cli import main
from nice_einstein.curvature import (
    _ZERO,
    DegenerateMetricError,
    LieBrackets,
    _derived_subalgebra_rows,
    _einstein_residuals,
    _Frame,
    _invert,
    _mat_mul,
    ad_invariance_check,
    diagonal_gram,
    einstein_residual,
    levi_civita,
    projected_riemann_norm,
    ricci_tensor,
    riemann_endomorphisms,
    riemann_norm,
    scalar_curvature,
    sigma_gram,
)
from nice_einstein.linalg import bareiss


def bra(algebra):
    return LieBrackets.from_nice(algebra)


def test_levi_civita_heisenberg(algebras):
    B = bra(algebras["heisenberg"])
    G = diagonal_gram([F(1)] * 3)
    D = levi_civita(B, G)
    # nabla_{e1} e2 = (1/2) e3, nabla_{e1} e3 = -(1/2) e2, nabla_{e2} e3 = (1/2) e1
    assert [D[0][c][1] for c in range(3)] == [0, 0, F(1, 2)]
    assert [D[0][c][2] for c in range(3)] == [0, F(-1, 2), 0]
    assert [D[1][c][2] for c in range(3)] == [F(1, 2), 0, 0]


def test_levi_civita_abelian_zero():
    B = bra(parse("(0,0,0)"))
    D = levi_civita(B, diagonal_gram([F(1), F(2), F(-3)]))
    assert all(D[a][c][b] == 0 for a in range(3) for b in range(3) for c in range(3))


def test_levi_civita_torsion_and_compatibility(algebras):
    a = algebras["631:6"]
    B = bra(a)
    g = [F(1), F(2), F(-1), F(3), F(-2), F(5)]
    G = diagonal_gram(g)
    D = levi_civita(B, G)
    n = a.n
    for x in range(n):
        for y in range(n):
            # torsion-free: nabla_x y - nabla_y x = [x, y]
            for c in range(n):
                assert D[x][c][y] - D[y][c][x] == B.c[x][y][c]
            # metric compatibility: <nabla_x y, z> + <y, nabla_x z> = 0
            for z in range(n):
                lhs = sum(D[x][c][y] * G[c][z] for c in range(n))
                rhs = sum(G[y][c] * D[x][c][z] for c in range(n))
                assert lhs + rhs == 0


def test_ricci_heisenberg(algebras):
    B = bra(algebras["heisenberg"])
    G = diagonal_gram([F(1)] * 3)
    _, op = ricci_tensor(B, G)
    assert [op[i][i] for i in range(3)] == [F(-1, 2), F(-1, 2), F(1, 2)]
    assert scalar_curvature(B, G) == F(-1, 2)


def test_ricci_symmetric_and_diagonal_for_nice_diagonal(algebras):
    a = algebras["75432:3"]
    B = bra(a)
    g = [F(1), F(-2), F(3), F(1, 2), F(-1), F(4), F(2)]
    ric, op = ricci_tensor(B, diagonal_gram(g))
    for i in range(7):
        for j in range(7):
            assert ric[i][j] == ric[j][i]
            if i != j:
                assert op[i][j] == 0


def test_riemann_norms_example_family(algebras):
    a = algebras["75432:3"]
    B = bra(a)
    for y in (F(1), F(2), F(-3)):
        G = diagonal_gram([F(1), F(1), F(1), y, -y, y * y, y])
        assert riemann_norm(B, G) == F(1, 2) * y + y * y + 1
        assert projected_riemann_norm(B, G) == -y * y - y + F(13, 8)
        _, op = ricci_tensor(B, G)
        assert all(op[i][j] == 0 for i in range(7) for j in range(7))


def test_riemann_norm_abelian_zero():
    B = bra(parse("(0,0,0)"))
    assert riemann_norm(B, diagonal_gram([F(1), F(-1), F(2)])) == 0


def test_bianchi_and_pair_symmetries(algebras):
    a = algebras["631:6"]
    B = bra(a)
    g = [F(1), F(1), F(-2), F(3), F(-1), F(2)]
    G = diagonal_gram(g)
    R = riemann_endomorphisms(B, G)
    n = a.n

    def R4(aa, bb, cc, dd):
        # <R(e_a, e_b) e_c, e_d>
        if aa == bb:
            return F(0)
        M = R[(aa, bb)] if aa < bb else R[(bb, aa)]
        s = 1 if aa < bb else -1
        return s * sum(M[e][cc] * G[e][dd] for e in range(n))

    for aa, bb, cc in combinations(range(n), 3):
        # first Bianchi
        for dd in range(n):
            assert (R4(aa, bb, cc, dd) + R4(bb, cc, aa, dd) + R4(cc, aa, bb, dd)) == 0
    for aa in range(n):
        for bb in range(n):
            for cc in range(n):
                for dd in range(n):
                    assert R4(aa, bb, cc, dd) == -R4(bb, aa, cc, dd)
                    assert R4(aa, bb, cc, dd) == -R4(aa, bb, dd, cc)
                    assert R4(aa, bb, cc, dd) == R4(cc, dd, aa, bb)


def test_ricci_agrees_with_orthonormal_frame(algebras):
    # orthonormalized frame computation on a +-1 diagonal metric
    a = algebras["631:6"]
    B = bra(a)
    g = [F(1), F(-1), F(1), F(-1), F(1), F(-1)]
    G = diagonal_gram(g)
    R = riemann_endomorphisms(B, G)
    n = a.n
    ric, op = ricci_tensor(B, G)
    for x in range(n):
        for y in range(n):
            s = F(0)
            for e in range(n):
                if e == x:
                    continue
                M = R[(e, x)] if e < x else R[(x, e)]
                sgn = 1 if e < x else -1
                # eps_e <R(hat e, x) y, hat e> with hat e = e_e (unit up to sign)
                val = sgn * sum(M[c][y] * G[c][e] for c in range(n))
                s += g[e] * val  # eps_e = 1/g_e = g_e for +-1 metrics
            assert s == ric[x][y]


def test_ad_invariance(algebras, families):
    B = bra(parse("(0,0,0)"))
    ok, wit = ad_invariance_check(B, diagonal_gram([F(1), F(2), F(3)]))
    assert ok and wit is None
    # any diagonal metric on a 2-step nice algebra with a nonzero bracket fails
    a = families["93:86"].substitute({"a": F(1, 8)})
    ok, wit = ad_invariance_check(bra(a), diagonal_gram([F(1)] * 9))
    assert not ok
    i, j, k = wit
    assert a.brackets().get((min(i, j), max(i, j)))  # witness comes from a bracket


def test_degenerate_metric_rejected(algebras):
    B = bra(algebras["heisenberg"])
    with pytest.raises(DegenerateMetricError):
        ricci_tensor(B, diagonal_gram([F(1), F(0), F(1)]))


def test_sigma_gram_shape():
    G = sigma_gram([F(2), F(2), F(3)], (2, 1, 3))
    assert G == [[0, F(2), 0], [F(2), 0, 0], [0, 0, F(3)]]


def test_scalar_curvature_trace_identity(algebras):
    from nice_einstein import diagonal_einstein
    a = algebras["842:117"]
    r = diagonal_einstein(a, 1)
    assert r.success
    c = r.certificates[0]
    B = bra(a)
    assert scalar_curvature(B, c.metric.gram()) == 8 * F(1, 2)


# ---------------------------------------------------------------------------
# The sparse integer oracle against dense references


def rationals(M):
    """M with every entry read as the rational it is (a float exactly, by Fraction(float))."""
    return [[F(x) for x in row] for row in M]


def rounded(x):
    """x with every entry as the nearest float, nested lists and tuples kept."""
    return type(x)(map(rounded, x)) if isinstance(x, (list, tuple)) else float(x)


def dense_levi_civita(B, gram):
    """The dense Koszul sums over every index, with G inverted by Gauss-Jordan."""
    n = B.n
    c = B.c
    G = [list(row) for row in gram]
    Ginv = _invert(G)

    def ip(x, y, z):
        return sum(c[x][y][k] * G[k][z] for k in range(n) if c[x][y][k] != 0)

    D = []
    for a in range(n):
        mat = [[None] * n for _ in range(n)]
        for b in range(n):
            rhs = [ip(a, b, d) - ip(b, d, a) + ip(d, a, b) for d in range(n)]
            for r in range(n):
                s = 0
                for x, y in zip(Ginv[r], rhs):
                    if x and y:
                        s += x * y
                mat[r][b] = s / 2 if s else s
        D.append(mat)
    return D


def dense_ricci(B, gram, D=None):
    """The dense Koszul and Ricci sums over every index, with G inverted twice.

    D, when given, is dense_levi_civita(B, gram).
    """
    n = B.n
    c = B.c
    if D is None:
        D = dense_levi_civita(B, gram)
    zero = 0 * gram[0][0]
    ric = [[zero] * n for _ in range(n)]
    for b in range(n):
        for cc in range(n):
            s = zero
            for a in range(n):
                if a == b:
                    continue
                for t in range(n):
                    if D[a][a][t] and D[b][t][cc]:
                        s += D[a][a][t] * D[b][t][cc]
                    if D[b][a][t] and D[a][t][cc]:
                        s -= D[b][a][t] * D[a][t][cc]
                for k in range(n):
                    if c[a][b][k] != 0 and D[k][a][cc]:
                        s -= c[a][b][k] * D[k][a][cc]
            ric[b][cc] = s
    Ginv = _invert([list(row) for row in gram])
    op = [[zero] * n for _ in range(n)]
    for i in range(n):
        for t in range(n):
            if Ginv[i][t]:
                for j in range(n):
                    if ric[t][j]:
                        op[i][j] += Ginv[i][t] * ric[t][j]
    return ric, op


def ldlt_gram(rng, n):
    """A dense nondegenerate rational Gram matrix L D L^T (L unit lower triangular)."""
    L = [[F(int(i == j)) if j >= i else rng.choice([F(1), F(-1), F(2), F(1, 2)])
          for j in range(n)] for i in range(n)]
    d = [rng.choice([F(1), F(-2), F(3), F(1, 3), F(-3, 2)]) for _ in range(n)]
    return [[sum((L[i][k] * d[k] * L[j][k] for k in range(min(i, j) + 1)), F(0))
             for j in range(n)] for i in range(n)]


def hyperbolic_gram(rng, n):
    """An indefinite Gram matrix P^T H P that is not monomial, with G[0][0] = 0.

    H has hyperbolic blocks [[0,1],[1,0]] (and 1 last when n is odd), and P
    is unit upper triangular, so elimination of G must swap rows.
    """
    H = diagonal_gram([F(1)] * n)
    for k in range(0, n - 1, 2):
        H[k][k] = H[k + 1][k + 1] = _ZERO
        H[k][k + 1] = H[k + 1][k] = F(1)
    while True:
        P = [[F(int(r == c)) if c <= r else rng.choice([F(0), F(0), F(1), F(-1), F(2), F(1, 2)])
              for c in range(n)] for r in range(n)]
        G = [[sum((P[k][i] * H[k][m] * P[m][j] for k in range(n) for m in range(n)), F(0))
              for j in range(n)] for i in range(n)]
        if any(sum(map(bool, row)) > 1 for row in G):
            return G


def scal_identity(B, G):
    """-1/4 sum G^{ac} G^{bd} g([e_a,e_b],[e_c,e_d]): scal of a nilpotent metric Lie algebra."""
    n = B.n
    Gm = sympy.Matrix(G)
    Gi = Gm.inv()
    total = sympy.Integer(0)
    for a in range(n):
        for b in range(n):
            u = sympy.Matrix([B.c[a][b]])
            if not any(u):
                continue
            for cc in range(n):
                for d in range(n):
                    w = Gi[a, cc] * Gi[b, d]
                    if w:
                        total += w * (u * Gm * sympy.Matrix(B.c[cc][d]))[0, 0]
    return F(str(-total / 4))


@pytest.mark.parametrize("name", ["631:6", "75432:3", "842:117"])
def test_dense_gram_ricci_symmetric_with_scalar_identity(algebras, name):
    B = bra(algebras[name])
    n = B.n
    G = ldlt_gram(random.Random(name), n)
    ric, op = ricci_tensor(B, G)
    assert all(isinstance(x, F) for row in ric + op for x in row)
    assert all(ric[i][j] == ric[j][i] for i in range(n) for j in range(i))
    assert sum(op[i][i] for i in range(n)) == scal_identity(B, G)
    assert (ric, op) == dense_ricci(B, G)


def float_rounds_exact(B, G, B_exact=None):
    """Connection and Ricci of float input: floats, each the nearest to the exact value.

    The exact value is the oracle's on the input read as rationals (G, and
    the constants of B_exact when given); zeros are 0.0, never -0.0.
    """
    got = (levi_civita(B, G), *ricci_tensor(B, G))
    E, Be = rationals(G), B_exact or B
    want = (levi_civita(Be, E), *ricci_tensor(Be, E))
    assert repr(got) == repr(rounded(want))
    assert all(type(x) is float for M in (*got[0], *got[1:]) for row in M for x in row)


def test_float_inputs_round_the_exact_oracle(algebras):
    """Float metrics, diagonal, sigma and dense, and float constants."""
    rng = random.Random(3)
    for name in ("631:6", "75432:3", "842:117", "dim10"):
        B = bra(algebras[name])
        n = B.n
        metrics = [diagonal_gram([rng.uniform(0.5, 2.0) for _ in range(n)]),
                   [[float(x) for x in row] for row in ldlt_gram(rng, n)]]
        if name == "842:117":
            g = [rng.uniform(0.5, 2.0) for _ in range(n)]
            sigma = (4, 3, 2, 1, 6, 5, 8, 7)
            metrics.append(sigma_gram([g[min(i, sigma[i] - 1)] for i in range(n)], sigma))
        for G in metrics:
            float_rounds_exact(B, G)
        # float constants, on an exact and on a float metric
        Bf = LieBrackets(n, tuple(tuple(tuple(v / 3 for v in map(float, row)) for row in plane)
                                  for plane in B.c))
        assert Bf.int_table[2] is False
        Be = LieBrackets(n, tuple(tuple(tuple(map(F, row)) for row in plane) for plane in Bf.c))
        for G in (diagonal_gram([F(1), F(-2), *[F(1, 3)] * (n - 2)]), metrics[0]):
            float_rounds_exact(Bf, G, Be)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_entry_rejected(algebras, bad):
    B = bra(algebras["631:6"])
    g = [1.0, 2.0, bad, 1.0, 1.0, 1.0]
    for oracle in (levi_civita, ricci_tensor):
        with pytest.raises(ValueError, match="^metric or structure constant is not a finite"):
            oracle(B, diagonal_gram(g))


def test_int_gram_is_exact(algebras):
    B = bra(algebras["631:6"])
    g = [1, -2, 3, 1, 5, -1]
    ric, op = ricci_tensor(B, diagonal_gram(g))
    assert all(isinstance(x, F) for row in ric + op for x in row)
    assert (ric, op) == ricci_tensor(B, diagonal_gram([F(x) for x in g]))


def frame_inverse(A):
    """(d, d * A^-1) as the oracle's frame holds it, A taken as a Gram matrix.

    The frame keeps the adjugate twice, by nonzero rows and by nonzero
    columns; both must give the same dense matrix.  d = +-det of the scaled A.
    """
    n = len(A)
    f = _Frame.of(LieBrackets(n, (((0,) * n,) * n,) * n), A)
    by_rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(f.inv):
        for t, x in row:
            by_rows[i][t] = x
    by_cols = [[0] * n for _ in range(n)]
    for d, col in enumerate(f.cols):
        for c, x in col:
            by_cols[c][d] = x
    assert by_rows == by_cols
    return f.det, by_rows


def bareiss_inverse(A):
    """(d, right half, pivots) of `bareiss` on [A | I]."""
    n = len(A)
    d, rows, pivots = bareiss([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(A)])
    return d, [list(r[n:]) for r in rows], pivots


def test_adjugate_is_det_times_inverse():
    """Bareiss on any square matrix, and the frame on a symmetric one: d * A^-1, |d| = |det A|."""
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 6)
        A = [[rng.choice([0, 0, 1, -1, 2, -3, 7]) for _ in range(n)] for _ in range(n)]
        S = [[A[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        for M, adjugate in ((A, bareiss_inverse), (S, frame_inverse)):
            try:
                inv = _invert([[F(x) for x in row] for row in M])
            except DegenerateMetricError:
                if adjugate is frame_inverse:
                    with pytest.raises(DegenerateMetricError, match="^metric is degenerate$"):
                        adjugate(M)
                else:   # singular: the n-th pivot lands in the identity half
                    assert adjugate(M)[2][n - 1] >= n
                continue
            d, X = adjugate(M)[:2]
            assert abs(d) == abs(sympy.Matrix(M).det())
            assert [[F(x, d) for x in row] for row in X] == inv


def _parity(perm):
    """0 for an even permutation of 0..n-1, 1 for an odd one."""
    return sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:]) % 2


def _involution(rng, n):
    """A random involution of 0..n-1: disjoint transpositions, each pair kept with odds 1/2."""
    perm = list(range(n))
    order = list(range(n))
    rng.shuffle(order)
    for i, j in zip(order[::2], order[1::2]):
        if rng.random() < 0.5:
            perm[i], perm[j] = j, i
    return perm


@pytest.mark.parametrize("n", range(1, 9))
def test_monomial_adjugate_matches_bareiss(n):
    """Symmetric signed involution times diagonal: read off, the same as eliminated.

    A float matrix gives the frame of the rationals it holds.
    """
    rng = random.Random(f"monomial/{n}")
    parities = set()
    for _ in range(30):
        perm = _involution(rng, n)
        A = [[0] * n for _ in range(n)]
        for i, j in enumerate(perm):
            A[i][j] = A[j][i] = rng.choice([1, -1, 2, -3, 5, 6, -12, 49])
        det = sympy.Matrix(A).det()
        d, X = frame_inverse(A)
        bd, bX, _ = bareiss_inverse(A)
        assert d == det and abs(bd) == abs(det)
        inv = _invert([[F(x) for x in row] for row in A])
        assert [[F(x, d) for x in row] for row in X] == inv
        assert [[F(x, bd) for x in row] for row in bX] == inv
        assert all(type(x) is int for row in X for x in row)
        Af = [[x * 1.1 for x in row] for row in A]
        assert frame_inverse(Af) == frame_inverse(rationals(Af))
        parities.add(_parity(perm))
    assert parities == ({0} if n == 1 else {0, 1})


def test_monomial_looking_singular_matrices_rejected(algebras):
    B = bra(algebras["heisenberg"])
    oracles = (frame_inverse, lambda A: levi_civita(B, A), lambda A: ricci_tensor(B, A))
    for G in ([[2, 0, 0], [0, 0, 0], [0, 0, -1]],       # a zero row
              [[1, 2, 0], [2, 4, 0], [0, 0, 3]]):       # a singular 2x2 block
        for gram in (G, [[F(x, 3) for x in row] for row in G],
                     [[float(x) for x in row] for row in G]):
            for oracle in oracles:
                with pytest.raises(DegenerateMetricError, match="^metric is degenerate$"):
                    oracle(gram)
    # One nonzero per row with a shared column: no symmetric matrix looks like this.
    G = [[0, 3, 0], [0, -1, 0], [1, 0, 0]]
    for oracle in oracles:
        with pytest.raises(ValueError, match="^metric is not symmetric in row 1$"):
            oracle(G)


def test_singular_dense_gram_rejected(algebras):
    B = bra(algebras["heisenberg"])
    G = [[F(1), F(2), F(0)], [F(2), F(4), F(0)], [F(0), F(0), F(1, 3)]]
    with pytest.raises(DegenerateMetricError):
        ricci_tensor(B, G)
    with pytest.raises(DegenerateMetricError):
        ricci_tensor(B, [[1, 2, 0], [2, 4, 0], [0, 0, 3]])


@pytest.mark.parametrize("argv, residuals", [
    (["8542:15a", "--param", "a2=2", "--k", "0"], ["6.835808657661922e-17"] * 16),
    (["8531:60a", "--k", "1"], ["3.219646771412954e-15"] * 2),
])
def test_float_certificate_residuals_pinned(capsys, argv, residuals):
    """Each residual is that of the exact operator of the float metric, rounded, at k / 2."""
    from nice_einstein import diagonal_einstein
    from nice_einstein.catalog import find_entry

    assert main(["einstein", *argv, "--out", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert [c["oracle_residual"] for c in rec["certificates"]] == residuals
    assert not any(c["exact"] for c in rec["certificates"])
    params = dict(a.split("=") for a in argv[2:-2:2])
    a = find_entry(argv[0]).algebra({p: F(v) for p, v in params.items()})
    k = F(argv[-1])
    certs = diagonal_einstein(a, k).certificates
    assert [str(c.oracle_residual) for c in certs] == residuals
    for c in certs:
        _, op = ricci_tensor(bra(a), rationals(c.metric.gram()))
        assert c.oracle_residual == einstein_residual(rounded(op), float(k) / 2)


def test_from_nice_table_matches_the_dense_scan():
    """The table and integer constants kept on the algebra equal a fresh dense scan's."""
    import math

    from nice_einstein.catalog import load_catalog

    for entry in load_catalog():
        fam = entry.family()
        a = fam.substitute({p: F(3, 2) for p in fam.params()})
        B = LieBrackets.from_nice(a)
        M, scaled, rational = B.int_table
        assert rational and LieBrackets.from_nice(a) is B
        fresh = LieBrackets(B.n, B.c)
        assert list(B.table.items()) == list(fresh.table.items())
        assert B.int_table == fresh.int_table
        consts = [v for terms in fresh.table.values() for _, v in terms]
        assert M == math.lcm(1, *(v.denominator for v in consts))
        assert scaled == {ab: tuple((k, int(M * v)) for k, v in terms)
                          for ab, terms in fresh.table.items()}
        assert all(type(v) is int for terms in scaled.values() for _, v in terms)


def test_from_nice_is_kept_per_algebra_instance(algebras):
    import dataclasses

    a = algebras["631:6"]
    B = LieBrackets.from_nice(a)
    assert LieBrackets.from_nice(a) is B
    b = dataclasses.replace(a, c=tuple(F(2, 3) * x for x in a.c))
    Bb = LieBrackets.from_nice(b)
    assert Bb is not B and LieBrackets.from_nice(b) is Bb
    assert Bb.c == tuple(tuple(tuple(F(2, 3) * v for v in row) for row in plane)
                         for plane in B.c)
    assert (B.int_table[0], Bb.int_table[0]) == (1, 3)
    G = diagonal_gram([F(1), F(-2), F(3), F(1, 3), F(-3, 2), F(2, 5)])
    assert ricci_tensor(Bb, G) == dense_ricci(Bb, G) != ricci_tensor(B, G)


def test_einstein_residual_matches_the_dense_formula():
    def dense(op, lam):
        res = 0 * lam
        for i, row in enumerate(op):
            for j, x in enumerate(row):
                dev = abs(x - (lam if i == j else 0 * lam))
                if dev > res:
                    res = dev
        return res

    rng = random.Random(5)
    nan = float("nan")
    for trial in range(200):
        n = rng.randint(1, 6)
        sparse = trial % 2   # mostly zero off the diagonal, as for nice metrics
        op = [[F(rng.randint(-3, 3), rng.randint(1, 3))
               if not sparse or i == j or rng.random() < 0.1 else F(0)
               for j in range(n)] for i in range(n)]
        lam = F(rng.randint(-2, 2), 2)
        flo = [[float(x) if x else rng.choice([0, 0.0, -0.0]) for x in row] for row in op]
        if trial % 4 == 3:
            flo[rng.randrange(n)][rng.randrange(n)] = nan
        cases = [(op, lam), (flo, float(lam)), (flo, -0.0), (flo, nan)]
        for args in cases:
            got, want = einstein_residual(*args), dense(*args)
            assert repr(got) == repr(want) and type(got) is type(want)


def _first_certificates():
    """(algebra, first certificate) of every successful catalog classification."""
    return [(a, res.certificates[0]) for a, _, res in _catalog_results()]


def test_certificate_ricci_matches_the_dense_sums():
    """Shared zeros change neither the value nor the type of any oracle entry."""
    certs = _first_certificates()
    assert len(certs) == 45     # the catalog's "metrics" records
    kinds = set()
    for a, cert in certs:
        m = cert.metric
        g = m.g
        sigma = getattr(m, "sigma", None)
        gram = m.gram()
        n = len(g)
        if sigma is None:
            old = [[g[i] if i == j else 0 * g[i] for j in range(n)] for i in range(n)]
        else:
            old = [[0 * g[0] for _ in range(n)] for _ in range(n)]
            for i in range(n):
                old[i][sigma[i] - 1] = g[i]
        assert repr(gram) == repr(old)
        got, want = ricci_tensor(bra(a), gram), dense_ricci(bra(a), gram)
        if cert.exact:
            assert got == want
            assert all(type(x) is F for M in got for row in M for x in row)
            assert all(x is _ZERO for row in gram for x in row if not x)
        else:
            assert repr(got) == repr(rounded(dense_ricci(bra(a), rationals(gram))))
        kinds.add((sigma is None, cert.exact))
    assert kinds == {(True, True), (True, False), (False, True)}  # no float sigma metric


def _oracle_sweep_metrics(rng, entry):
    """(algebra, Gram matrix) pairs: diagonal, sigma-diagonal and dense, exact and float,
    and an exact indefinite P^T H P with zeros on its diagonal.

    The algebra is at the parameters of the entry's first record, and at
    those of its first sigma record for the sigma metrics.
    """
    from nice_einstein import parse_permutation

    recs = entry.expected.get("diagonal", []) + entry.expected.get("sigma", [])
    a = entry.algebra({p: F(v) for p, v in (recs[0].get("param", {}) if recs else {}).items()})
    n = a.n
    exact = [F(1), F(-2), F(3), F(1, 3), F(-3, 2), F(2, 5)]
    floats = [rng.choice((1, -1)) * rng.uniform(0.5, 2.0) for _ in range(n)]
    out = [(a, diagonal_gram([rng.choice(exact) for _ in range(n)])),
           (a, diagonal_gram(floats)),
           (a, ldlt_gram(rng, n)),
           (a, [[float(x) for x in row] for row in ldlt_gram(rng, n)]),
           (a, hyperbolic_gram(rng, n))]
    sig = entry.expected.get("sigma", [])
    if sig:
        a = entry.algebra({p: F(v) for p, v in sig[0].get("param", {}).items()})
        sigma = parse_permutation(sig[0]["sigma"], n)
        for g in ([rng.choice(exact) for _ in range(n)], floats):
            out.append((a, sigma_gram([g[min(i, sigma[i] - 1)] for i in range(n)], sigma)))
    return out


def test_oracle_matches_the_dense_sums_on_every_catalog_algebra():
    """Connection and Ricci on every catalog algebra, exact and float, sparse and dense Gram."""
    from nice_einstein.catalog import load_catalog

    rng = random.Random(9)
    kinds = {True: 0, False: 0}
    sigma_entries = 0
    for entry in load_catalog():
        sigma_entries += bool(entry.expected.get("sigma"))
        for a, G in _oracle_sweep_metrics(rng, entry):
            B = bra(a)
            got, want = _oracle_and_dense(B, rationals(G))
            exact = all(type(x) is F for row in G for x in row)
            if exact:
                assert got == want
                D, ric, op = got
                assert all(type(x) is F for M in (*D, ric, op) for row in M for x in row)
            else:
                assert repr((levi_civita(B, G), *ricci_tensor(B, G))) == repr(rounded(want))
            kinds[exact] += 1
    assert sigma_entries == 17
    assert kinds == {True: 3 * 44 + 17, False: 2 * 44 + 17}


def _oracle_and_dense(B, G):
    """((levi_civita, Ric, op), the same from the dense references)."""
    D = dense_levi_civita(B, G)
    return (levi_civita(B, G), *ricci_tensor(B, G)), (D, *dense_ricci(B, G, D))


def _partially_sparse_grams(rng, n, sigma):
    """Exact Gram matrices between monomial and dense, each nondegenerate.

    A sigma-diagonal matrix with one more coupled pair G[i][j] = G[j][i],
    and a matrix of 2x2 blocks on (1,2), (3,4), ... (the last entry alone
    when n is odd).
    """
    exact = [F(1), F(-2), F(3), F(1, 3), F(-3, 2), F(2, 5)]
    out = []
    while len(out) < 2:
        g = [rng.choice(exact) for _ in range(n)]
        G = sigma_gram([g[min(i, sigma[i] - 1)] for i in range(n)], sigma)
        i, j = rng.choice([(i, j) for i, j in combinations(range(n), 2) if not G[i][j]])
        G[i][j] = G[j][i] = rng.choice(exact)
        blocks = diagonal_gram([rng.choice(exact) for _ in range(n)])
        for k in range(0, n - 1, 2):
            blocks[k][k + 1] = blocks[k + 1][k] = rng.choice(exact)
        out = []
        for M in (G, blocks):
            try:
                _invert(M)
            except DegenerateMetricError:
                continue
            out.append(M)
    return out


PARTIAL_SIGMAS = {"631:6": (1, 3, 2, 4, 6, 5), "75432:3": (2, 1, 3, 4, 5, 6, 7),
                  "842:117": (4, 3, 2, 1, 6, 5, 8, 7), "852:30@(1,2)": (1, 3, 2, 5, 4, 6, 8, 7),
                  "dim10": tuple(range(1, 11))}


@pytest.mark.parametrize("name", PARTIAL_SIGMAS)
def test_partially_sparse_gram_matches_the_dense_sums(algebras, name):
    """Between monomial and dense G: the sparse frame's connection and Ricci, exactly."""
    B = bra(algebras[name])
    rng = random.Random(f"partial/{name}")
    for G in _partially_sparse_grams(rng, B.n, PARTIAL_SIGMAS[name]):
        got, want = _oracle_and_dense(B, G)
        assert got == want
        assert all(type(x) is F for M in (*got[0], *got[1:]) for row in M for x in row)
        assert any(ric_row[j] for ric_row in got[1] for j in range(B.n))
        Gf = [[float(x) for x in row] for row in G]
        got, want = _oracle_and_dense(B, rationals(Gf))
        assert got == want
        assert repr((levi_civita(B, Gf), *ricci_tensor(B, Gf))) == repr(rounded(got))


@pytest.mark.parametrize("name", ["631:6", "842:117", "dim10"])
def test_non_symmetric_gram_rejected(algebras, name):
    """G[i][j] != G[j][i]: a ValueError from every oracle entry point, int, Fraction or float.

    The exact connection reads adj(G) . G = det * id, which needs G^T = G.
    Two shapes: a diagonal G with G[3][4] != G[4][3], and a monomial G on
    the 3-cycle 1 -> 2 -> 3 -> 1 (no symmetric matrix is monomial on a
    permutation that is not an involution).
    """
    B = bra(algebras[name])
    n = B.n
    h = [F(-2), F(3), F(-1, 3), *([F(-3, 2), F(2, 5)] * n)[:n - 3]]
    pair = diagonal_gram(h)
    pair[3][4], pair[4][3] = F(1), F(2)
    cycle = [[_ZERO] * n for _ in range(n)]
    for i, j in enumerate([1, 2, 0, *range(3, n)]):
        cycle[i][j] = h[i]
    for G, row in ((pair, 4), (cycle, 1)):
        for gram in (G, [[int(30 * x) for x in r] for r in G], [[float(x) for x in r] for r in G]):
            for oracle in (levi_civita, ricci_tensor, ad_invariance_check):
                with pytest.raises(ValueError, match=f"^metric is not symmetric in row {row}$"):
                    oracle(B, gram)


# ---------------------------------------------------------------------------
# Sign batches: the sign patterns of one monomial metric, without a Gram matrix


def _scalars_of_exact_ricci(monkeypatch):
    """Counts, by the type of det, of the frames `_exact_ricci` sums: int runs and ring compiles."""
    import collections

    import nice_einstein.curvature as curvature

    seen = collections.Counter()
    sums = curvature._exact_ricci

    def spy(f, rows, D):
        seen[type(f.det).__name__] += 1
        return sums(f, rows, D)

    monkeypatch.setattr(curvature, "_exact_ricci", spy)
    return seen


def _batches(monkeypatch):
    """The number of masks of each oracle batch the pipeline runs."""
    import nice_einstein.einstein as einstein

    sizes = []
    batch = einstein._einstein_residuals

    def spy(B, sigma, g, masks, lam):
        sizes.append(len(masks))
        return batch(B, sigma, g, masks, lam)

    monkeypatch.setattr(einstein, "_einstein_residuals", spy)
    return sizes


def _gram_residuals(B, sigma, g, masks, lam):
    """Each mask's residual on the Gram path: `ricci_tensor` on the signed sigma_gram."""
    exact = all(isinstance(x, (int, F)) for x in g)
    out = []
    for m in masks:
        _, op = ricci_tensor(B, sigma_gram([-x if m >> i & 1 else x for i, x in enumerate(g)], sigma))
        out.append(einstein_residual(op, lam if exact else float(lam)))
    return out


def test_one_ring_compile_serves_the_certificates_of_631_6(monkeypatch):
    from nice_einstein import diagonal_einstein

    a = parse("(0,0,0,e^{12},e^{13},e^{25}+e^{34})")
    seen = _scalars_of_exact_ricci(monkeypatch)
    sizes = _batches(monkeypatch)
    res = diagonal_einstein(a, 0)
    assert len(res.certificates) == 16 and sizes == [16]
    assert all(c.exact and c.oracle_residual is _ZERO for c in res.certificates)
    # one ring compile, evaluated at the 16 masks, and no integer run
    assert dict(seen) == {"_Signed": 1}


def test_abelian_certificates_share_one_ring_compile(monkeypatch):
    from nice_einstein import diagonal_einstein

    seen = _scalars_of_exact_ricci(monkeypatch)
    sizes = _batches(monkeypatch)
    res = diagonal_einstein(parse("(0,0,0,0,0,0,0,0,0,0)"), 0)
    assert len(res.certificates) == 1024 and sizes == [1024]
    assert all(c.exact and c.oracle_residual == 0 for c in res.certificates)
    assert dict(seen) == {"_Signed": 1}


def test_float_certificates_share_one_ring_compile(monkeypatch):
    """The 16 float certificates of 8542:15a at a2 = 2: one batch and one ring compile."""
    from nice_einstein import diagonal_einstein
    from nice_einstein.catalog import find_entry

    seen = _scalars_of_exact_ricci(monkeypatch)
    sizes = _batches(monkeypatch)
    res = diagonal_einstein(find_entry("8542:15a").algebra({"a2": F(2)}), 0)
    assert len(res.certificates) == 16 and not any(c.exact for c in res.certificates)
    assert sizes == [16] and dict(seen) == {"_Signed": 1}


def test_exact_and_float_calls_share_a_key(algebras):
    """g = 1/2, 3/2, ... and 0.5, 1.5, ...: the same scaled integers, each batch its own type.

    Each residual is the Gram path's, and each float one is the float
    residual of the rounded exact operator.
    """
    B = bra(algebras["631:6"])
    sigma = tuple(range(1, 7))
    g = [F(1, 2), F(3, 2), F(1, 2), F(5, 2), F(3, 2), F(7, 2)]
    floats = [float(x) for x in g]
    masks = [0, 0b000100, 0b100100, 0b111111, 0b010101]
    for lam in (F(0), F(-1, 2)):
        exact = _einstein_residuals(B, sigma, g, masks, lam)
        assert exact == _gram_residuals(B, sigma, g, masks, lam)
        assert all(type(x) is F and x for x in exact)
        got = _einstein_residuals(B, sigma, floats, masks, lam)
        assert repr(got) == repr(_gram_residuals(B, sigma, floats, masks, lam))
        for m, r in zip(masks, got):
            _, op = ricci_tensor(B, diagonal_gram([-x if m >> i & 1 else x for i, x in enumerate(g)]))
            assert repr(r) == repr(einstein_residual(rounded(op), float(lam)))


def test_sign_batch_keeps_validation_and_the_other_paths(families):
    """A sigma batch agrees mask by mask with one-mask batches and the Gram path; a
    mask or magnitude that breaks symmetry raises as the Gram path does, a float
    batch with the same integers matches, and nothing is kept on the brackets."""
    from nice_einstein import parse_permutation

    B = bra(families["741:6"].substitute({"lambda": F(1, 2)}))
    sigma = parse_permutation("(23)(45)", 7)
    g = [F(1), F(2), F(2), F(3, 2), F(3, 2), F(1, 3), F(5)]
    masks = [0, 0b1000110, 0b0011001, 0b1111111]
    lam = F(0)
    got = _einstein_residuals(B, sigma, g, masks, lam)
    assert got == _gram_residuals(B, sigma, g, masks, lam)
    assert got == [_einstein_residuals(B, sigma, g, [m], lam)[0] for m in masks]

    split = 0b0000010       # g_2 < 0 < g_3: G[1][2] != G[2][1]
    with pytest.raises(ValueError, match="^metric is not symmetric in row 2$"):
        _einstein_residuals(B, sigma, g, masks + [split], lam)
    with pytest.raises(ValueError, match="^metric is not symmetric in row 2$"):
        ricci_tensor(B, sigma_gram([-x if split >> i & 1 else x for i, x in enumerate(g)], sigma))
    skew = list(g)
    skew[2] = F(3)
    with pytest.raises(ValueError, match="^metric is not symmetric in row 2$"):
        _einstein_residuals(B, sigma, skew, masks, lam)
    with pytest.raises(ValueError, match="positive"):
        _einstein_residuals(B, sigma, [F(0)] + g[1:], masks, lam)

    floats = [float(3 * x) for x in g]      # 3 g is dyadic: the same integers, times 3
    assert repr(_einstein_residuals(B, sigma, floats, masks, lam)) == repr(
        _gram_residuals(B, sigma, floats, masks, lam))
    assert set(B.__dict__) == {"n", "c", "table", "int_table"}


def _catalog_results():
    """(algebra, k, result) of every successful catalog classification."""
    from nice_einstein import diagonal_einstein, parse_permutation, sigma_einstein
    from nice_einstein.catalog import load_catalog

    out = []
    for entry in load_catalog():
        fam = entry.family()
        for mode in ("diagonal", "sigma"):
            for rec in entry.expected.get(mode, []):
                a = fam.substitute({p: F(v) for p, v in rec.get("param", {}).items()})
                k = F(rec.get("k", "0"))
                res = (diagonal_einstein(a, k) if mode == "diagonal" else
                       sigma_einstein(a, parse_permutation(rec["sigma"], a.n), k))
                if res.success:
                    out.append((a, k, res))
    return out


def test_every_catalog_certificate_matches_the_gram_path():
    """Each certificate's oracle_residual and exact, float ones included, are those of
    `ricci_tensor` on its Gram matrix; every exact one passes with the shared zero."""
    kinds = {True: 0, False: 0}
    for a, k, res in _catalog_results():
        for c in res.certificates:
            _, op = ricci_tensor(bra(a), c.metric.gram())
            exact = all(type(x) is F for row in op for x in row)
            assert c.exact == exact
            if exact:
                assert c.oracle_residual is _ZERO == einstein_residual(op, k / 2)
            else:
                assert repr(c.oracle_residual) == repr(einstein_residual(op, float(k) / 2))
            kinds[exact] += 1
    assert kinds == {True: 574, False: 68}


@pytest.mark.parametrize("name, sigma", [("631:6", None), ("831:37", "(45)")])
def test_a_failing_mask_alone_gets_a_residual(name, sigma):
    """One batch with the masks of a classification's certificates and one more
    that is no certificate: only that mask gets a residual, the Gram path's."""
    from nice_einstein import diagonal_einstein, parse_permutation, sigma_einstein
    from nice_einstein.catalog import find_entry
    from nice_einstein.einstein import _oracle_residuals

    a = find_entry(name).algebra()
    s = parse_permutation(sigma, a.n) if sigma else None
    res = diagonal_einstein(a, 0) if s is None else sigma_einstein(a, s, 0)
    mags = tuple(abs(x) for x in res.certificates[0].metric.g)
    deltas = [c.delta for c in res.certificates if tuple(map(abs, c.metric.g)) == mags]
    # node 1 is fixed by sigma, so flipping its sign keeps a mask sigma-invariant
    bad = next(b for b in ((1 - d[0],) + d[1:] for d in deltas) if b not in deltas)
    deltas.insert(len(deltas) // 2, bad)
    got = _oracle_residuals(a, s, mags, deltas, F(0))
    want = _gram_residuals(bra(a), s or tuple(range(1, a.n + 1)), mags,
                           [sum(b << i for i, b in enumerate(d)) for d in deltas], F(0))
    assert got == want
    assert [r != 0 for r in got] == [d == bad for d in deltas]
    assert all(r is _ZERO for r in got if not r)


# ---------------------------------------------------------------------------
# The curvature norms against the Lambda^2 Gram inversion they replace.  The
# four helpers below are that code, verbatim, and the two reference norms are
# the old bodies of riemann_norm and projected_riemann_norm.


def _mat_vec(A, v):
    out = []
    for row in A:
        s = 0
        for a, x in zip(row, v):
            if a and x:
                s += a * x
        out.append(s)
    return out


def riemann_operator(R: dict, n: int, u: Sequence, v: Sequence) -> list:
    """R(u, v) for arbitrary coefficient vectors by bilinearity."""
    out = [[0 * (u[0] * v[0]) for _ in range(n)] for _ in range(n)]
    for (a, b), M in R.items():
        coef = u[a] * v[b] - u[b] * v[a]
        if coef != 0:
            for i in range(n):
                for j in range(n):
                    out[i][j] += coef * M[i][j]
    return out


def _norm_of_curvature_map(R: dict, G: list, pair_list: list, rows: Optional[list] = None):
    """g(R, R) with inputs/outputs restricted to span(rows) when given."""
    n = len(G)
    Ginv = _invert(G)
    if rows is None:
        # Inputs e_a ^ e_b for (a,b) in pair_list, outputs full space.
        def end_of(pair):
            return R[pair]

        metric = G
        metric_inv = Ginv
        dim = n
        basis_pairs = pair_list
        gram2 = [
            [
                metric[a][cdx] * metric[b][d] - metric[a][d] * metric[b][cdx]
                for (cdx, d) in basis_pairs
            ]
            for (a, b) in basis_pairs
        ]
    else:
        dim = len(rows)
        metric = [[_bilinear(G, rows[i], rows[j]) for j in range(dim)] for i in range(dim)]
        try:
            metric_inv = _invert(metric)
        except DegenerateMetricError:
            raise DegenerateMetricError("induced metric on the derived algebra is degenerate")
        basis_pairs = list(combinations(range(dim), 2))
        gram2 = [
            [
                metric[a][cdx] * metric[b][d] - metric[a][d] * metric[b][cdx]
                for (cdx, d) in basis_pairs
            ]
            for (a, b) in basis_pairs
        ]

        def end_of(pair):
            I, J = pair
            A = riemann_operator(R, n, rows[I], rows[J])
            # Project columns onto span(rows), coordinates in that basis.
            cols = []
            for j in range(dim):
                w = _mat_vec(A, rows[j])
                rhs = [_bilinear(G, rows[i], w) for i in range(dim)]
                cols.append(_mat_vec(metric_inv, rhs))
            return [[cols[j][i] for j in range(dim)] for i in range(dim)]

    if not basis_pairs:
        return 0 * G[0][0]
    gram2_inv = _invert(gram2)
    ends = [end_of(p) for p in basis_pairs]
    # <A, B>_End = sum A[i][j] B[k][l] metric[i][k] metric_inv[j][l]
    #            = sum_{k,l} (metric^T A metric_inv)[k][l] * B[k][l]
    lowered = [_mat_mul(_mat_mul(metric, A), metric_inv) for A in ends]

    def end_inner(LA, B):
        s = 0 * G[0][0]
        for k in range(dim):
            for l in range(dim):
                if B[k][l] != 0 and LA[k][l] != 0:
                    s += LA[k][l] * B[k][l]
        return s

    total = 0 * G[0][0]
    for I in range(len(basis_pairs)):
        for J in range(len(basis_pairs)):
            if gram2_inv[I][J] != 0:
                total += gram2_inv[I][J] * end_inner(lowered[I], ends[J])
    return total


def _bilinear(G, u, v):
    return sum(u[i] * G[i][j] * v[j] for i in range(len(u)) for j in range(len(v))
               if u[i] != 0 and G[i][j] != 0)


def reference_riemann_norm(brackets, gram):
    n = brackets.n
    G = [list(r) for r in gram]
    R = riemann_endomorphisms(brackets, G)
    pairs = list(combinations(range(n), 2))
    return _norm_of_curvature_map(R, G, pairs)


def reference_projected_riemann_norm(brackets, gram):
    G = [list(r) for r in gram]
    rows = _derived_subalgebra_rows(brackets)
    if not rows:
        return 0 * G[0][0]
    R = riemann_endomorphisms(brackets, G)
    return _norm_of_curvature_map(R, G, [], rows=rows)


@pytest.mark.parametrize("name, swap", [
    ("631:6", None), ("75432:3", (2, 1, 4, 3)), ("865431:9", (2, 1, 4, 3)), ("10:1", None)])
def test_curvature_norms_match_the_lambda2_inversion(name, swap):
    """Diagonal, sigma-diagonal and dense metrics: exactly the reference's values."""
    from nice_einstein import parse_permutation
    from nice_einstein.catalog import find_entry

    entry = find_entry(name)
    a = entry.algebra({})
    n = a.n
    rng = random.Random(f"norms/{name}")
    sig = entry.expected.get("sigma")
    sigma = parse_permutation(sig[0]["sigma"], n) if sig else (*swap, *range(5, n + 1))
    exact = [F(1), F(-2), F(3), F(1, 3), F(-3, 2), F(2, 5)]
    metrics = [diagonal_gram([rng.choice(exact) for _ in range(n)]) for _ in range(2)]
    g = [rng.choice(exact) for _ in range(n)]
    metrics.append(sigma_gram([g[min(i, sigma[i] - 1)] for i in range(n)], sigma))
    metrics += [ldlt_gram(rng, n) for _ in range(1 if n == 10 else 2)]
    B = bra(a)
    for G in metrics:
        for new, ref in ((riemann_norm, reference_riemann_norm),
                         (projected_riemann_norm, reference_projected_riemann_norm)):
            got, want = new(B, G), ref(B, G)
            assert got == want and type(got) is type(want) is F


def test_curvature_norms_degenerate_metric_errors(algebras):
    B = bra(algebras["631:6"])
    for norm in (riemann_norm, projected_riemann_norm):
        with pytest.raises(DegenerateMetricError, match="^metric is degenerate$"):
            norm(B, diagonal_gram([F(1), F(1), F(1), F(0), F(1), F(1)]))
    # nondegenerate, but null on span(e4, e5, e6), the derived algebra
    G = diagonal_gram([F(1)] * 6)
    G[0][0] = G[3][3] = F(0)
    G[0][3] = G[3][0] = F(1)
    assert riemann_norm(B, G) == F(29, 8)
    with pytest.raises(DegenerateMetricError,
                       match="^induced metric on the derived algebra is degenerate$"):
        projected_riemann_norm(B, G)


def test_curvature_command_dense_metric_pinned(capsys):
    rows = ["1,1,-1,1/2,0,1,-1", "1,-1,-1,-3/2,2,0,-1", "-1,-1,3/2,-1/4,0,-1/2,1/2",
            "1/2,-3/2,-1/4,11/8,-1,5/4,-3/4", "0,2,0,-1,0,-3/2,1",
            "1,0,-1/2,5/4,-3/2,11/4,-1/2", "-1,-1,1/2,-3/4,1,-1/2,3/2"]
    assert main(["curvature", "75432:3", "--metric", ";".join(rows)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["g(R,R)   = 2133483025/6291456", "g(R',R') = -7043405965/467140608"]
