"""Brute-force curvature oracle for left-invariant metrics.

Independent of the root-matrix machinery: given raw structure constants and
an arbitrary nondegenerate symmetric Gram matrix, computes the Levi-Civita
connection through the Koszul formula, the full Riemann tensor, the Ricci
tensor/operator, curvature norms, and ad-invariance.  Both curvature
norms are one contraction: on a basis with Gram matrix h, the inverse of
the Lambda^2 Gram matrix is the Lambda^2 metric of h^-1, so only h is
inverted.

The connection is driven by the lowered brackets <[x,y],z>: each one is a
term of three Koszul sums, so only the index pairs that have a term are
visited.  The Ricci tensor then walks only nonzero connection rows, and the
Gram matrix is inverted once.  The type of the input entries picks the
arithmetic, and nothing else differs:

- integer path, when every Gram entry and structure constant is a Fraction
  or an int: G and the constants are scaled to integers by the lcm of their
  denominators, det and adjugate of G come from fraction-free (Bareiss)
  elimination, or are read off when G is monomial (one nonzero per row and
  column, as for every diagonal and sigma-diagonal metric), every sum runs
  on Python ints, and each nonzero result entry is one division into a
  Fraction at the end.  Every zero entry, of a result
  and of `LieBrackets.from_nice`'s constants, is one shared Fraction(0), so
  the mostly-zero Ricci operator of a diagonal or sigma-diagonal metric
  makes no Fractions there.  All-int inputs are exact too.
- float path, otherwise: the entries are converted to floats, G is inverted
  by Gauss-Jordan elimination, and the same nonzero terms are summed in the
  same index order as the dense Koszul and Ricci formulas, so the rounding
  does not depend on the sparse traversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

from .algebra import NiceLieAlgebra


_ZERO = Fraction(0)     # every exact zero entry the oracle makes


class DegenerateMetricError(ValueError):
    pass


@dataclass(frozen=True)
class LieBrackets:
    """Dense structure constants: [e_a, e_b] = sum_k c[a][b][k] e_k (0-based)."""

    n: int
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @classmethod
    def from_nice(cls, a: NiceLieAlgebra) -> "LieBrackets":
        """Dense constants of a nice algebra, with `table` read off its sparse brackets."""
        n = a.n
        c = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
        table = {}
        for (i, j), (k, cv) in a.brackets().items():
            c[i - 1][j - 1][k - 1] = cv
            c[j - 1][i - 1][k - 1] = -cv
            if cv:
                table[(i - 1, j - 1)] = ((k - 1, cv),)
                table[(j - 1, i - 1)] = ((k - 1, -cv),)
        out = cls(n, tuple(tuple(tuple(row) for row in plane) for plane in c))
        out.__dict__["table"] = dict(sorted(table.items()))   # fills the cached property
        return out

    @cached_property
    def table(self) -> dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]:
        """The nonzero brackets: (a, b) -> ((k, c[a][b][k]), ...), pairs and k ascending."""
        out = {}
        for a, plane in enumerate(self.c):
            for b, row in enumerate(plane):
                if any(row):
                    out[(a, b)] = tuple((k, v) for k, v in enumerate(row) if v)
        return out


def diagonal_gram(g: Sequence) -> list[list]:
    """Gram matrix of sum_i g_i e^i (x) e^i; row i's zeros are 0 * g_i."""
    G = [[0 * x] * len(g) for x in g]
    for i, x in enumerate(g):
        G[i][i] = x
    return G


def sigma_gram(g: Sequence, sigma: Sequence[int]) -> list[list]:
    """Gram matrix of sum_i g_i e^i (x) e^{sigma(i)}; sigma 1-based images."""
    n = len(g)
    zero = 0 * g[0]
    G = [[zero] * n for _ in range(n)]
    for i in range(n):
        G[i][sigma[i] - 1] = g[i]
    return G


def _invert(G: Sequence[Sequence]) -> list[list]:
    n = len(G)
    A = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(G)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        if A[piv][col] == 0:
            raise DegenerateMetricError("metric is degenerate")
        A[col], A[piv] = A[piv], A[col]
        f = A[col][col]
        A[col] = [x / f for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                g = A[r][col]
                A[r] = [x - g * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def _adjugate(A: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(d, d * A^-1) for a nonsingular integer matrix A, where d = +-det A.

    A monomial A (one nonzero entry A[i][p(i)] per row and per column, as the
    Gram matrix of every diagonal and sigma-diagonal metric) is read off;
    any other A is eliminated.
    """
    perm = []
    for row in A:
        support = [j for j, x in enumerate(row) if x]
        if len(support) != 1:
            return _bareiss_adjugate(A)
        perm.append(support[0])
    if len(set(perm)) < len(A):
        return _bareiss_adjugate(A)
    return _monomial_adjugate(A, perm)


def _bareiss_adjugate(A: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(d, d * A^-1) by fraction-free Gauss-Jordan elimination (Bareiss 1968).

    Every division is exact, so all intermediate entries stay integers.
    """
    n = len(A)
    M = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k]), None)
        if piv is None:
            raise DegenerateMetricError("metric is degenerate")
        M[k], M[piv] = M[piv], M[k]
        Mk = M[k]
        p = Mk[k]
        for i in range(n):
            if i == k:
                continue
            Mi = M[i]
            f = Mi[k]
            if f:
                M[i] = [(p * x - f * y) // prev for x, y in zip(Mi, Mk)]
            elif p != prev:
                M[i] = [p * x // prev for x in Mi]
        prev = p
    return prev, [row[n:] for row in M]


def _monomial_adjugate(A: Sequence[Sequence[int]],
                       perm: list[int]) -> tuple[int, list[list[int]]]:
    """(det A, adj A) for A whose nonzero entries are exactly A[i][perm[i]].

    det A = sign(perm) * prod_i A[i][perm[i]], and adj A has the one nonzero
    adj[perm[i]][i] = det A / A[i][perm[i]] per row, an exact division.
    """
    n = len(A)
    inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:])
    det = -1 if inversions % 2 else 1
    for i, j in enumerate(perm):
        det *= A[i][j]
    adj = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        adj[j][i] = det // A[i][j]
    return det, adj


def _mat_mul(A, B):
    # zero-skipping pays off: connections on nice algebras are very sparse
    n = len(A)
    m = len(B[0])
    k = len(B)
    out = [[0 for _ in range(m)] for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        row = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    if Bt[j]:
                        row[j] += a * Bt[j]
    return out


@dataclass(frozen=True)
class _Scaled:
    """Gram matrix and nonzero structure constants in the oracle's arithmetic.

    Integer path: G = L * gram and c = M * constants, with L and M the lcm of
    their denominators.  Float path: both as floats, and L = M = 1.
    """

    exact: bool
    G: list
    c: dict     # LieBrackets.table with scaled values
    L: int
    M: int

    @classmethod
    def of(cls, brackets: LieBrackets, gram: Sequence[Sequence]) -> "_Scaled":
        table = brackets.table
        entries = [x for row in gram for x in row]
        consts = [v for terms in table.values() for _, v in terms]
        if all(issubclass(t, (int, Fraction)) for t in set(map(type, entries + consts))):
            L = math.lcm(1, *(x.denominator for x in entries if x))
            M = math.lcm(1, *(v.denominator for v in consts))
            return cls(True,
                       [[x.numerator * (L // x.denominator) if x else 0 for x in row]
                        for row in gram],
                       {ab: tuple((k, v.numerator * (M // v.denominator)) for k, v in terms)
                        for ab, terms in table.items()},
                       L, M)
        return cls(False, [[float(x) for x in row] for row in gram],
                   {ab: tuple((k, float(v)) for k, v in terms) for ab, terms in table.items()},
                   1, 1)

    def lowered(self) -> dict[tuple[int, int], list[tuple[int, object]]]:
        """<[e_x, e_y], e_z> in the scaled arithmetic: (x, y) -> [(z, value), ...] nonzero."""
        rows = [[(z, g) for z, g in enumerate(row) if g] for row in self.G]
        out = {}
        for xy, terms in self.c.items():
            acc = {}
            for k, v in terms:
                for z, g in rows[k]:
                    acc[z] = acc.get(z, 0) + v * g
            out[xy] = [(z, w) for z, w in sorted(acc.items()) if w]
        return out


@dataclass(frozen=True)
class _Frame:
    """One oracle call: the scaled inputs and the one inverse of G.

    The connection is D = (conn . K) / d_den for the lowered Koszul terms K;
    Ric = R / d_den^2 with R = sum D~ D~ - kappa * c . D~ over the connection
    numerators D~; and the Ricci operator is L * (inv . R) / op_den.

    Integer path: conn = inv = adj(G), det = +-det(G), d_den = 2 M det,
    kappa = 2 det, op_den = det * d_den^2.  Float path: conn = G^-1 / 2,
    inv = G^-1, and every other factor 1.
    """

    s: _Scaled
    conn: list
    inv: list
    d_den: int
    kappa: int
    op_den: int

    @classmethod
    def of(cls, brackets: LieBrackets, gram: Sequence[Sequence]) -> "_Frame":
        s = _Scaled.of(brackets, gram)
        if s.exact:
            det, adj = _adjugate(s.G)
            d_den = 2 * s.M * det
            return cls(s, adj, adj, d_den, 2 * det, det * d_den * d_den)
        inv = _invert(s.G)
        return cls(s, [[x / 2 for x in row] for row in inv], inv, 1, 1, 1)

    def quotient(self, num, den):
        if not self.s.exact:
            return num
        return Fraction(num, den) if num else _ZERO


def _connection(f: _Frame) -> tuple[list, list]:
    """Connection numerators D~ and their nonzero entries by row.

    D~[a][c][b] = d_den * (e_c-component of nabla_{e_a} e_b), from the Koszul
    formula for left-invariant metrics:
    2<nabla_a b, d> = <[a,b],d> - <[b,d],a> + <[d,a],b>.
    A lowered bracket <[x,y],z> = w is the first term at (a, b, d) = (x, y, z),
    the second at (z, x, y) and the third at (y, z, x), so only the pairs
    (a, b) with a term are visited.  rows[a][c] lists the nonzero
    (b, D~[a][c][b]), b ascending.
    """
    n = len(f.s.G)
    low = f.s.lowered()
    # (a, b) -> {d: (t1 - t2) + t3}, one term kind per pass: the dense
    # formula's float rounding
    koszul = {xy: dict(entries) for xy, entries in low.items()}
    for (x, y), entries in low.items():
        for z, w in entries:
            at = koszul.get((z, x))
            if at is None:
                at = koszul[(z, x)] = {}
            at[y] = at.get(y, 0) - w
    for (x, y), entries in low.items():
        for z, w in entries:
            at = koszul.get((y, z))
            if at is None:
                at = koszul[(y, z)] = {}
            at[x] = at.get(x, 0) + w
    conn_cols = [[(c, p) for c, p in enumerate(col) if p] for col in zip(*f.conn)]
    D = [[[0] * n for _ in range(n)] for _ in range(n)]
    rows = [[[] for _ in range(n)] for _ in range(n)]
    for (a, b) in sorted(koszul):
        at = koszul[(a, b)]
        col = {}
        for d in sorted(at):
            kd = at[d]
            if kd:
                for c, p in conn_cols[d]:
                    col[c] = col.get(c, 0) + p * kd
        Da, rows_a = D[a], rows[a]
        for c, v in col.items():
            Da[c][b] = v
            if v:
                rows_a[c].append((b, v))
    return D, rows


def levi_civita(brackets: LieBrackets, gram: Sequence[Sequence]) -> list:
    """Connection matrices D[a], with D[a][c][b] the e_c-component of nabla_{e_a} e_b."""
    f = _Frame.of(brackets, gram)
    D, _ = _connection(f)
    return [[[f.quotient(x, f.d_den) for x in row] for row in Da] for Da in D]


def riemann_endomorphisms(brackets: LieBrackets, gram: Sequence[Sequence]) -> dict:
    """R(e_a, e_b) as matrices, for a < b (0-based keys)."""
    n = brackets.n
    D = levi_civita(brackets, gram)
    c = brackets.c
    R = {}
    for a in range(n):
        for b in range(a + 1, n):
            AB = _mat_mul(D[a], D[b])
            BA = _mat_mul(D[b], D[a])
            M = [[AB[i][j] - BA[i][j] for j in range(n)] for i in range(n)]
            for k in range(n):
                ck = c[a][b][k]
                if ck != 0:
                    for i in range(n):
                        for j in range(n):
                            M[i][j] -= ck * D[k][i][j]
            R[(a, b)] = M
    return R


def ricci_tensor(brackets: LieBrackets, gram: Sequence[Sequence]) -> tuple[list, list]:
    """(Ricci tensor matrix, Ricci operator matrix).

    Ric(x, y) = trace of z -> R(z, x) y; the operator is G^{-1} Ric.  Only
    the needed components of R are formed, not the full tensor, from the
    nonzero connection entries.
    """
    f = _Frame.of(brackets, gram)
    n = brackets.n
    D, rows = _connection(f)
    lin = {ab: tuple((k, f.kappa * v) for k, v in terms) for ab, terms in f.s.c.items()}
    zero = 0 * f.s.G[0][0]
    R = []
    for b in range(n):
        # Ric(b, cc) = sum_a (D_a D_b - D_b D_a - D_[a,b])[a][cc]
        acc = [zero] * n
        Db, rows_b = D[b], rows[b]
        for a in range(n):
            if a == b:     # its two products cancel exactly, but not in floats
                continue
            rows_a = rows[a]
            xs, ys = rows_a[a], rows_b[a]    # the nonzero D[a][a][t] and D[b][a][t]
            if xs and ys:
                # per t the x term, then the y term: the dense sum's order
                Daa, Dba = D[a][a], Db[a]
                for t in range(n):
                    x = Daa[t]
                    if x:
                        for cc, v in rows_b[t]:
                            acc[cc] += x * v
                    y = Dba[t]
                    if y:
                        for cc, v in rows_a[t]:
                            acc[cc] -= y * v
            else:
                for t, x in xs:
                    for cc, v in rows_b[t]:
                        acc[cc] += x * v
                for t, y in ys:
                    for cc, v in rows_a[t]:
                        acc[cc] -= y * v
            for k, kv in lin.get((a, b), ()):
                for cc, v in rows[k][a]:
                    acc[cc] -= kv * v
        R.append(acc)
    op = _mat_mul(f.inv, R)
    if not f.s.exact:
        return R, op
    ric_den, L, op_den = f.d_den * f.d_den, f.s.L, f.op_den
    return ([[Fraction(x, ric_den) if x else _ZERO for x in row] for row in R],
            [[Fraction(L * x, op_den) if x else _ZERO for x in row] for row in op])


def einstein_residual(op: Sequence[Sequence], lam):
    """max |op[i][j] - lam * delta_ij| over all entries, starting from 0 * lam."""
    res = 0 * lam
    for i, row in enumerate(op):
        for j, x in enumerate(row):
            if i == j:
                dev = abs(x - lam)
            elif x:
                dev = abs(x)
            else:   # |0.0|, |-0.0| and 0 never exceed res
                continue
            if dev > res:
                res = dev
    return res


def scalar_curvature(brackets: LieBrackets, gram: Sequence[Sequence]):
    _, op = ricci_tensor(brackets, gram)
    return sum(op[i][i] for i in range(brackets.n))


def _derived_subalgebra_rows(brackets: LieBrackets) -> list[list[Fraction]]:
    """Deterministic basis (rref) of the span of all bracket images."""
    from .linalg import MatQ, rref

    vecs = []
    n = brackets.n
    for a in range(n):
        for b in range(a + 1, n):
            v = list(brackets.c[a][b])
            if any(v):
                vecs.append(v)
    if not vecs:
        return []
    R, pivots = rref(MatQ.from_rows(vecs))
    return [R[r] for r in range(len(pivots))]


def _curvature_norm(ends: dict, h: list, hinv: list):
    """g(R, R) of a curvature map given on a basis b whose Gram matrix is h.

    ends maps each pair (I, J), I < J, to the matrix of R(b_I, b_J) in the
    basis b.  The Gram matrix of Lambda^2 in the basis b_I ^ b_J has the
    Lambda^2 metric of h^-1 as its inverse (Cauchy-Binet), so
    g(R, R) = sum w_{IJ,KL} <R(b_I, b_J), R(b_K, b_L)>_End with the weights
    w_{IJ,KL} = h^{IK} h^{JL} - h^{IL} h^{JK} read off hinv = h^-1.
    """
    zero = 0 * h[0][0]
    total = zero
    for (I, J), A in ends.items():
        # <A, B>_End = tr(h A h^-1 B^T) = sum_{k,l} (h A h^-1)[k][l] * B[k][l]
        LA = _mat_mul(_mat_mul(h, A), hinv)
        for (K, L), B in ends.items():
            w = hinv[I][K] * hinv[J][L] - hinv[I][L] * hinv[J][K]
            if w:
                s = zero
                for la, b in zip(LA, B):
                    for x, y in zip(la, b):
                        if x and y:
                            s += x * y
                total += w * s
    return total


def riemann_norm(brackets: LieBrackets, gram: Sequence[Sequence]):
    """Full contraction g(R, R) of the curvature map Lambda^2 g -> End g."""
    G = [list(r) for r in gram]
    ends = riemann_endomorphisms(brackets, G)    # a degenerate G raises here first
    return _curvature_norm(ends, G, _invert(G))


def projected_riemann_norm(brackets: LieBrackets, gram: Sequence[Sequence]):
    """g(R', R') for the restriction of R to the derived algebra."""
    G = [list(r) for r in gram]
    b = _derived_subalgebra_rows(brackets)
    if not b:
        return 0 * G[0][0]
    R = riemann_endomorphisms(brackets, G)     # a degenerate G raises here first
    n = brackets.n
    bG = _mat_mul(b, G)
    bT = [list(col) for col in zip(*b)]
    h = _mat_mul(bG, bT)
    try:
        hinv = _invert(h)
    except DegenerateMetricError:
        raise DegenerateMetricError(
            "induced metric on the derived algebra is degenerate") from None
    ends = {}
    for I, J in combinations(range(len(b)), 2):
        u, v = b[I], b[J]
        A = [[0] * n for _ in range(n)]      # R(b_I, b_J) by bilinearity
        for (x, y), M in R.items():
            coef = u[x] * v[y] - u[y] * v[x]
            if coef:
                for Ai, Mi in zip(A, M):
                    for j, m in enumerate(Mi):
                        if m:
                            Ai[j] += coef * m
        # its projection onto span(b): h^-1 (g(b_i, R(b_I, b_J) b_j))
        ends[(I, J)] = _mat_mul(hinv, _mat_mul(_mat_mul(bG, A), bT))
    return _curvature_norm(ends, h, hinv)


def ad_invariance_check(
    brackets: LieBrackets, gram: Sequence[Sequence]
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Whether <[x,y],z> + <y,[x,z]> = 0 on all basis triples; witness on failure.

    Only triples with a nonzero term can fail; the witness is the first in
    lexicographic order.
    """
    low = {xy: dict(entries) for xy, entries in _Scaled.of(brackets, gram).lowered().items()}
    triples = set()
    for (x, y), entries in low.items():
        for z in entries:
            triples.add((x, y, z))
            triples.add((x, z, y))
    for x, y, z in sorted(triples):
        if low.get((x, y), {}).get(z, 0) + low.get((x, z), {}).get(y, 0) != 0:
            return False, (x + 1, y + 1, z + 1)
    return True, None
