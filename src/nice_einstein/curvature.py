"""Brute-force curvature oracle for left-invariant metrics.

Independent of the root-matrix machinery: given raw structure constants and
an arbitrary nondegenerate symmetric Gram matrix, computes the Levi-Civita
connection through the Koszul formula, the full Riemann tensor, the Ricci
tensor/operator, curvature norms, and ad-invariance.  Both curvature
norms are one contraction: on a basis with Gram matrix h, the inverse of
the Lambda^2 Gram matrix is the Lambda^2 metric of h^-1, so only h is
inverted.

G must be symmetric (every entry point raises ValueError otherwise,
checked on its nonzero entries).  A Gram matrix is scanned once, into its nonzero
entries by row, and inverted once; from then on the oracle reads only the
nonzero entries of G and of its inverse (by columns for the connection, by
rows for the operator G^-1 Ric), and the Ricci tensor walks only nonzero
connection rows.

One arithmetic, the integers.  An int or a Fraction, Gram entry or
structure constant, is read as it is; any other value as the exact
rational of float(x) (a binary float is a dyadic rational, read by
`as_integer_ratio`), and a NaN or infinite entry raises ValueError.  G and
the constants are scaled to integers by the lcm of their denominators.
The result type follows the nonzero inputs: Fractions when every one is an
int or a Fraction, else for each entry the float nearest its exact value
(an int / int division, which rounds correctly), zeros as 0.0.

det and adjugate of G are read off when G is monomial (one nonzero
h_i = G[i][p(i)] per row, as for every diagonal and sigma-diagonal metric:
det = sign(p) * prod h_i, and the adjugate has the one entry det / h_i at
[p(i)][i]); any other G goes through `linalg.bareiss`, the fraction-free
elimination that `rref` runs, on [G | I].  Only dense G reach it, and
certificates are monomial, so the oracle's check of a certificate shares
no code with the K solve.  The connection is taken in adjoint form: G is
symmetric, so adj(G) . G = det * id turns the first Koszul term into
det * c~_ab^c, and the numerators are
D~[a][c][b] = det * c~_ab^c - A_b[c][a] - A_a[c][b] with
A_x = adj(G) . ad_x^T . G, summed over the nonzero constants, adjugate
columns and G rows.  The first Ricci sum, sum_a (D_a D_b)[a][cc], is taken
once through H[t] = sum_a D~[a][a][t].  On a monomial G the second,
sum_a (D_b D_a)[a][cc], walks the sparse connection rows; both run over
every a, and their a = b terms are equal, so they cancel exactly.  On an
eliminated G, where D~ is mostly nonzero, the second sum is
tr(D~_b D~_cc) + kappa * sum c~_{a,cc}^t D~[b][a][t], by the torsion
identity D~[a][t][cc] - D~[cc][t][a] = kappa * c~_{a,cc}^t, which holds
exactly in the integers; the trace is symmetric in (b, cc), so it is summed
once per pair b <= cc.  Each nonzero result entry is one division at the
end.

Sign patterns of one monomial metric: the certificates of one
classification share |g| and differ only in signs.  `_einstein_residuals`
takes such a batch without a Gram matrix, as (sigma, |g|) and one sign
mask per metric, and decides op = lambda id for each.  One mask runs the
integer sums.  Several run `_exact_connection` and `_exact_ricci` once on
`_Signed` scalars of the sign ring Z[s]/(s_o^2 - 1), one s_o per orbit o
of p, with G[i][p(i)] = s_o * |h_i| (`_Frame.signed`), and evaluate the
Ricci numerators at the signs of each mask.  Evaluation at a point of
{+-1}^n is a ring homomorphism to Z, and those sums use only +, -, * and
zero tests that skip zero terms, so each mask gets exactly the integers
the integer sums give.  The check compares those integers with lambda, and
divides only for a mask that fails and for float input.  Nothing is kept
between calls: the batch is the sharing, and `ricci_tensor` sums every
Gram matrix it is given.

The constants are scaled once per `LieBrackets` (`int_table`), and
`LieBrackets.from_nice` keeps its result on the frozen algebra, so repeated
calls on one algebra scale only their Gram matrices.  Every zero entry of
an exact result, of `LieBrackets.from_nice`'s constants and of an exact
`diagonal_gram` or `sigma_gram` is one shared Fraction(0), so the
mostly-zero Ricci operator of a diagonal or sigma-diagonal metric makes no
Fractions there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from operator import mul
from typing import Optional, Sequence

from .algebra import NiceLieAlgebra
from .linalg import bareiss


_ZERO = Fraction(0)     # every exact zero entry the oracle makes


class DegenerateMetricError(ValueError):
    pass


class _Signed(dict):
    """sum v * s^mask in Z[s_0, s_1, ...]/(s_i^2 - 1), as the dict {mask: v} of its nonzero terms.

    A product XORs the masks.  Ints mix in as constants (mask 0), so the
    integer oracle sums run unchanged on these scalars, and an empty dict is
    the false zero.  `at` evaluates at a sign point: a ring homomorphism to Z.
    No operation changes a value once built, so x + 0 may return x itself.
    """

    __slots__ = ()

    def __neg__(self):
        out = _Signed()
        for m, v in self.items():
            out[m] = -v
        return out

    def __add__(self, other):
        if type(other) is not _Signed:
            if not other:
                return self
            other = {0: other}
        out = _Signed(self)
        for m, v in other.items():
            v += out.get(m, 0)
            if v:
                out[m] = v
            else:
                del out[m]
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not _Signed:
            return self + -other
        out = _Signed(self)
        for m, v in other.items():
            v = out.get(m, 0) - v
            if v:
                out[m] = v
            else:
                del out[m]
        return out

    def __rsub__(self, other):
        return -self + other if other else -self

    def __mul__(self, other):
        out = _Signed()
        if type(other) is not _Signed:
            if other:
                for m, v in self.items():
                    out[m] = v * other
            return out
        a, b = (self, other) if len(self) >= len(other) else (other, self)
        if len(b) == 1:     # a monomial permutes the masks: nothing cancels
            (mb, vb), = b.items()
            for m, v in a.items():
                out[m ^ mb] = v * vb
            return out
        for mb, vb in b.items():
            for m, v in a.items():
                m ^= mb
                v = out.get(m, 0) + v * vb
                if v:
                    out[m] = v
                else:
                    del out[m]
        return out

    __rmul__ = __mul__

    def at(self, neg: int) -> int:
        """The value at s_i = -1 for the bits i of neg and s_i = 1 elsewhere."""
        return sum(-v if (m & neg).bit_count() & 1 else v for m, v in self.items())


@dataclass(frozen=True)
class LieBrackets:
    """Dense structure constants: [e_a, e_b] = sum_k c[a][b][k] e_k (0-based)."""

    n: int
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @classmethod
    def from_nice(cls, a: NiceLieAlgebra) -> "LieBrackets":
        """Dense constants of a nice algebra, with `table` read off its sparse brackets.

        The algebra is frozen, so the result is kept on it: every later call
        on the same instance returns the same object.
        """
        cached = a.__dict__.get("_lie_brackets")
        if cached is not None:
            return cached
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
        a.__dict__["_lie_brackets"] = out
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

    @cached_property
    def int_table(self) -> tuple[int, dict, bool]:
        """(M, `table` times M, rational), M the lcm of the denominators (see `_scaled`)."""
        M, scaled, rational = _scaled(list(self.table.values()))
        return M, dict(zip(self.table, map(tuple, scaled))), rational


def _scaled(rows: list) -> tuple[int, list, bool]:
    """(L, rows with every x as the int L * x, rational) for rows of (index, x) pairs.

    L is the lcm of the denominators, and rational says whether every x is
    an int or a Fraction, each read as it is.  Any other x is read as the
    exact rational of float(x); NaN or infinity raises ValueError.
    """
    values = [x for row in rows for _, x in row]
    if all(issubclass(t, (int, Fraction)) for t in set(map(type, values))):
        L = math.lcm(1, *(x.denominator for x in values))
        return L, [[(z, x.numerator * (L // x.denominator)) for z, x in row] for row in rows], True
    try:
        rows = [[(z, x.as_integer_ratio() if isinstance(x, (int, Fraction))
                  else float(x).as_integer_ratio()) for z, x in row] for row in rows]
    except (ValueError, OverflowError):
        raise ValueError("metric or structure constant is not a finite number") from None
    L = math.lcm(1, *(d for row in rows for _, (_, d) in row))
    return L, [[(z, p * (L // d)) for z, (p, d) in row] for row in rows], False


def _zero_of(x):
    """The zero entry next to x: the shared Fraction(0) for exact x, else 0 * x (its sign kept)."""
    return _ZERO if isinstance(x, (int, Fraction)) else 0 * x


def diagonal_gram(g: Sequence) -> list[list]:
    """Gram matrix of sum_i g_i e^i (x) e^i; row i's zeros are `_zero_of(g_i)`."""
    G = [[_zero_of(x)] * len(g) for x in g]
    for i, x in enumerate(g):
        G[i][i] = x
    return G


def sigma_gram(g: Sequence, sigma: Sequence[int]) -> list[list]:
    """Gram matrix of sum_i g_i e^i (x) e^{sigma(i)}; sigma 1-based images."""
    n = len(g)
    zero = _zero_of(g[0])
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


def _require_symmetric(rows: list) -> None:
    """Raises ValueError unless the matrix with these nonzero rows is its own transpose."""
    cols = [[] for _ in rows]
    for i, row in enumerate(rows):
        for z, x in row:
            cols[z].append((i, x))
    if cols != rows:
        i = next(i for i, (row, col) in enumerate(zip(rows, cols)) if row != col)
        raise ValueError(f"metric is not symmetric in row {i + 1}")


@dataclass(frozen=True)
class _Scaled:
    """Gram matrix and nonzero structure constants as integers.

    G = L * gram and c = M * constants, with L and M the lcm of their
    denominators, each input read as `_scaled` reads it.  G is kept by its
    nonzero entries only: rows[i] lists (z, G[i][z]), z ascending.
    rational says whether every nonzero input is an int or a Fraction: the
    results are Fractions then, and floats otherwise.
    """

    rows: list
    c: dict     # LieBrackets.table with scaled values
    L: int
    M: int
    rational: bool

    @classmethod
    def of(cls, brackets: LieBrackets, gram: Sequence[Sequence]) -> "_Scaled":
        """Scales the nonzero entries of G; the constants come scaled from `brackets.int_table`.

        Raises ValueError unless G is symmetric, checked on its nonzero entries.
        """
        M, c, rational = brackets.int_table
        nonzero = [[(z, x) for z, x in enumerate(row) if x is not _ZERO and x] for row in gram]
        L, rows, rational_gram = _scaled(nonzero)
        _require_symmetric(rows)
        return cls(rows, c, L, M, rational and rational_gram)

    def lowered(self) -> dict[tuple[int, int], list[tuple[int, object]]]:
        """L * M * <[e_x, e_y], e_z> in integers: (x, y) -> [(z, value), ...] nonzero."""
        rows = self.rows
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
    """One oracle call: the scaled inputs and the one adjugate of G, by its nonzero entries.

    The connection is D = D~ / d_den for the integer numerators D~ of
    `_exact_connection`; Ric = R / d_den^2 with
    R = sum D~ D~ - kappa * c . D~; and the Ricci operator is
    L * (adj . R) / op_den.  adj(G) = det * G^-1 with det = +-det(G),
    d_den = 2 M det, kappa = 2 det and op_den = det * d_den^2.  cols[d]
    lists the nonzero (c, adj[c][d]) and inv[i] the nonzero (t, adj[i][t]),
    indices ascending.  Everything is summed in integers; `quotients` makes
    the one division per entry, into the result type of `_Scaled`.

    A monomial G, with one nonzero h_i = G[i][p(i)] per row (as for every
    diagonal and sigma-diagonal metric; G is symmetric, so p is an
    involution), is read off: G^-1 has the one nonzero 1/h_i at [p(i)][i],
    so adj(G) has det / h_i there, with det = sign(p) * prod h_i and sign(p)
    = -1 per transposition.  Any other G is eliminated by `bareiss` on
    [G | I].
    """

    s: _Scaled
    cols: list
    inv: list
    monomial: bool
    det: int
    d_den: int
    op_den: int

    @classmethod
    def of(cls, brackets: LieBrackets, gram: Sequence[Sequence]) -> "_Frame":
        s = _Scaled.of(brackets, gram)
        n = len(s.rows)
        if all(len(row) == 1 for row in s.rows):    # G is symmetric, so p is an involution
            return cls.of_monomial(s)
        G = [[0] * n for _ in range(n)]     # with its zeros, for elimination
        for Gi, row in zip(G, s.rows):
            for z, x in row:
                Gi[z] = x
        det, rows, pivots = bareiss(
            [Gi + [int(i == j) for j in range(n)] for i, Gi in enumerate(G)])
        if pivots[n - 1] != n - 1:
            raise DegenerateMetricError("metric is degenerate")
        adj = [row[n:] for row in rows]
        inv = [[(t, x) for t, x in enumerate(row) if x] for row in adj]
        cols = [[(c, x) for c, x in enumerate(col) if x] for col in zip(*adj)]
        d_den = 2 * s.M * det
        return cls(s, cols, inv, False, det, d_den, det * d_den * d_den)

    @classmethod
    def of_monomial(cls, s: _Scaled) -> "_Frame":
        """The frame of a monomial G, one entry rows[i] = [(p(i), h_i)] per row, read off."""
        perm = [row[0][0] for row in s.rows]
        h = [row[0][1] for row in s.rows]
        det = (-1) ** sum(p > i for i, p in enumerate(perm)) * math.prod(h)
        inv, cols = _permuted(perm, [det // x for x in h])
        d_den = 2 * s.M * det
        return cls(s, cols, inv, True, det, d_den, det * d_den * d_den)

    def quotients(self, rows: list, den: int) -> list[list]:
        """Each x / den of the int rows: Fractions (zeros the shared one) or nearest floats."""
        if self.s.rational:
            return [[Fraction(x, den) if x else _ZERO for x in row] for row in rows]
        return [[x / den if x else 0.0 for x in row] for row in rows]

    def signed(self) -> "_Frame":
        """This monomial frame over the sign ring, with G[i][p(i)] = s_o(i) * |h_i|.

        One sign s_o per orbit o(i) = min(i, p(i)) of p, since a symmetric G
        has h_i = h_p(i).  With s_o^2 = 1, det = sign(p) * prod |h_i| * s^all,
        all the XOR of the orbit bits of every row, and the adjugate entry of
        row i is sign(p) * (prod |h| / |h_i|) * s^(all - o(i)): read off, no
        ring division.  Evaluated at the signs of h this is the frame itself.
        """
        perm = [row[0][0] for row in self.s.rows]
        bits = [1 << min(i, p) for i, p in enumerate(perm)]
        h = [abs(row[0][1]) for row in self.s.rows]
        every = 0
        for b in bits:
            every ^= b
        det = (-1) ** sum(p > i for i, p in enumerate(perm)) * math.prod(h)
        inv, cols = _permuted(perm, [_Signed({every ^ b: det // x}) for b, x in zip(bits, h)])
        rows = [[(p, _Signed({b: x}))] for p, b, x in zip(perm, bits, h)]
        return replace(self, s=replace(self.s, rows=rows), cols=cols, inv=inv,
                       det=_Signed({every: det}))


def _permuted(perm: list, entries: list) -> tuple[list, list]:
    """(inv, cols) of the monomial inverse with entries[i] at [perm[i]][i]."""
    inv = [None] * len(perm)
    for i, (p, x) in enumerate(zip(perm, entries)):
        inv[p] = [(i, x)]
    return inv, [[(p, x)] for p, x in zip(perm, entries)]


def _exact_connection(f: _Frame) -> tuple[list, list]:
    """Integer connection numerators D~, by nonzero row and as a dense int array.

    G is symmetric, so adj(G) . G = det * id, and the adjugate applied to the
    Koszul terms gives, with A_x = adj(G) . ad_x^T . G,

        D~[a][c][b] = det * c~_ab^c - A_b[c][a] - A_a[c][b].

    A_x[c][j] = sum adj[c][d] * c~_xd^k * G[k][j], over the nonzero
    constants, adjugate columns and G rows.  rows[a][c] lists the nonzero
    (b, D~[a][c][b]), b ascending.
    """
    n = len(f.s.rows)
    G, cols, c = f.s.rows, f.cols, f.s.c
    D = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (x, d), terms in c.items():
        Dx = D[x]
        for k, v in terms:
            Gk = G[k]
            for cc, p in cols[d]:
                Dxc, pv = Dx[cc], p * v
                for j, g in Gk:          # w = A_x[cc][j]: in D~[x][cc][j] and D~[j][cc][x]
                    w = pv * g
                    Dxc[j] -= w
                    D[j][cc][x] -= w
    det = f.det
    for (a, b), terms in c.items():
        Da = D[a]
        for k, v in terms:
            Da[k][b] += det * v
    rows = [[[(b, x) for b, x in enumerate(row) if x] if any(row) else () for row in Da]
            for Da in D]
    return rows, D


def levi_civita(brackets: LieBrackets, gram: Sequence[Sequence]) -> list:
    """Connection matrices D[a], with D[a][c][b] the e_c-component of nabla_{e_a} e_b."""
    f = _Frame.of(brackets, gram)
    _, D = _exact_connection(f)
    return [f.quotients(Da, f.d_den) for Da in D]


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


def _exact_ricci(f: _Frame, rows: list, D: list) -> list[list[int]]:
    """R[b][cc] = sum_t H[t] D~[b][t][cc] - sum_a sum_t D~[b][a][t] D~[a][t][cc] - kappa c . D~.

    Ric(b, cc) = sum_a (D_a D_b - D_b D_a - D_[a,b])[a][cc], where the first
    product summed over a is H . D_b with H[t] = sum_a D~[a][a][t], taken once.
    Both sums run over every a: their a = b terms are equal, so they cancel
    exactly in integers.  On a monomial G the second sum walks the sparse
    rows.  On an eliminated G, where D~ is mostly nonzero, the connection is
    torsion free, D~[a][t][cc] - D~[cc][t][a] = kappa * c~_{a,cc}^t, so the
    second sum is tr(D~_b D~_cc) + kappa * sum_{a,t} c~_{a,cc}^t D~[b][a][t];
    the trace is symmetric in (b, cc) and is summed once per pair b <= cc,
    over the dense arrays.
    """
    n = len(rows)
    H = {}
    for a, rows_a in enumerate(rows):
        for t, x in rows_a[a]:
            H[t] = H.get(t, 0) + x
    H = [(t, h) for t, h in H.items() if h]
    kappa = 2 * f.det
    lin = [[] for _ in range(n)]     # b -> (a, k, kappa * c[a][b][k])
    for (a, b), terms in f.s.c.items():
        lin[b].extend((a, k, kappa * v) for k, v in terms)
    R = []
    for rows_b, lin_b, Db in zip(rows, lin, D):
        acc = [0] * n
        for t, h in H:
            for cc, v in rows_b[t]:
                acc[cc] += h * v
        if f.monomial:
            for rows_a, ys in zip(rows, rows_b):
                for t, y in ys:
                    for cc, v in rows_a[t]:
                        acc[cc] -= y * v
        else:
            for cc, lin_cc in enumerate(lin):      # the torsion term of the trace form
                for a, t, kv in lin_cc:
                    acc[cc] -= kv * Db[a][t]
        for a, k, kv in lin_b:
            for cc, v in rows[k][a]:
                acc[cc] -= kv * v
        R.append(acc)
    if not f.monomial:
        flat = [list(chain.from_iterable(Db)) for Db in D]           # D~[b][a][t]
        flat_t = [list(chain.from_iterable(zip(*Db))) for Db in D]   # D~[cc][t][a]
        for b, (Rb, Fb) in enumerate(zip(R, flat)):
            for cc in range(b, n):
                tr = sum(map(mul, Fb, flat_t[cc]))
                Rb[cc] -= tr
                if cc != b:
                    R[cc][b] -= tr
    return R


def _operator(f: _Frame, R: list[list[int]]) -> list[list[int]]:
    """The integer numerators L * adj . R of the Ricci operator, over f.op_den."""
    n, L = len(R), f.s.L
    op = []
    for inv_i in f.inv:
        acc = [0] * n
        for t, p in inv_i:
            p *= L
            for j, x in enumerate(R[t]):
                if x:
                    acc[j] += p * x
        op.append(acc)
    return op


def ricci_tensor(brackets: LieBrackets, gram: Sequence[Sequence]) -> tuple[list, list]:
    """(Ricci tensor matrix, Ricci operator matrix).

    Ric(x, y) = trace of z -> R(z, x) y; the operator is G^{-1} Ric.  Only
    the needed components of R are formed, not the full tensor, from the
    nonzero connection entries.
    """
    f = _Frame.of(brackets, gram)
    R = _exact_ricci(f, *_exact_connection(f))
    return f.quotients(R, f.d_den * f.d_den), f.quotients(_operator(f, R), f.op_den)


def _sign_batch(brackets: LieBrackets, sigma: Sequence[int], g: Sequence,
                masks: Sequence[int]) -> tuple:
    """(frame, numerators) of the metrics sum_i +-g_i e^i (x) e^sigma(i), one per sign mask.

    The metrics are given without a Gram matrix: sigma (1-based images),
    the magnitudes g > 0, one per node, and one mask per metric, whose bit i
    makes g_i negative.  G is symmetric when sigma is an involution and g
    and every mask are sigma-invariant; otherwise this raises ValueError,
    as the Gram entry points do.  g is read as `_scaled` reads it, so the
    signs change neither L nor the result type.  frame(mask) is the
    monomial frame of one mask, and numerators yields the integer Ricci
    numerators R of each mask in turn.  One mask runs the integer sums;
    several run them once over the sign ring (`_Frame.signed`) and evaluate
    that form at each mask.
    """
    perm = [p - 1 for p in sigma]
    M, c, rational = brackets.int_table
    L, (row,), rational_g = _scaled([list(enumerate(g))])
    h = [x for _, x in row]
    if not all(x > 0 for x in h):
        raise ValueError("metric magnitudes must be positive")
    for i, p in enumerate(perm):
        if perm[p] != i or h[p] != h[i] or any((m >> i ^ m >> p) & 1 for m in masks):
            raise ValueError(f"metric is not symmetric in row {i + 1}")
    rational = rational and rational_g

    def frame(mask: int) -> _Frame:
        rows = [[(p, -x if mask >> i & 1 else x)] for i, (p, x) in enumerate(zip(perm, h))]
        return _Frame.of_monomial(_Scaled(rows, c, L, M, rational))

    if len(masks) == 1:
        f = frame(masks[0])
        return frame, [_exact_ricci(f, *_exact_connection(f))]
    n = len(h)
    f = frame(0).signed()
    form = [(i, j, x) for i, row in enumerate(_exact_ricci(f, *_exact_connection(f)))
            for j, x in enumerate(row) if x]
    orbits = sum(1 << i for i, p in enumerate(perm) if i <= p)     # the bits of `signed`

    def evaluated(mask: int) -> list[list[int]]:
        R = [[0] * n for _ in range(n)]
        neg = mask & orbits
        for i, j, x in form:
            R[i][j] = x.at(neg)
        return R
    return frame, map(evaluated, masks)


def _einstein_residuals(brackets: LieBrackets, sigma: Sequence[int], g: Sequence,
                        masks: Sequence[int], lam: Fraction) -> list:
    """max |op - lam id| of the Ricci operator of each metric of `_sign_batch`.

    op = lam id is decided on the integer numerators R: row p(t) of op is
    L (det / h_t) R[t] / (det d_den^2), so it holds exactly when every row t
    of R is 0 off column p(t) and L R[t][p(t)] lam_den = lam_num d_den^2 h_t,
    where d_den^2 = (2 M det)^2 is the same for every mask.  A mask that
    passes gets the shared zero.  The operator's quotients and the residual
    are built only for a mask that fails, and for float input, whose
    residual is the float one of `einstein_residual` at float(lam).
    """
    frame, numerators = _sign_batch(brackets, sigma, g, masks)
    f = frame(0)
    s, n = f.s, len(f.s.rows)
    scale = s.L * lam.denominator
    unit = lam.numerator * f.d_den * f.d_den
    out = []
    for mask, R in zip(masks, numerators):
        if s.rational and all(
                Rt.count(0) == n - bool(Rt[p])
                and scale * Rt[p] == (-unit * x if mask >> t & 1 else unit * x)
                for t, (Rt, ((p, x),)) in enumerate(zip(R, s.rows))):
            out.append(_ZERO)
            continue
        fm = frame(mask)
        op = fm.quotients(_operator(fm, R), fm.op_den)
        out.append(einstein_residual(op, lam if s.rational else float(lam)))
    return out


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
