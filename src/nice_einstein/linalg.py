"""Exact linear algebra over the rationals and over GF(2).

Everything in this module is exact: matrix entries are `fractions.Fraction`
(or plain ints for GF(2), Smith-form and Fourier-Motzkin work) and no
floating point ever enters.  Sizes are tiny (at most ~15 x 12), so the
algorithms are the straightforward textbook ones with deterministic
left-to-right pivoting.  Row reduction is fraction-free: `bareiss` is the
one Gauss-Jordan loop on Python ints, with Bareiss's exact divisions.
`rref` scales each row to integers, runs it, and forms one `Fraction` per
entry at the end; the curvature oracle runs it on [G | I] for its
adjugate.  Reductions that serve many right-hand sides are prepared
once: `F2Reduction` keeps the row operations of one GF(2) reduction, and
`MultiplicativeSystem` keeps the Smith form of one multiplicative system,
whose solutions it reads off as rational exponents of a coprime base; a
caller that needs a fractional power evaluates it.
Strict sign feasibility is Fourier-Motzkin elimination from the last
variable down, kept incrementally in primitive integer rows
(`StrictSystem`), so that a search over sign patterns adds and removes one
row per branch instead of re-eliminating the whole system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul
from itertools import chain, product
from typing import Iterable, Optional, Sequence

VecQ = tuple[Fraction, ...]
VecF2 = tuple[int, ...]

#: Refuse to enumerate GF(2) solution cosets larger than this.
F2_KERNEL_CAP = 1 << 20


class EnumerationCapExceeded(Exception):
    """A requested exhaustive enumeration would exceed its configured cap."""


def vec_q(items: Iterable) -> VecQ:
    """The entries as a tuple of Fractions; Fraction entries are kept as they are."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in items)


@dataclass(frozen=True)
class MatQ:
    """Immutable rational matrix, row-major."""

    rows: int
    cols: int
    data: tuple[VecQ, ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "MatQ":
        data = tuple(vec_q(r) for r in rows)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return cls(len(data), ncols, data)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "MatQ":
        return cls(rows, cols, tuple(tuple([Fraction(0)] * cols) for _ in range(rows)))

    def transpose(self) -> "MatQ":
        data = tuple(zip(*self.data)) if self.data else ((),) * self.cols
        return MatQ(self.cols, self.rows, data)

    def mul_vec(self, v: Sequence) -> VecQ:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def to_int_rows(self) -> list[list[int]]:
        out = []
        for row in self.data:
            if any(x.denominator != 1 for x in row):
                raise ValueError("matrix is not integral")
            out.append([int(x) for x in row])
        return out


@dataclass(frozen=True)
class MatF2:
    """Immutable matrix over GF(2), entries 0/1."""

    rows: int
    cols: int
    data: tuple[VecF2, ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "MatF2":
        data = tuple(tuple(int(x) % 2 for x in r) for r in rows)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return cls(len(data), ncols, data)

    def mul_vec(self, v: Sequence[int]) -> VecF2:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a & b for a, b in zip(row, v)) % 2 for row in self.data)

    def stack(self, other: "MatF2") -> "MatF2":
        if other.cols != self.cols:
            raise ValueError("dimension mismatch")
        return MatF2(self.rows + other.rows, self.cols, self.data + other.data)


@dataclass(frozen=True)
class AffineSet:
    """Solution set of a linear system: particular + span(basis)."""

    particular: VecQ
    basis: tuple[VecQ, ...]

    @property
    def ambient_dim(self) -> int:
        return len(self.particular)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def point(self, t: Sequence) -> VecQ:
        """particular + sum_i t_i basis_i, in integers over one denominator."""
        if len(t) != self.dim:
            raise ValueError("dimension mismatch")
        ts = [Fraction(x) for x in t]
        d = lcm(*(x.denominator for x in ts))
        nums = [x.numerator * (d // x.denominator) for x in ts]
        e, consts, coeffs = self._integral
        return tuple(Fraction(c * d + sum(map(mul, row, nums)), e * d)
                     for c, row in zip(consts, coeffs))

    @cached_property
    def _integral(self) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(e, e * particular, e * coefficient row of each coordinate), all integral."""
        e = lcm(*(x.denominator for x in self.particular),
                *(x.denominator for b in self.basis for x in b))
        return (e, tuple(int(x * e) for x in self.particular),
                tuple(tuple(int(b[j] * e) for b in self.basis)
                      for j in range(self.ambient_dim)))

    def zero_coords(self) -> tuple[int, ...]:
        """Coordinates that vanish identically on the set."""
        return tuple(j for j in range(self.ambient_dim)
                     if self.particular[j] == 0 and all(b[j] == 0 for b in self.basis))


def _int_scale(v: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a rational vector."""
    d = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (d // x.denominator) for x in v]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def in_orthant(X: Sequence, eps: Sequence[int]) -> bool:
    """Whether sign(X_j) = (-1)^eps_j for every j (no zero coordinate)."""
    return all(x != 0 and (x < 0) == bool(e) for x, e in zip(X, eps))


# ---------------------------------------------------------------------------
# Rational Gaussian elimination


def bareiss(A: list[Sequence[int]]) -> tuple[int, list[Sequence[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss 1968).

    Pivots are chosen left to right, each the first nonzero entry at or
    below the current row.  Every update (p * row_i - f * row_r) divides
    exactly by the previous pivot, so all entries stay integers, and at the
    end every pivot row holds the same pivot d at its pivot column: the rows
    are d times the reduced row echelon form.  A is reduced in place.

    Returns (d, rows, pivot column indices); d = 1 when there is no pivot.
    On [A | I] for a square nonsingular A, d = +-det A and the right half
    is d * A^-1.
    """
    nrows = len(A)
    ncols = len(A[0]) if A else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if A[i][c]), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        Ar = A[r]
        d = Ar[c]
        for i in range(nrows):
            if i == r:
                continue
            Ai = A[i]
            f = Ai[c]
            if f:
                A[i] = [(d * x - f * y) // prev for x, y in zip(Ai, Ar)]
            elif d != prev:
                A[i] = [d * x // prev for x in Ai]
        prev = d
        pivots.append(c)
        r += 1
    return prev, A, pivots


def rref(M: MatQ) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; pivots chosen left to right.

    Each row is scaled to a primitive integer row and eliminated by
    `bareiss`; every entry is then divided once by the common pivot.  The
    reduced form is unique, so the result equals rational elimination's,
    entry for entry.

    Returns (reduced rows, pivot column indices).
    """
    d, A, pivots = bareiss([_int_scale(row) for row in M.data])
    return [[Fraction(x, d) for x in row] for row in A], pivots


def _kernel(R: Sequence[Sequence[Fraction]], pivots: Sequence[int], ncols: int) -> list[VecQ]:
    """Kernel basis of the first `ncols` columns of the reduced rows R."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(tuple(v))
    return basis


def kernel_basis(M: MatQ) -> list[VecQ]:
    """Basis of {v : Mv = 0}; one vector per free column, in column order."""
    return _kernel(*rref(M), M.cols)


def solve_affine(M: MatQ, b: Sequence) -> Optional[AffineSet]:
    """Full solution set of Mx = b, or None when inconsistent.

    One reduction of [M | b]: when b is not a pivot column, the first
    M.cols columns are the reduced form of M, which gives the kernel.
    """
    bq = vec_q(b)
    if len(bq) != M.rows:
        raise ValueError("dimension mismatch")
    R, pivots = rref(MatQ(M.rows, M.cols + 1,
                          tuple(tuple(row) + (x,) for row, x in zip(M.data, bq))))
    if M.cols in pivots:
        return None
    particular = [Fraction(0)] * M.cols
    for r, pc in enumerate(pivots):
        particular[pc] = R[r][M.cols]
    return AffineSet(tuple(particular), tuple(_kernel(R, pivots, M.cols)))


# ---------------------------------------------------------------------------
# GF(2)


class F2Reduction:
    """One reduction of M over GF(2), kept with its row operations.

    Reducing M to reduced row echelon form R applies row operations whose
    product T (T M = R) is recorded as one bitmask over M's rows per row of
    R.  `solve_all` answers M x = e for any right-hand side e by computing
    T e alone: the particular solution on the pivots, and consistency from
    `checks`, the rows of T past the rank.
    """

    def __init__(self, M: MatF2):
        self.rows, self.cols = M.rows, M.cols
        R = [list(row) for row in M.data]
        T = [1 << i for i in range(M.rows)]
        pivots: list[int] = []
        r = 0
        for c in range(M.cols):
            if r == M.rows:
                break
            p = next((i for i in range(r, M.rows) if R[i][c]), None)
            if p is None:
                continue
            R[r], R[p] = R[p], R[r]
            T[r], T[p] = T[p], T[r]
            for i in range(M.rows):
                if i != r and R[i][c]:
                    R[i] = [a ^ b for a, b in zip(R[i], R[r])]
                    T[i] ^= T[r]
            pivots.append(c)
            r += 1
        self.pivots = tuple(pivots)
        self.free = tuple(c for c in range(M.cols) if c not in pivots)
        # pivot row r: the free-column entries that feed x[pivots[r]]
        self._reduced = tuple(tuple(R[i][fc] for fc in self.free) for i in range(r))
        self._ops = tuple(T)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def checks(self) -> tuple[int, ...]:
        """The rows of T past the rank, each a bitmask over M's rows.

        e is in the image of M iff every check has even overlap with e.
        """
        return self._ops[self.rank:]

    def solve_all(self, e: Sequence[int], cap: int = F2_KERNEL_CAP) -> list[VecF2]:
        """All x with M x = e, sorted; empty when e is not in the image.

        Raises EnumerationCapExceeded when the kernel coset has more than
        `cap` elements.
        """
        ev = [int(x) % 2 for x in e]
        if len(ev) != self.rows:
            raise ValueError("dimension mismatch")
        emask = sum(1 << i for i, x in enumerate(ev) if x)
        if any((c & emask).bit_count() & 1 for c in self.checks):
            return []
        te = [(t & emask).bit_count() & 1 for t in self._ops[:self.rank]]
        if 1 << len(self.free) > cap:
            raise EnumerationCapExceeded(
                f"kernel has 2^{len(self.free)} elements, cap is {cap}"
            )
        sols = []
        for bits in product((0, 1), repeat=len(self.free)):
            x = [0] * self.cols
            for fc, bit in zip(self.free, bits):
                x[fc] = bit
            for pc, s, row in zip(self.pivots, te, self._reduced):
                for a, bit in zip(row, bits):
                    s ^= a & bit
                x[pc] = s
            sols.append(tuple(x))
        sols.sort()
        return sols


def f2_solve_all(M2: MatF2, e: Sequence[int], cap: int = F2_KERNEL_CAP) -> list[VecF2]:
    """All x with M2 x = e, sorted; empty when e is not in the image.

    Raises EnumerationCapExceeded when the kernel coset has more than `cap`
    elements.  Prepares one `F2Reduction`; callers with many right-hand
    sides for one matrix keep the reduction instead.
    """
    return F2Reduction(M2).solve_all(e, cap)


# ---------------------------------------------------------------------------
# Exact strict-inequality feasibility (Fourier-Motzkin)


class StrictSystem:
    """Strict inequalities coeffs.t + const > 0 over t_0..t_{n-1}, eliminated as added.

    Fourier-Motzkin elimination from the last variable down, kept
    incrementally.  Level L holds the rows over t_0..t_{n-1-L} that
    eliminating t_{n-1}, ..., t_{n-L} has produced, each as one primitive
    integer tuple (coeffs..., const) (the key of `_int_scale`), split into
    lower and upper bounds on t_{n-1-L}; rows free of t_{n-1-L} go straight
    to the next level.  `add` pushes one row down, combining it at each
    level only with the opposite bounds already present, and stops at a
    row the level already holds.  A level's rows are therefore the same set,
    up to positive scaling, that a from-scratch elimination of all the rows
    added so far would produce, whatever their order.  `mark` and `undo`
    take rows back out in the reverse order of adding them.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        # per level: (rows held, lower bounds, upper bounds)
        self._levels = [(set(), [], []) for _ in range(nvars)]
        self._log: list[tuple[int, tuple[int, ...]]] = []

    def add(self, row: Sequence[int]) -> bool:
        """Add the primitive integer row (coeffs..., const); False when infeasible.

        After False the levels are only partly updated: `undo` to a mark
        taken before the add.
        """
        return self._push(0, tuple(row))

    def _push(self, level: int, row: tuple[int, ...]) -> bool:
        while any(row[:-1]):
            rows, lowers, uppers = self._levels[level]
            c = row[-2]
            if c == 0:
                row = row[:-2] + row[-1:]
                level += 1
                continue
            if row in rows:
                return True
            rows.add(row)
            (lowers if c > 0 else uppers).append(row)
            self._log.append((level, row))
            a = abs(c)
            for o in (uppers if c > 0 else lowers):
                b = -o[-2] if c > 0 else o[-2]
                comb = [b * x + a * y for x, y in zip(row[:-2], o[:-2])]
                comb.append(b * row[-1] + a * o[-1])
                g = gcd(*comb)
                if g > 1:
                    comb = [x // g for x in comb]
                if not self._push(level + 1, tuple(comb)):
                    return False
            return True
        return row[-1] > 0

    def mark(self) -> int:
        return len(self._log)

    def undo(self, mark: int) -> None:
        """Remove every row added since `mark` was taken."""
        while len(self._log) > mark:
            level, row = self._log.pop()
            rows, lowers, uppers = self._levels[level]
            rows.remove(row)
            (lowers if row[-2] > 0 else uppers).pop()

    def witness(self) -> list[Fraction]:
        """A rational t satisfying every row added; the system must be feasible.

        Back-substitution, innermost variable first: t_k lies strictly
        between its largest lower and smallest upper bound at the level
        where it is eliminated; the midpoint, or one past the single bound,
        or 0 when t_k is unbounded both ways.  The bounds are compared in
        integers over the common denominator d of t_0..t_{k-1}.
        """
        t: list[Fraction] = []
        nums: list[int] = []   # t_i = nums[i] / d
        d = 1
        for k in range(self.nvars):
            _, lowers, uppers = self._levels[self.nvars - 1 - k]
            lo = _extreme_bound(lowers, nums, d, 1)
            hi = _extreme_bound(uppers, nums, d, -1)
            if lo is None and hi is None:
                x = Fraction(0)
            elif lo is None:
                x = hi - 1
            elif hi is None:
                x = lo + 1
            else:
                x = (lo + hi) / 2
            t.append(x)
            m = x.denominator // gcd(d, x.denominator)
            nums = [n * m for n in nums]
            d *= m
            nums.append(x.numerator * (d // x.denominator))
        return t


def _extreme_bound(rows: list[tuple[int, ...]], nums: Sequence[int], d: int,
                   side: int) -> Optional[Fraction]:
    """The largest lower (side 1) or smallest upper (side -1) bound on t_k.

    Each row (c_0, ..., c_k, const) with side * c_k > 0 bounds t_k by the
    value where it vanishes, -(const * d + sum_i c_i nums_i) / (c_k d) for
    t_i = nums_i / d; it is kept as p / (q d) with q > 0 and compared by
    cross-multiplying.  None when there are no rows.
    """
    best = None
    for row in rows:
        q = side * row[-2]
        p = -side * (row[-1] * d + sum(map(mul, row, nums)))
        if best is None or side * (p * best[1] - best[0] * q) > 0:
            best = (p, q)
    return None if best is None else Fraction(best[0], best[1] * d)


def orthant_witness(S: AffineSet, eps: Sequence[int]) -> Optional[tuple[Fraction, ...]]:
    """Parameters t with S.point(t) strictly inside the orthant eps, or None.

    One `StrictSystem` takes the strict row of each coordinate in turn,
    sign(X_j) = (-1)^eps_j as a primitive integer row over S's parameters.
    """
    system = StrictSystem(S.dim)
    for j in range(S.ambient_dim):
        s = -1 if eps[j] else 1
        if not system.add(_int_scale(tuple(s * b[j] for b in S.basis)
                                     + (s * S.particular[j],))):
            return None
    return tuple(system.witness())


def symmetric_signature(G: Sequence[Sequence]) -> tuple[int, int]:
    """Signature (p, q) of a nondegenerate symmetric rational matrix, exactly.

    Congruence (Lagrange) reduction on integers: the matrix is scaled by the
    lcm of its denominators, and each step replaces the rest by |a| times its
    Schur complement, divided by the gcd of its entries.  Every scale is
    positive, so by Sylvester's law of inertia (p, q) does not change.
    Raises ValueError on degeneracy.
    """
    A = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in G]
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("matrix not square")
    den = lcm(*(x.denominator for row in A for x in row))
    A = [[x.numerator * (den // x.denominator) for x in row] for row in A]
    if any(A[i][j] != A[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix not symmetric")
    p = q = 0
    while A:
        nn = len(A)
        d = next((i for i in range(nn) if A[i][i] != 0), None)
        if d is None:
            pair = next(
                ((i, j) for i in range(nn) for j in range(i + 1, nn) if A[i][j] != 0),
                None,
            )
            if pair is None:
                raise ValueError("matrix is degenerate")
            i, j = pair
            for c in range(nn):
                A[i][c] += A[j][c]
            for r in range(nn):
                A[r][i] += A[r][j]
            continue
        Ad = A[d]
        a = Ad[d]
        if a > 0:
            p += 1
        else:
            q += 1
        s = abs(a)
        B = []
        for r in range(nn):
            if r == d:
                continue
            Ar = A[r]
            f = Ar[d] if a > 0 else -Ar[d]
            # |a| * (A[r][c] - A[r][d] * A[d][c] / a)
            if f:
                row = [s * x - f * y for x, y in zip(Ar, Ad)]
            elif s != 1:
                row = [s * x for x in Ar]
            else:
                row = Ar
            B.append(row[:d] + row[d + 1:])
        g = gcd(*chain.from_iterable(B))
        if g > 1:
            B = [[x // g for x in row] for row in B]
        A = B
    return p, q


# ---------------------------------------------------------------------------
# Smith normal form and multiplicative solving


def smith_normal_form(
    M: Sequence[Sequence[int]], cols: int,
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """U, S, V with U*M*V = S, U and V unimodular, S in Smith form.

    M has `cols` columns; a matrix without rows has V = I of that size.
    """
    A = [[int(x) for x in row] for row in M]
    if any(len(row) != cols for row in A):
        raise ValueError(f"every row must have {cols} entries")
    nr, nc = len(A), cols
    U = [[int(i == j) for j in range(nr)] for i in range(nr)]
    V = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in (*A, *V):
            row[i] -= q * row[j]

    t = 0
    while t < min(nr, nc):
        # Pivot: the first nonzero entry of least absolute value in the block,
        # swapped to (t, t) and made positive.
        pivot = min(((abs(A[i][j]), i, j) for i in range(t, nr) for j in range(t, nc)
                     if A[i][j]), default=None)
        if pivot is None:
            break
        _, i, j = pivot
        A[t], A[i], U[t], U[i] = A[i], A[t], U[i], U[t]
        for row in (*A, *V):
            row[t], row[j] = row[j], row[t]
        if A[t][t] < 0:
            A[t], U[t] = [-a for a in A[t]], [-a for a in U[t]]
        dirty = False
        for i in range(t + 1, nr):
            if A[i][t] != 0:
                q = A[i][t] // A[t][t]
                row_op(i, t, q)
                if A[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if A[t][j] != 0:
                q = A[t][j] // A[t][t]
                col_op(j, t, q)
                if A[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Enforce divisibility: A[t][t] must divide the remaining block.
        offender = next((i for i in range(t + 1, nr)
                         if any(A[i][j] % A[t][t] for j in range(t + 1, nc))), None)
        if offender is not None:
            row_op(t, offender, -1)  # add offending row to pivot row
            continue
        t += 1
    return U, A, V


def _iroot(n: int, d: int) -> int:
    """floor(n^(1/d)) for n >= 0 and d >= 1: integer Newton steps from
    2^ceil(bits(n)/d), above the root, decrease strictly to the floor."""
    if d == 1 or n < 2:
        return n
    x = 1 << -(-n.bit_length() // d)
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def _rational_root(q: Fraction, d: int) -> Optional[Fraction]:
    """The positive rational d-th root of q > 0, or None."""
    n, m = _iroot(q.numerator, d), _iroot(q.denominator, d)
    if n ** d != q.numerator or m ** d != q.denominator:
        return None
    return Fraction(n, m)


def _coprime_base(ns: Iterable[int]) -> list[int]:
    """Pairwise coprime integers >= 2, no perfect powers, that generate each n >= 1 of ns.

    Bernstein's coprime base in its quadratic form: a pair with a common
    factor g > 1 is replaced by g, a/g and b/g until none has one; then
    each element becomes its least root, which keeps its primes.
    """
    base: list[int] = []
    todo = [n for n in ns if n > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                todo += [y for y in (g, x // g, b // g) if y > 1]
                break
        else:
            base.append(x)
    return [_least_root(b) for b in base]


def _least_root(n: int) -> int:
    """The least b with b^k = n for some k >= 1, for n >= 2."""
    for k in range(n.bit_length() - 1, 1, -1):
        b = _iroot(n, k)
        if b ** k == n:
            return b
    return n


def _valuation(n: int, b: int) -> int:
    """The exponent of b in n != 0."""
    k = 0
    while n % b == 0:
        n //= b
        k += 1
    return k


class MultiplicativeSystem:
    """prod_j g_j^(M_ij) = rhs_i over (Q*)^n, prepared once for the integer matrix M.

    M has n = `cols` columns.  Holds what does not depend on rhs: the Smith
    form U M V = D and `log_map` = V D^+ U, which takes log|rhs| to log|g|
    (kept in integers over d_r, a multiple of every d_i).  A system without
    rows solves to g = 1.
    """

    def __init__(self, M: Sequence[Sequence[int]], cols: int):
        self.M = [[int(x) for x in row] for row in M]
        self._U, S, self._V = smith_normal_form(self.M, cols)
        self._diag = [S[i][i] for i in range(min(len(S), len(self._V))) if S[i][i]]
        self._den = self._diag[-1] if self._diag else 1
        DU = [[self._den // d * u for u in row] for row, d in zip(self._U, self._diag)]
        self._map = [[sum(x * row[c] for x, row in zip(v, DU)) for c in range(len(self.M))]
                     for v in self._V]
        self.log_map = tuple(tuple(Fraction(x, self._den) for x in row) for row in self._map)

    def exponents(self, rhs: Sequence[Fraction]) -> Optional[list[tuple[int, VecQ]]]:
        """[(b, a_b)]: |g_j| = prod_b b^(a_bj) solves the system for |rhs|, or None.

        Q_{>0} is free on the coprime base of |rhs|, so the system splits
        into one linear system per base element b on the exponents e_b of b
        in |rhs|: solvable iff U e_b vanishes past the rank, by the rational
        a_b = `log_map` e_b.  None means no real solution.
        """
        rhs = [Fraction(x) for x in rhs]
        if any(x == 0 for x in rhs):
            return None
        out = []
        for b in _coprime_base(chain.from_iterable(
                (abs(x.numerator), x.denominator) for x in rhs)):
            e = [_valuation(x.numerator, b) - _valuation(x.denominator, b) for x in rhs]
            if any(sum(map(mul, row, e)) for row in self._U[len(self._diag):]):
                return None
            out.append((b, tuple(Fraction(sum(map(mul, row, e)), self._den)
                                 for row in self._map)))
        return out

    def solve(self, rhs: Sequence[Fraction]) -> Optional[VecQ]:
        """One g with prod_j g_j^(M_ij) = rhs_i for all i, or None.

        U and V are automorphisms of (Q*)^n, so with w = rhs^U and g = y^V
        the system reads y_i^(d_i) = w_i: every w_i past the rank must be 1
        and every other one needs a rational d_i-th root.  Q* = {+-1} x Q_{>0};
        the signs are solved mod 2 and the magnitudes are `exponents`, which
        must all be integers.  None means no rational solution.
        """
        rhs = [Fraction(x) for x in rhs]
        U, V, diag = self._U, self._V, self._diag
        r = len(diag)
        # Signs, mod 2: a negative w_i has a d_i-th root only for odd d_i.
        w = [sum(u for u, x in zip(row, rhs) if x < 0) & 1 for row in U]
        if any(w[r:]) or any(s and d % 2 == 0 for s, d in zip(w, diag)):
            return None
        powers = self.exponents(rhs)
        if powers is None or any(a.denominator != 1 for _, a_b in powers for a in a_b):
            return None
        g = [Fraction(-1 if sum(map(mul, v, w[:r])) & 1 else 1) for v in V]
        for b, a_b in powers:
            g = [x * Fraction(b) ** a for x, a in zip(g, a_b)]
        if any(prod((x ** e for x, e in zip(g, row)), start=Fraction(1)) != q
               for row, q in zip(self.M, rhs)):
            raise AssertionError("multiplicative solve failed recheck")
        return tuple(g)


def solve_multiplicative(
    M: Sequence[Sequence[int]], cols: int, rhs: Sequence[Fraction]
) -> Optional[VecQ]:
    """One g in (Q*)^cols with prod_j g_j^(M_ij) = rhs_i for all i, or None.

    Prepares one `MultiplicativeSystem`; callers with many right-hand sides
    for one matrix keep the system instead.
    """
    return MultiplicativeSystem(M, cols).solve(rhs)
