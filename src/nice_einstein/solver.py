"""Orthant enumeration and the nonlinear kernel-exponent condition.

Internal machinery for the Einstein pipeline.  The sign-feasibility layer
and everything it reports is exact.  The polynomial condition is exact too:
one lex Groebner basis of the system with cleared denominators and a
Rabinowitsch variable decides it.  The basis comes from a Buchberger of its
own on primitive integer polynomials with packed monomials (`_buchberger`)
and is read as monic elements of sympy's sparse ring over QQ; its real
points are listed exactly, through the radical when no linear form puts
the basis in shape position.  The rational ones come from the eliminant's
integer coefficients by p-adic lifting (`_rational_roots`), with no
factoring; what is left is factored, and its real roots isolated in the
univariate ring QQ[v] (sympy), only when it has a real root.  When the set
is a cone and every exponent row sums to 0 (the k = 0 systems), the system
is scale invariant and is solved on the gauge slice X_pin = 1 instead: it
is invariant under X -> -X too, so an orthant with X_pin < 0 is decided as
its antipode on that slice.  The
same basis, with the family parameter as one more variable, gives the
candidate parameter values (`parameter_roots`).  One memo per search holds
each cone's slice, cut once, and each basis, built once.

The mod-2 sign condition L prunes the orthant search instead of filtering
its output: `feasible_orthants` takes L as parity constraints on the sign
pattern and returns only the orthants that satisfy them, so its cap counts
those.  This loses no verdict.  At a leaf of the pipeline no coordinate
vanishes identically (H is blocked first), and a nonempty affine set over Q
is not a finite union of proper affine subspaces, so some orthant is
feasible.  Hence an empty pruned list means exactly that every feasible
orthant fails L, and a non-empty one gives every orthant in it a P
decision, after which the result is a success or a failure at P whatever
L blocked elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from math import gcd, isqrt, lcm, prod
from operator import or_
from typing import Optional, Sequence

from .linalg import (
    AffineSet,
    EnumerationCapExceeded,
    StrictSystem,
    VecQ,
    _int_scale,
    in_orthant,
    orthant_witness,
)

ORTHANT_CAP = 1 << 20
CUT_LIMIT = 64
PRIME_BOUND = 1 << 12


# ---------------------------------------------------------------------------
# Coordinate functionals and their proportionality classes


@dataclass(frozen=True)
class FunctionalClasses:
    """Coordinates of an affine set grouped by proportional functionals.

    Coordinate j carries X_j(t) = const_j + coeffs_j . t; two coordinates are
    in one class when their functionals are proportional, with `orient` the
    sign and `scale` the positive ratio against the class representative.
    """

    consts: tuple[Fraction, ...]
    coeffs: tuple[VecQ, ...]
    class_of: tuple[int, ...]
    orient: tuple[int, ...]
    scale: tuple[Fraction, ...]
    rep_is_constant: tuple[bool, ...]
    zero_coords: tuple[int, ...]


def classify_functionals(S: AffineSet) -> FunctionalClasses:
    m = S.ambient_dim
    consts = list(S.particular)
    coeffs = [tuple(b[j] for b in S.basis) for j in range(m)]
    reps: list[tuple] = []
    class_of = [0] * m
    orient = [1] * m
    scale = [Fraction(1)] * m
    rep_is_constant: list[bool] = []
    zero = []
    for j in range(m):
        vec = (consts[j],) + tuple(coeffs[j])
        nz = next((x for x in vec if x != 0), None)
        if nz is None:
            zero.append(j)
            class_of[j] = -1
            continue
        sgn = 1 if nz > 0 else -1
        # Representative has first nonzero entry +1: vec = orient*scale*rep.
        norm = tuple(x / nz for x in vec)
        key = norm
        if key in reps:
            idx = reps.index(key)
        else:
            reps.append(key)
            idx = len(reps) - 1
            rep_is_constant.append(all(x == 0 for x in norm[1:]))
        class_of[j] = idx
        orient[j] = sgn
        scale[j] = abs(nz)
    return FunctionalClasses(
        tuple(consts), tuple(coeffs), tuple(class_of), tuple(orient),
        tuple(scale), tuple(rep_is_constant), tuple(zero),
    )


@dataclass(frozen=True)
class Orthant:
    eps: tuple[int, ...]
    witness_t: tuple[Fraction, ...]
    witness_X: VecQ


def feasible_orthants(S: AffineSet, cap: int = ORTHANT_CAP,
                      parity: Sequence[tuple[int, int]] = (),
                      classes: Optional[FunctionalClasses] = None) -> list[Orthant]:
    """All sign patterns eps realized by points of S with no zero coordinate
    that satisfy every parity constraint.

    A constraint (mask, bit) asks popcount(mask & eps) = bit mod 2, bit j of
    mask standing for coordinate j.  Exact: branches over proportionality
    classes of coordinate functionals, pushing each class representative's
    signed row into one incremental Fourier-Motzkin `StrictSystem` and
    pruning where it becomes infeasible; a leaf's witness is that system's.
    A constraint is rewritten over the representatives' sign bits
    (eps_j = [orient_j < 0] xor [rep sign < 0]) and checked at its last
    representative, before that branch's row is pushed, so a kept path adds
    the same rows in the same order as without constraints and has the same
    witness.  A constraint on no representative that fails empties the
    result.  Coordinates identically zero make the result empty (no strict
    sign pattern exists).  Raises EnumerationCapExceeded when more than
    `cap` orthants are returned.  `classes`, when the caller has it, is
    `classify_functionals(S)`.
    """
    fc = classify_functionals(S) if classes is None else classes
    if fc.zero_coords:
        return []
    nreps = 1 + max(fc.class_of, default=-1)
    # Rep r as a primitive integer row (coeffs..., const) over t.
    rep_rows: list[tuple[int, ...]] = [()] * nreps
    for j in range(S.ambient_dim):
        o = fc.orient[j]
        rep_rows[fc.class_of[j]] = _int_scale(
            tuple(o * c for c in fc.coeffs[j]) + (o * fc.consts[j],))
    # checks[r]: (mask over reps, bit) of the constraints whose last rep is r
    checks: list[list[tuple[int, int]]] = [[] for _ in range(nreps)]
    for mask, bit in parity:
        rmask = 0
        for j in range(S.ambient_dim):
            if mask >> j & 1:
                rmask ^= 1 << fc.class_of[j]
                bit ^= fc.orient[j] < 0
        if rmask:
            checks[rmask.bit_length() - 1].append((rmask, bit))
        elif bit:
            return []
    system = StrictSystem(S.dim)
    out: list[Orthant] = []

    def extend(r: int, neg: int) -> None:  # bit i of neg: rep i is negative
        if r == nreps:
            t = tuple(system.witness())
            X = S.point(t)
            if not all(x != 0 and (x < 0) == ((fc.orient[j] < 0) ^ (neg >> fc.class_of[j] & 1))
                       for j, x in enumerate(X)):
                raise RuntimeError("an orthant witness failed its sign recheck")
            out.append(Orthant(tuple(1 if x < 0 else 0 for x in X), t, X))
            if len(out) > cap:
                raise EnumerationCapExceeded(f"more than {cap} feasible orthants")
            return
        for s, branch in ((1, neg), (-1, neg | 1 << r)):
            if any((rmask & branch).bit_count() & 1 != bit for rmask, bit in checks[r]):
                continue
            mark = system.mark()
            if system.add(tuple(s * x for x in rep_rows[r])):
                extend(r + 1, branch)
            system.undo(mark)

    extend(0, 0)
    out.sort(key=lambda o: o.eps)
    return out


# ---------------------------------------------------------------------------
# The exponent condition on one orthant


@dataclass
class PDecision:
    """Outcome of the kernel-exponent condition on one orthant."""

    solvable: bool
    exact: bool                    # the (un)solvability claim is exact
    root_X: Optional[tuple] = None     # a solution point (VecQ or floats)
    root_is_rational: bool = False
    note: str = ""


def abs_monomial(X: Sequence, a: Sequence[int]) -> Fraction:
    """prod_j |X_j|^a_j, exactly."""
    val = Fraction(1)
    for x, aj in zip(X, a):
        if aj:
            val *= abs(Fraction(x)) ** aj
    return val


def decide_condition_p(
    S: AffineSet,
    eps: Sequence[int],
    witness_t: Sequence[Fraction],
    exponents: Sequence[Sequence[int]],
    rhs: Sequence[Fraction],
    memo: Optional[dict] = None,
) -> PDecision:
    """Does some X in S with sign pattern eps satisfy |X|^a_i = rhs_i for all i?

    `exponents` are integer vectors a_i, `rhs` positive rationals.  Decided
    by one lex Groebner basis of the cleared system (`_p_basis`) on S, or on
    its gauge slice (`_p_leaf`) when S is a cone and every exponent row sums
    to 0; the basis's real points are listed exactly.  On the slice, an
    orthant with X_pin < 0 is decided as its complement and the point
    negated; the slice's points of that orthant are walked from the end, so
    the point is the one the -1 slice would list first.  A rational root of
    a gauged system, the witness included when there are no exponents, is
    scaled to |X_0| = 1.  Only a positive-dimensional variety on which no
    hyperplane cut through the witness finds a point gives a numeric-grade
    negative (`exact=False`).  `memo` (a dict) is shared by the orthants of
    one search: it holds each cone's gauge slice (`_p_leaf`) and each basis
    with its real points (`_leaf_basis`).
    """
    if not exponents:
        X = S.point(witness_t)
        if _gauged(S, exponents):
            X = tuple(x / abs(X[0]) for x in X)
        return PDecision(True, True, root_X=tuple(X), root_is_rational=True,
                         note="vacuous")
    memo = {} if memo is None else memo
    work_S, flip, signs = _p_leaf(S, eps, exponents, memo)
    if flip:
        eps = tuple(1 - e for e in eps)
    basis = _leaf_basis(memo, work_S, signs, exponents, rhs)
    G, points = basis.G, basis.points
    want = tuple(-1 if e else 1 for e in eps)
    if G == [1]:
        return PDecision(False, True, note="Groebner basis {1}")
    note = ""
    if points is None:
        wt = tuple(witness_t) if work_S is S else orthant_witness(work_S, eps)
        if wt is None:
            raise RuntimeError("the gauge slice misses its orthant")
        points = _cut_points(G, work_S, want, wt)
        if not points:
            return PDecision(False, False, note=(
                "positive-dimensional variety: no real point found on "
                "hyperplane cuts through the witness"))
        note = "hyperplane cut"
    inside = [pt for pt in points if pt.signs == want]
    if not inside:
        return PDecision(False, True, note="no real point in orthant")
    if flip:    # the -1 slice lists its points in the opposite order
        inside.reverse()
    pt = next((pt for pt in inside if pt.rational), inside[0])
    if pt.rational and (not in_orthant(pt.X, eps) or any(
            abs_monomial(pt.X, a_row) != r for a_row, r in zip(exponents, rhs))):
        raise RuntimeError("an exact point of the P system failed its recheck")
    return PDecision(True, True, root_X=tuple(-x for x in pt.X) if flip else pt.X,
                     root_is_rational=pt.rational,
                     note=note if pt.rational else "irrational root")


def parameter_roots(S: AffineSet, orthants: Sequence[Orthant],
                    exponents: Sequence[Sequence[int]], c: tuple,
                    lo: Optional[Fraction], hi: Optional[Fraction],
                    memo: dict) -> list[Fraction]:
    """Candidate values in (lo, hi) of the family parameter u on the orthants of S.

    The P system's right-hand sides are prod_j c_j(u)^(2 a_ij), one
    (const, slope) pair of `c` per coordinate (`_p_basis`); the candidates
    are the rational roots of each leaf basis's eliminant in u.  Orthants
    with one leaf share its basis, and `memo` shares bases across calls.
    """
    roots: set[Fraction] = set()
    leaves = {(work_S, signs) for work_S, _, signs in
              (_p_leaf(S, o.eps, exponents, memo) for o in orthants)}
    for leaf in leaves:
        roots.update(_eliminant_roots(_leaf_basis(memo, *leaf, exponents, c=c).G, lo, hi))
    return sorted(roots)


def _gauged(S: AffineSet, exponents: Sequence[Sequence[int]]) -> bool:
    """S is a cone and the system scale invariant, so X_pin may be pinned to +-1."""
    return bool(S.basis) and not any(S.particular) and all(
        sum(a_row) == 0 for a_row in exponents)


def _p_leaf(S: AffineSet, eps: Sequence[int], exponents: Sequence[Sequence[int]],
            memo: dict) -> tuple[AffineSet, bool, tuple[int, ...]]:
    """(S or its +1 gauge slice, flip, signs prod_j sign(X_j)^a_ij) at the orthant eps.

    The slice is taken when `_gauged`, and `memo` keeps it per cone S, cut
    once.  flip says that eps has X_pin < 0: the system is then invariant
    under X -> -X (every row sum is 0), so eps is decided as its complement
    on the +1 slice and the point negated; the row sums are even, so the
    complement has the same signs.  Orthants with equal (set, signs) share
    one basis.
    """
    flip = False
    if _gauged(S, exponents):
        if S not in memo:
            memo[S] = gauge_slice(S)
        pin, S = memo[S]
        flip = bool(eps[pin])
    return S, flip, tuple(-1 if sum(aj for aj, e in zip(a_row, eps) if e) % 2 else 1
                          for a_row in exponents)


def gauge_slice(S: AffineSet) -> tuple[int, AffineSet]:
    """Remove the scale gauge of the cone S: (pin, its cut by X_pin = 1).

    X_pin is the first non-constant coordinate; every solution ray of a
    scale-invariant system meets X_pin = +-1 once.
    """
    pin = next(j for j in range(S.ambient_dim) if any(b[j] for b in S.basis))
    coeffs = [b[pin] for b in S.basis]
    pivot = next(i for i, c in enumerate(coeffs) if c != 0)
    # t_pivot = (1 - sum_{i != pivot} coeffs_i t_i) / coeffs_pivot
    cp = coeffs[pivot]
    bp = S.basis[pivot]
    particular = tuple(y / cp for y in bp)
    basis = tuple(tuple(x - (coeffs[i] / cp) * y for x, y in zip(b, bp))
                  for i, b in enumerate(S.basis) if i != pivot)
    return pin, AffineSet(particular, basis)


# ---------------------------------------------------------------------------
# The cleared P system and its lex Groebner basis, read in sympy's sparse ring


def _ring(names: Sequence[str]):
    """sympy's sparse polynomial ring QQ[names] in lex order, one per name tuple."""
    return _ring_of(tuple(names))


@cache
def _ring_of(names: tuple[str, ...]):
    from sympy.polys.domains import QQ
    from sympy.polys.orderings import lex
    from sympy.polys.rings import ring

    return ring(list(names), QQ, lex)[0]


def _qq(x):  # a Fraction or int into QQ, by numerator and denominator
    from sympy.polys.domains import QQ

    x = Fraction(x)
    return QQ(x.numerator, x.denominator)


def _frac(r) -> Fraction:  # from QQ
    return Fraction(int(r.numerator), int(r.denominator))


def _groebner(polys: list) -> list:
    """Reduced lex Groebner basis of the nonzero `polys`, elements of one ring over QQ."""
    R = polys[0].ring
    pack = _Packing(R.ngens)
    f = []
    for p in polys:
        if p:
            den = lcm(*(int(k.denominator) for k in p.values()))
            f.append(_primitive({pack.pack(m): int(k.numerator) * (den // int(k.denominator))
                                 for m, k in p.items()}))
    return _reduced_basis(f, R)


def _reduced_basis(f: list[dict], Q) -> list:
    """`_buchberger(f)` as monic elements of the ring Q over QQ, f over its generators."""
    from sympy.polys.domains import QQ

    pack = _Packing(Q.ngens)
    out = []
    for h in _buchberger(f, pack):
        lc = h[max(h)]
        out.append(Q.from_dict({pack.unpack(m): QQ(k, lc) for m, k in h.items()}))
    return out


@dataclass
class _LeafBasis:
    """The lex basis G of `_p_basis` on the set S, with its real points once listed."""

    S: AffineSet
    G: list

    @cached_property
    def points(self) -> Optional[list[_RealPoint]]:
        """`_real_points` when G is zero-dimensional, else None."""
        return _real_points(self.G, self.S) if _is_zero_dimensional(self.G) else None


def _leaf_basis(memo: dict, S: AffineSet, signs: tuple[int, ...],
                exponents: Sequence[Sequence[int]], rhs: Sequence[Fraction] = (),
                c: Optional[tuple] = None) -> _LeafBasis:
    """`_p_basis(S, signs, exponents, rhs, c)` with its real points, built once per `memo`."""
    key = (S, signs, tuple(map(tuple, exponents)), tuple(rhs), c)
    if key not in memo:
        memo[key] = _LeafBasis(S, _p_basis(S, signs, exponents, rhs, c))
    return memo[key]


def _p_basis(S: AffineSet, signs: Sequence[int], exponents: Sequence[Sequence[int]],
             rhs: Sequence[Fraction] = (), c: Optional[Sequence[tuple]] = None) -> list:
    """Lex Groebner basis of prod_j X_j^a_ij = signs_i * rhs_i with X = S.point(t).

    On the orthant eps with signs_i = prod_j sign(X_j)^a_ij this is
    |X|^a_i = rhs_i with denominators cleared.  The ring's generators are
    (z, t0, ..., t{p-1}) in lex order, z the Rabinowitsch variable of
    z * prod_j X_j = 1 over the coordinates the equations use, so no such
    X_j vanishes on the variety.  With `c`, one (const, slope) pair per
    coordinate, the right-hand sides are instead prod_j c_j(u)^(2 a_ij)
    for c_j(u) = const_j + slope_j * u; u is one more generator, last, and
    the c_j(u) of the used coordinates join the Rabinowitsch product.
    The basis is in sympy's ring QQ[names] (`_p_system`, `_reduced_basis`).
    """
    names, polys = _p_system(S, signs, exponents, rhs, c)
    return _reduced_basis(polys, _ring(names))


def _p_system(S: AffineSet, signs: Sequence[int], exponents: Sequence[Sequence[int]],
              rhs: Sequence[Fraction] = (), c: Optional[Sequence[tuple]] = None
              ) -> tuple[list[str], list[dict]]:
    """(generator names, the generators) of `_p_basis`'s ideal, primitive over ZZ.

    The generators are built from Y_j = e * X_j (`AffineSet._integral`)
    and C_j = d_j * c_j(u), each a nonzero integer multiple of the rational
    one, as {packed monomial: int} (`_Packing`).  Equations that vanish
    identically are dropped.
    """
    p = S.dim
    names = ["z", *(f"t{i}" for i in range(p)), *(["u"] if c is not None else [])]
    pack = _Packing(len(names))
    z, ts, u = pack.gen(0), [pack.gen(1 + i) for i in range(p)], pack.gen(len(names) - 1)
    e, consts, rows = S._integral
    Y = [_linear(const, zip(ts, row)) for const, row in zip(consts, rows)]
    d = C = None
    if c is not None:
        d = [lcm(Fraction(k0).denominator, Fraction(k1).denominator) for k0, k1 in c]
        C = [_linear(int(k0 * dj), [(u, int(k1 * dj))]) for (k0, k1), dj in zip(c, d)]
    used = [j for j in range(S.ambient_dim) if any(a_row[j] for a_row in exponents)]
    polys = []
    for i, a_row in enumerate(exponents):
        # prod X^a+ * prod c^(2a-) = sides[0] / dens[0], prod X^a- * prod c^(2a+) likewise
        sides, dens = [{0: 1}, {0: 1}], [1, 1]
        for j, aj in enumerate(a_row):
            if aj:
                k = aj < 0
                sides[k] = _mul(sides[k], _pow(Y[j], abs(aj), pack), pack)
                dens[k] *= e ** abs(aj)
                if C is not None:
                    sides[not k] = _mul(sides[not k], _pow(C[j], 2 * abs(aj), pack), pack)
                    dens[not k] *= d[j] ** (2 * abs(aj))
        r = Fraction(1) if c is not None else Fraction(rhs[i])
        # sides[0] / dens[0] - signs_i * r * sides[1] / dens[1], times L
        L = lcm(dens[0], r.denominator * dens[1])
        polys.append(_combine(sides[0], L // dens[0], sides[1],
                              -signs[i] * r.numerator * L // (r.denominator * dens[1])))
    # z * prod X_j (* c_j(u)) - 1, times e^|used| (* prod d_j)
    nonzero = {z: 1}
    for j in used:
        nonzero = _mul(nonzero, Y[j] if C is None else _mul(Y[j], C[j], pack), pack)
    polys.append(_combine(nonzero, 1, {0: 1}, -prod(e if d is None else e * d[j] for j in used)))
    return names, [_primitive(f) for f in polys if f]


def _is_zero_dimensional(G: list) -> bool:
    """Some leading monomial of G is a pure power of each generator."""
    lead = [g.LM for g in G]
    return all(any(m[i] and sum(m) == m[i] for m in lead) for i in range(G[0].ring.ngens))


def _in_v(terms: dict):
    """{monomial: coefficient} as an element of QQ[v] when only the last generator occurs."""
    if any(any(m[:-1]) for m in terms):
        return None
    return _ring("v").from_dict({m[-1:]: k for m, k in terms.items()})


def _eliminant_roots(G: list, lo: Optional[Fraction], hi: Optional[Fraction]) -> list[Fraction]:
    """Rational roots in (lo, hi) of the univariate eliminant in the last generator.

    Empty when G is {1} or when the ideal meets Q[last] only in 0.
    """
    f = _dense_in_v(G[-1])
    if f is None:
        return []
    return [r for r in _rational_roots(f)[0]
            if (lo is None or r > lo) and (hi is None or r < hi)]


def _dense_in_v(terms: dict) -> Optional[list[int]]:
    """{monomial: QQ} as dense integer coefficients in the last generator,
    leading first and times the lcm of the denominators; None when another
    generator occurs."""
    if any(any(m[:-1]) for m in terms):
        return None
    n = max(m[-1] for m in terms)
    den = lcm(*(int(k.denominator) for k in terms.values()))
    f = [0] * (n + 1)
    for m, k in terms.items():
        f[n - m[-1]] = int(k.numerator) * (den // int(k.denominator))
    return f


@dataclass(frozen=True)
class _RealPoint:
    X: tuple                       # exact Fractions when rational, else floats
    rational: bool
    signs: tuple[int, ...]         # exact sign of each X_j: -1, 0 or 1
    value_float: float             # the last generator, for ordering


def _real_points(G: list, S: AffineSet) -> list[_RealPoint]:
    """Real points of a zero-dimensional lex basis, ascending in the last generator.

    The basis must be in shape position (t_i = g_i(v), f(v) = 0 for the
    last generator v); otherwise the separating form w = sum_i (i+1) t_i is
    added and the basis recomputed (`_separated`).  When that is not in
    shape position either, the ideal is not radical or the form does not
    separate its points: G is replaced by its radical (`_radical`), and the
    forms w = sum_i j^i t_i, j = 2, 3, ..., are tried in turn.  For two of
    the N points, sum_i j^i (P_i - Q_i) is a nonzero polynomial of degree
    < p in j, so one of 1 + (p-1) N(N-1)/2 forms separates them all, and
    a radical ideal with a separating last generator is in shape position
    (the Shape Lemma); past that bound RuntimeError is raised.  The
    rational points are the rational roots of f (`_rational_roots`).  The
    square-free rest of f, with them divided out, is factored only when it
    has a real root (a Sturm count); each of its real roots is an
    irrational point, which carries the exact signs of X and the nearest
    doubles to its coordinates (`_IsolatedRoot`).
    """
    p = S.dim
    shape = _shape(G) or _separated(G, range(1, p + 1))
    if shape is None:
        G, N = _radical(G)
        for j in range(2, 3 + (p - 1) * N * (N - 1) // 2):
            shape = _separated(G, [j ** i for i in range(p)])
            if shape is not None:
                break
        else:
            raise RuntimeError("no linear form separates the points of a radical ideal")
    f, tpolys = shape
    tpolys = tpolys[:p]
    roots, rest = _rational_roots(f)
    out = []
    for r in roots:
        X = S.point(tuple(_frac(tp(_qq(r))) for tp in tpolys))
        out.append(_RealPoint(X, True, tuple((x > 0) - (x < 0) for x in X), float(r)))
    R1 = _ring("v")
    rest = R1.from_list(rest)
    if not rest.is_ground and R1.dup_count_real_roots(rest):
        Xpolys = [sum((tp * _qq(b[j]) for tp, b in zip(tpolys, S.basis)), R1(_qq(S.particular[j])))
                  for j in range(S.ambient_dim)]
        # rest has no rational root: its irreducible factors have degree >= 2
        for q, _ in rest.factor_list()[1]:
            for a, b in R1.dup_isolate_real_roots_sqf(q):
                root = _IsolatedRoot(q, a, b)
                tf = [root.float_of(tp) for tp in tpolys]
                X = []
                for j in range(S.ambient_dim):   # float sums in a fixed order
                    x = float(S.particular[j])
                    for tfi, bv in zip(tf, S.basis):
                        x += float(bv[j]) * tfi
                    X.append(x)
                signs = tuple(root.sign_of(h) for h in Xpolys)
                out.append(_RealPoint(tuple(X), False, signs, root.float_of(R1.gens[0])))
    out.sort(key=lambda pt: pt.value_float)
    return out


def _separated(G: list, weights: Sequence[int]):
    """`_shape` of the lex basis of G and w - sum_i weights_i t_i, w a new last generator."""
    R = _ring([*map(str, G[0].ring.symbols), "w"])
    form = R.gens[-1] - sum((k * t for k, t in zip(weights, R.gens[1:-1])), R.zero)
    return _shape(_groebner([g.set_ring(R) for g in G] + [form]))


def _radical(G: list) -> tuple[list, int]:
    """(lex basis of the radical of the zero-dimensional ideal (G), N).

    Seidenberg's lemma: the ideal plus the square-free part of each
    generator's eliminant (from a lex basis with that generator last;
    `set_ring` maps generators by name) is radical.  A point's t_i is a root
    of t_i's eliminant, so N, the product of their degrees, bounds the
    number of points.
    """
    R = G[0].ring
    names = [str(x) for x in R.symbols]
    added, N = [], 1
    for i, x in enumerate(names):
        Rx = _ring([*names[:i], *names[i + 1:], x])
        f = _groebner([g.set_ring(Rx) for g in G])[-1].sqf_part()
        added.append(f.set_ring(R))
        if i:                         # a t; z is a function of them
            N *= f.degree(Rx.gens[-1])
    return _groebner(G + added), N


def _shape(G: list):
    """(f, [g_i]) when G = [c_i (x_i - g_i(v))]..., f(v) with v its last generator.

    f is dense over ZZ (`_dense_in_v`), the g_i in QQ[v].  None when G is
    not of that form.
    """
    n = G[0].ring.ngens
    f = _dense_in_v(G[-1]) if len(G) == n else None
    if f is None or len(f) == 1:
        return None
    tpolys = []
    for i, g in enumerate(G[:-1]):
        unit = tuple(int(k == i) for k in range(n))
        lead = g.get(unit)
        tp = _in_v({m: -k / lead for m, k in g.items() if m != unit}) if lead else None
        if tp is None:
            return None
        tpolys.append(tp)
    # t0, ... without z, then v: the last t, or the separating form
    return f, tpolys[1:] + [_ring("v").gens[0]]


class _IsolatedRoot:
    """The real root of the irreducible q in QQ[v] isolated by (a, b).

    Every query refines the same interval further, from where the last one
    left it; its answer depends on the root alone.
    """

    def __init__(self, q, a, b):
        self.q, self.a, self.b = q, a, b

    def _refine(self) -> None:
        self.a, self.b = self.q.ring.dup_refine_real_root(
            self.q, self.a, self.b, eps=(self.b - self.a) / 1024)

    def sign_of(self, h) -> int:
        """The exact sign of h at the root."""
        h = h % self.q
        if not h:
            return 0
        while h.ring.dup_count_real_roots(h, self.a, self.b):
            self._refine()
        return 1 if h(self.a) > 0 else -1

    def float_of(self, h) -> float:
        """h at the root, as the nearest double.

        Refines until h is monotone on (a, b) and both ends round alike,
        which ends: h mod q is constant, or irrational at the root with h'
        nonzero.
        """
        h = h % self.q
        dh = h.diff(h.ring.gens[0])
        while (h.ring.dup_count_real_roots(dh, self.a, self.b)
               or float(h(self.a)) != float(h(self.b))):
            self._refine()
        return float(h(self.a))


def _cut_points(G: list, S: AffineSet, want: tuple[int, ...],
                witness_t: Sequence[Fraction]) -> list[_RealPoint]:
    """Real points of a positive-dimensional basis on hyperplanes through a witness.

    Adds hyperplanes n.(t - witness) = 0, n from e_i, e_i - e_j and e_i + e_j
    in turn, until the cut is zero-dimensional, and returns its real points
    once some lie in the orthant `want`.  Stops after CUT_LIMIT bases; an
    empty result proves nothing.
    """
    R = G[0].ring
    ts = R.gens[1:1 + S.dim]
    p = len(ts)
    normals = [{i: 1} for i in range(p)]
    normals += [{i: 1, j: s} for i in range(p) for j in range(i + 1, p) for s in (-1, 1)]
    budget = CUT_LIMIT

    def walk(basis, used):
        nonlocal budget
        for k, n in enumerate(normals):
            if k in used or budget == 0:
                continue
            budget -= 1
            plane = sum((s * (ts[i] - _qq(witness_t[i])) for i, s in n.items()), R.zero)
            H = _groebner(basis + [plane])
            if H == [1]:
                continue
            if not _is_zero_dimensional(H):
                found = walk(H, used | {k})
            else:
                found = _real_points(H, S)
            if any(pt.signs == want for pt in found):
                return found
        return []

    return walk(G, frozenset())


# ---------------------------------------------------------------------------
# Rational roots of dense integer polynomials, by p-adic lifting
#
# A dense polynomial is a list of ints, leading coefficient first.


def _rational_roots(f: Sequence[int]) -> tuple[list[Fraction], list[int]]:
    """(the distinct rational roots of f, ascending; the square-free part of
    f with them divided out).

    The factor v^k of f gives the root 0 and goes first; the rest g is made
    square-free.  Its roots are found by p-adic expansion (Loos, SIAM J.
    Comput. 12, 1983; von zur Gathen and Gerhard, *Modern Computer
    Algebra*, ch. 15), with no factoring.  P is the first odd prime that does
    not divide lc = lc(g) and at which every root of g mod P is simple.  Each
    root mod P is lifted by Newton-Hensel iteration until P^k > 2 (|lc| +
    max |g_i|), which bounds |lc * alpha| for every root alpha (Cauchy), and
    y = lc * lift, read as a symmetric residue mod P^k, gives y / lc, kept
    when g(y / lc) = 0 exactly.  This finds every rational root: p/q in
    lowest terms has q | lc, so P does not divide q, p/q is a root mod P,
    simple by the choice of P, and its unique lift is p/q.  Raises
    RuntimeError when no prime below PRIME_BOUND serves.
    """
    g = list(f)
    roots = []
    if not g[-1]:
        roots.append(Fraction(0))
        while not g[-1]:
            g.pop()
    if len(g) == 1:
        return roots, g
    from sympy.polys.domains import ZZ
    from sympy.polys.sqfreetools import dup_sqf_part

    g = [int(k) for k in dup_sqf_part(g, ZZ)]
    lc = g[0]
    dg = _diff(g)
    for P in _odd_primes():
        if lc % P:
            mod = [k % P for k in g]
            modular = [r for r in range(P) if not _eval(mod, r, P)]
            if all(_eval(dg, r, P) for r in modular):
                break
    else:
        raise RuntimeError(f"no odd prime below {PRIME_BOUND} keeps the roots of "
                           f"a degree-{len(g) - 1} polynomial simple")
    bound = 2 * (abs(lc) + max(map(abs, g)))
    rest = g
    for r in modular:
        M = P
        while M <= bound:
            M *= M
            r = (r - _eval(g, r, M) * pow(_eval(dg, r, M), -1, M)) % M
        y = lc * r % M
        if 2 * y > M:
            y -= M
        if not _eval_homogeneous(g, y, lc):
            roots.append(Fraction(y, lc))
            rest = _divide_linear(rest, roots[-1])
    return sorted(roots), rest


def _odd_primes():
    """The odd primes below PRIME_BOUND, ascending."""
    for P in range(3, PRIME_BOUND, 2):
        if all(P % d for d in range(3, isqrt(P) + 1, 2)):
            yield P


def _eval(g: Sequence[int], x: int, M: int) -> int:
    """g(x) mod M."""
    y = 0
    for k in g:
        y = (y * x + k) % M
    return y


def _eval_homogeneous(g: Sequence[int], y: int, d: int) -> int:
    """d^deg(g) * g(y / d)."""
    h, w = g[0], 1
    for k in g[1:]:
        w *= d
        h = h * y + k * w
    return h


def _diff(g: Sequence[int]) -> list[int]:
    n = len(g) - 1
    return [k * (n - i) for i, k in enumerate(g[:-1])]


def _divide_linear(g: Sequence[int], r: Fraction) -> list[int]:
    """g / (q v - p) for r = p/q a root of g, exactly (synthetic division)."""
    p, q = r.numerator, r.denominator
    out, h = [], 0
    for k in g[:-1]:
        h = (k + p * h) // q
        out.append(h)
    return out


# ---------------------------------------------------------------------------
# Integer polynomials with packed monomials, and their lex Buchberger

_FIELD = 16     # bits per generator in a packed monomial, the top bit a guard


class _Packing:
    """Exponent vectors over n generators packed into one int.

    Generator i takes the field of _FIELD bits at (n - 1 - i) * _FIELD, so
    the first generator is on top and lex order is the order of the ints.
    An exponent stays below its field's top bit, the guard.  So a sum of
    two monomials never carries across a field; it is their product, and it
    sets a guard bit iff an exponent is too large (`check`).  A difference
    b - a never borrows across a field unless an exponent of it goes below
    0, and that sets the guard bit of the lowest field that does; so b - a
    is the quotient when a divides b and has a guard bit set otherwise.
    """

    def __init__(self, n: int):
        self.n = n
        self.guard = sum(1 << (_FIELD * i + _FIELD - 1) for i in range(n))

    def pack(self, m: Sequence[int]) -> int:
        a = 0
        for e in m:
            if not 0 <= e < 1 << (_FIELD - 1):
                raise OverflowError(f"exponent {e} does not fit a {_FIELD}-bit field")
            a = a << _FIELD | e
        return a

    def unpack(self, a: int) -> tuple[int, ...]:
        mask = (1 << _FIELD) - 1
        return tuple(a >> (_FIELD * i) & mask for i in reversed(range(self.n)))

    def gen(self, i: int) -> int:
        return 1 << _FIELD * (self.n - 1 - i)

    def check(self, products) -> None:
        """Raise OverflowError when a product (a sum of two monomials) has an
        exponent past its field."""
        if reduce(or_, products, 0) & self.guard:
            raise OverflowError(f"a monomial exponent reached 2^{_FIELD - 1}")

    def divides(self, a: int, b: int) -> bool:
        return not (b - a) & self.guard

    def lcm(self, a: int, b: int) -> int:
        ge = ((a | self.guard) - b) & self.guard      # guard bit: a_i >= b_i
        mask = ge | (ge - (ge >> (_FIELD - 1)))
        return (a & mask) | (b & ~mask)


def _primitive(h: dict) -> dict:
    """h without its content, with a positive leading coefficient."""
    g = gcd(*h.values())
    if h[max(h)] < 0:
        g = -g
    return h if g == 1 else {m: k // g for m, k in h.items()}


def _linear(const: int, terms) -> dict:
    """const + sum k * m over (packed monomial m, k) in terms, as a polynomial."""
    f = {m: k for m, k in terms if k}
    if const:
        f[0] = const
    return f


def _combine(a: dict, x: int, b: dict, y: int) -> dict:
    """x * a + y * b."""
    out = {m: x * k for m, k in a.items()}
    for m, k in b.items():
        out[m] = out.get(m, 0) + y * k
    return {m: k for m, k in out.items() if k}


def _shift(a: dict, m: int, pack: _Packing) -> dict:
    """The monomial m times a."""
    out = {n + m: k for n, k in a.items()}
    pack.check(out)
    return out


def _mul(a: dict, b: dict, pack: _Packing) -> dict:
    out: dict = {}
    for m, x in a.items():
        for n, y in b.items():
            out[m + n] = out.get(m + n, 0) + x * y
    pack.check(out)
    return {m: k for m, k in out.items() if k}


def _pow(a: dict, k: int, pack: _Packing) -> dict:
    out = a
    for _ in range(k - 1):
        out = _mul(out, a, pack)
    return out


def _rem(f: dict, G: Sequence[tuple[dict, int]], pack: _Packing) -> dict:
    """A positive integer multiple of the remainder of f on division by G.

    G holds (g, leading monomial of g) pairs, tried in order.  The division
    of sympy's `PolyElement.rem`: the leading term of f is cancelled by the
    first g whose leading monomial divides it, or moved to the remainder.
    Fraction-free: f and the remainder are scaled by lc(g) / gcd instead of
    dividing g by its leading coefficient.
    """
    guard = pack.guard
    f, r = dict(f), {}
    while f:
        lt = max(f)
        c = f[lt]
        for g, lm in G:
            m = lt - lm
            if not m & guard:       # lm divides lt, m the quotient (`_Packing`)
                lc = g[lm]
                d = gcd(c, lc)
                s, c = lc // d, c // d
                if s != 1:
                    f = {k: s * v for k, v in f.items()}
                    r = {k: s * v for k, v in r.items()}
                get = f.get
                products = 0
                for mg, cg in g.items():
                    m1 = mg + m
                    products |= m1
                    c1 = get(m1, 0) - c * cg
                    if c1:
                        f[m1] = c1
                    else:
                        del f[m1]
                pack.check((products,))
                break
        else:
            r[lt] = c
            del f[lt]
    return r


def _spoly(p1: dict, lm1: int, p2: dict, lm2: int, pack: _Packing) -> dict:
    """A nonzero integer multiple of the S-polynomial of p1 and p2."""
    L = pack.lcm(lm1, lm2)
    c1, c2 = p1[lm1], p2[lm2]
    d = gcd(c1, c2)
    return _combine(_shift(p1, L - lm1, pack), c2 // d, _shift(p2, L - lm2, pack), -(c1 // d))


def _buchberger(f: list[dict], pack: _Packing) -> list[dict]:
    """Reduced lex Groebner basis of the primitive integer polynomials f.

    A port of sympy's `groebnertools._buchberger`, GROEBNERNEWS2 of Becker
    and Weispfenning, *Groebner Bases* (1993), p. 232, with the
    Gebauer-Moeller pair criteria (`update`), normal selection, an initial
    interreduction and a final reduction.  Where sympy makes each new
    polynomial monic, this one keeps it primitive with a positive leading
    coefficient (`_primitive`), a canonical multiple of the monic one; so
    the run is sympy's, and each element of the reduced basis, returned in
    descending order of leading monomials, a multiple of sympy's.
    """
    lcm_ = pack.lcm
    divides = pack.divides

    def select(P):
        # normal selection strategy
        # select the pair with minimum LCM(LM(f), LM(g))
        return min(P, key=lambda pair: lcm_(LM[pair[0]], LM[pair[1]]))

    def normal(g, J):
        h = _rem(g, [(f[j], LM[j]) for j in J], pack)
        if not h:
            return None
        h = _primitive(h)
        key = frozenset(h.items())
        if key not in I:
            I[key] = len(f)
            f.append(h)
            LM.append(max(h))
        return I[key]

    def update(G, B, ih):
        # update G using the set of critical pairs B and h
        # [BW] page 230
        mh = LM[ih]

        # filter new pairs (h, g), g in G
        C = G.copy()
        D = set()

        while C:
            # select a pair (h, g) by popping an element from C
            ig = C.pop()
            mg = LM[ig]
            LCMhg = lcm_(mh, mg)

            def lcm_divides(ip):
                # LCM(LM(h), LM(p)) divides LCM(LM(h), LM(g))
                return divides(lcm_(mh, LM[ip]), LCMhg)

            # HT(h) and HT(g) disjoint: mh*mg == LCMhg
            if mh + mg == LCMhg or (
                    not any(lcm_divides(ipx) for ipx in C) and
                    not any(lcm_divides(pr[1]) for pr in D)):
                D.add((ih, ig))

        E = set()

        while D:
            # select h, g from D (h the same as above)
            ih, ig = D.pop()
            mg = LM[ig]
            if mh + mg != lcm_(mh, mg):
                E.add((ih, ig))

        # filter old pairs
        B_new = set()

        while B:
            # select g1, g2 from B (-> CP)
            ig1, ig2 = B.pop()
            mg1, mg2 = LM[ig1], LM[ig2]
            LCM12 = lcm_(mg1, mg2)

            # if HT(h) does not divide lcm(HT(g1), HT(g2))
            if not divides(mh, LCM12) or lcm_(mg1, mh) == LCM12 or lcm_(mg2, mh) == LCM12:
                B_new.add((ig1, ig2))

        B_new |= E

        # filter polynomials
        G_new = {ig for ig in G if not divides(mh, LM[ig])}
        G_new.add(ih)
        return G_new, B_new

    if not f:
        return []

    # replace f with a reduced list of initial polynomials; see [BW] page 203
    f1 = f[:]
    while True:
        f = f1[:]
        f1 = []
        for i, p in enumerate(f):
            r = _rem(p, [(q, max(q)) for q in f[:i]], pack)
            if r:
                f1.append(_primitive(r))
        if f == f1:
            break

    I = {frozenset(h.items()): i for i, h in enumerate(f)}     # ip = I[p]; p = f[ip]
    LM = [max(h) for h in f]
    F = set(range(len(f)))   # set of indices of polynomials
    G = set()                # set of indices of intermediate would-be Groebner basis
    CP = set()               # set of pairs of indices of critical pairs

    # algorithm GROEBNERNEWS2 in [BW] page 232
    while F:
        # select p with minimum monomial according to the monomial ordering
        ih = min(F, key=LM.__getitem__)
        F.remove(ih)
        G, CP = update(G, CP, ih)

    while CP:
        ig1, ig2 = select(CP)
        CP.remove((ig1, ig2))
        h = _spoly(f[ig1], LM[ig1], f[ig2], LM[ig2], pack)
        # ordering divisors is on average more efficient [Cox] page 111
        ih = normal(h, sorted(G, key=LM.__getitem__))
        if ih is not None:
            G, CP = update(G, CP, ih)

    # now G is a Groebner basis; reduce it
    Gr = set()
    for ig in G:
        ih = normal(f[ig], G - {ig})
        if ih is not None:
            Gr.add(ih)
    return [f[ig] for ig in sorted(Gr, key=LM.__getitem__, reverse=True)]
