"""Orthant enumeration and the nonlinear kernel-exponent condition.

Internal machinery for the Einstein pipeline.  The sign-feasibility layer
and everything it reports is exact.  The polynomial condition is exact too:
directly when its slice (the scale gauge removed for k = 0) is a point, and
otherwise by one lex Groebner basis of the system with cleared denominators
and a Rabinowitsch variable, in sympy's sparse ring over QQ (generators
built over ZZ); its real points are listed exactly in the univariate ring
QQ[v].  The same basis, with the family parameter as one more variable,
gives the candidate parameter values.  One memo per search holds each
cone's two gauge slices, cut once, and each basis, built once per pair of
slices: the -1 slice's basis is the +1 slice's with signs flipped.

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
from functools import cached_property
from math import lcm, prod
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
    scale_gauge: bool,
    memo: Optional[dict] = None,
) -> PDecision:
    """Does some X in S with sign pattern eps satisfy |X|^a_i = rhs_i for all i?

    `exponents` are integer vectors a_i, `rhs` positive rationals.  Exact
    when its slice (`_p_leaf`) is a point;
    otherwise decided by one lex Groebner basis of the cleared system
    (`_p_basis`), whose real points are listed exactly.  Only a
    positive-dimensional variety on which no hyperplane cut through the
    witness finds a point, or a zero-dimensional basis out of shape
    position, gives a numeric-grade negative (`exact=False`).
    `scale_gauge` requires S to be a cone and the system scale invariant,
    so one coordinate may be pinned to +-1.  `memo` (a dict) is shared by
    the orthants of one search: it holds each cone's two gauge slices
    (`_p_leaf`) and each basis with its real points (`_leaf_basis`), the
    -1 slice's basis mirrored from the +1 slice's when that is known.
    """
    if not exponents:
        X = S.point(witness_t)
        return PDecision(True, True, root_X=tuple(X), root_is_rational=True,
                         note="vacuous")
    memo = {} if memo is None else memo
    leaf = _p_leaf(S, eps, exponents, scale_gauge, memo)
    if leaf is None:
        return PDecision(False, True, note="slice point leaves orthant")
    work_S, signs = leaf
    if work_S.dim == 0:
        X = work_S.particular
        if any(abs_monomial(X, a_row) != r for a_row, r in zip(exponents, rhs)):
            return PDecision(False, True, note="point mismatch")
        return PDecision(True, True, root_X=tuple(X), root_is_rational=True)

    basis = _leaf_basis(memo, work_S, signs, exponents, rhs)
    G, points = basis.G, basis.points
    want = tuple(-1 if e else 1 for e in eps)
    if G == [1]:
        return PDecision(False, True, note="Groebner basis {1}")
    if _is_zero_dimensional(G):
        if points is None:
            return PDecision(False, False, note="zero-dimensional basis not in shape position")
        note = ""
    else:
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
    pt = next((pt for pt in inside if pt.rational), None)
    if pt is None:
        return PDecision(True, True, root_X=inside[0].X, root_is_rational=False,
                         note="irrational root")
    if not in_orthant(pt.X, eps) or any(
            abs_monomial(pt.X, a_row) != r for a_row, r in zip(exponents, rhs)):
        raise RuntimeError("an exact point of the P system failed its recheck")
    return PDecision(True, True, root_X=pt.X, root_is_rational=True, note=note)


def _p_leaf(S: AffineSet, eps: Sequence[int], exponents: Sequence[Sequence[int]],
            scale_gauge: bool, memo: dict) -> Optional[tuple[AffineSet, tuple[int, ...]]]:
    """(S or its gauge slice, signs prod_j sign(X_j)^a_ij) at the orthant eps.

    None when that set is a point outside the orthant.  Orthants with equal
    pairs share one basis.  `memo` keeps the two gauge slices of each cone
    S: the +1 slice is cut once, and the -1 slice is its negation.
    """
    if scale_gauge:
        if any(x != 0 for x in S.particular):
            raise ValueError("scale_gauge needs S to be a cone (zero particular point)")
        if any(sum(a_row) != 0 for a_row in exponents):
            raise ValueError("scale_gauge needs scale-invariant exponents (zero row sums)")
        if S not in memo:
            pin, plus = gauge_slice(S)
            memo[S] = (pin, plus, _negated(plus))
        pin, plus, minus = memo[S]
        S = minus if eps[pin] else plus
    if S.dim == 0 and not in_orthant(S.particular, eps):
        return None
    return S, tuple(-1 if sum(aj for aj, e in zip(a_row, eps) if e) % 2 else 1
                    for a_row in exponents)


def gauge_slice(S: AffineSet) -> tuple[int, AffineSet]:
    """Remove the scale gauge of the cone S: (pin, its cut by X_pin = 1).

    X_pin is the first non-constant coordinate; every solution ray of a
    scale-invariant system meets X_pin = +-1 once, and the cut by
    X_pin = -1 is the negation of this one.
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


def _negated(S: AffineSet) -> AffineSet:
    """-S: the same basis through the negated particular point."""
    return AffineSet(tuple(-x for x in S.particular), S.basis)


# ---------------------------------------------------------------------------
# The cleared P system and its lex Groebner basis, in sympy's sparse ring


def _ring(names: Sequence[str], integral: bool = False):
    """sympy's sparse polynomial ring QQ[names], or ZZ[names], in lex order."""
    from sympy.polys.domains import QQ, ZZ
    from sympy.polys.orderings import lex
    from sympy.polys.rings import ring

    return ring(list(names), ZZ if integral else QQ, lex)[0]


def _qq(x):  # a Fraction or int into QQ, by numerator and denominator
    from sympy.polys.domains import QQ

    x = Fraction(x)
    return QQ(x.numerator, x.denominator)


def _frac(r) -> Fraction:  # from QQ
    return Fraction(int(r.numerator), int(r.denominator))


def _groebner(polys: list) -> list:
    """Reduced lex Groebner basis of the nonzero `polys`, elements of one ring."""
    from sympy.polys.groebnertools import groebner

    return groebner([f for f in polys if f], polys[0].ring)


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
    """`_p_basis(S, signs, exponents, rhs, c)`, built once per pair of mirrored sets.

    When every exponent row has an even sum, the system on -S (`_negated`)
    is the image of the one on S under phi: t_i -> -t_i,
    z -> (-1)^|used| z, u fixed, which only changes the signs of terms.
    The reduced lex basis of an ideal is unique, so once `memo` holds the
    basis of one of S and -S, the other is phi of it (`_mirrored`).  The
    two gauge slices of a cone are such a pair.
    """
    exponents = tuple(map(tuple, exponents))
    key = (S, signs, exponents, tuple(rhs), c)
    if key not in memo:
        twin = (memo.get((_negated(S),) + key[1:])
                if all(sum(a_row) % 2 == 0 for a_row in exponents) else None)
        if twin is None:
            G = _p_basis(S, signs, exponents, rhs, c)
        else:
            used = sum(1 for col in zip(*exponents) if any(col))
            G = _mirrored(twin.G, S.dim, used)
        memo[key] = _LeafBasis(S, G)
    return memo[key]


def _mirrored(G: list, p: int, used: int) -> list:
    """phi(G) for phi: t_i -> -t_i (the p generators after z), z -> (-1)^used z.

    Each element is made monic again; phi keeps every monomial, so the
    leading ones and the order of G stay.
    """
    def odd(m):
        return (used * m[0] + sum(m[1:1 + p])) & 1

    R = G[0].ring
    out = []
    for g in G:
        lead = odd(g.LM)
        out.append(R.from_dict({m: -k if odd(m) != lead else k for m, k in g.items()}))
    return out


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
    Equations that vanish identically are dropped.

    The generators are built over ZZ from Y_j = e * X_j (`AffineSet._integral`)
    and C_j = d_j * c_j(u), each a nonzero integer multiple of the rational
    one, and converted to QQ once.  Buchberger makes every input monic
    first, so its run and the reduced basis are those of the rational
    generators.
    """
    p = S.dim
    names = ["z", *(f"t{i}" for i in range(p)), *(["u"] if c is not None else [])]
    R = _ring(names, integral=True)
    z, ts, u = R.gens[0], R.gens[1:1 + p], R.gens[-1]
    e, consts, rows = S._integral
    Y = [sum((k * t for k, t in zip(row, ts) if k), R(const))
         for const, row in zip(consts, rows)]
    d = C = None
    if c is not None:
        d = [lcm(Fraction(k0).denominator, Fraction(k1).denominator) for k0, k1 in c]
        C = [R(int(k0 * dj)) + int(k1 * dj) * u for (k0, k1), dj in zip(c, d)]
    used = [j for j in range(S.ambient_dim) if any(a_row[j] for a_row in exponents)]
    polys = []
    for i, a_row in enumerate(exponents):
        # prod X^a+ * prod c^(2a-) = sides[0] / dens[0], prod X^a- * prod c^(2a+) likewise
        sides, dens = [R.one, R.one], [1, 1]
        for j, aj in enumerate(a_row):
            if aj:
                k = aj < 0
                sides[k] *= Y[j] ** abs(aj)
                dens[k] *= e ** abs(aj)
                if C is not None:
                    sides[not k] *= C[j] ** (2 * abs(aj))
                    dens[not k] *= d[j] ** (2 * abs(aj))
        r = Fraction(1) if c is not None else Fraction(rhs[i])
        # sides[0] / dens[0] - signs_i * r * sides[1] / dens[1], times L
        L = lcm(dens[0], r.denominator * dens[1])
        polys.append(sides[0] * (L // dens[0])
                     - sides[1] * (signs[i] * r.numerator * L // (r.denominator * dens[1])))
    # z * prod X_j (* c_j(u)) - 1, times e^|used| (* prod d_j)
    nonzero = z * prod(Y[j] if C is None else Y[j] * C[j] for j in used)
    polys.append(nonzero - prod(e if d is None else e * d[j] for j in used))
    Q = _ring(names)
    return _groebner([f.set_ring(Q) for f in polys])


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
    f = _in_v(G[-1])
    if f is None or f.is_ground:
        return []
    out = []
    for q, _ in f.factor_list()[1]:
        if q.degree() == 1:
            r = _frac(-q(0) / q.LC)
            if (lo is None or r > lo) and (hi is None or r < hi):
                out.append(r)
    return sorted(out)


@dataclass(frozen=True)
class _RealPoint:
    X: tuple                       # exact Fractions when rational, else floats
    rational: bool
    signs: tuple[int, ...]         # exact sign of each X_j: -1, 0 or 1
    value_float: float             # the last generator, for ordering


def _real_points(G: list, S: AffineSet) -> Optional[list[_RealPoint]]:
    """Real points of a zero-dimensional lex basis, ascending in the last t.

    The basis must be in shape position (t_i = g_i(v), f(v) = 0 for the
    last generator v); otherwise one separating form w = sum_i (i+1) t_i is
    added and the basis recomputed.  None when that is not in shape
    position either.  An irrational point carries the exact signs of X and
    the nearest doubles to its coordinates.
    """
    shape = _shape(G)
    if shape is None:
        R = _ring([*map(str, G[0].ring.symbols), "w"])
        ts = R.gens[1:1 + S.dim]
        form = R.gens[-1] - sum(((i + 1) * t for i, t in enumerate(ts)), R.zero)
        shape = _shape(_groebner([g.set_ring(R) for g in G] + [form]))
        if shape is None:
            return None
    f, tpolys = shape
    tpolys = tpolys[:S.dim]
    R1 = f.ring
    Xpolys = [sum((tp * _qq(b[j]) for tp, b in zip(tpolys, S.basis)), R1(_qq(S.particular[j])))
              for j in range(S.ambient_dim)]
    out = []
    for q, _ in f.factor_list()[1]:
        if q.degree() == 1:
            r = -q(0) / q.LC
            X = S.point(tuple(_frac(tp(r)) for tp in tpolys))
            out.append(_RealPoint(X, True, tuple((x > 0) - (x < 0) for x in X), float(r)))
            continue
        # q is irreducible of degree >= 2: all its real roots are irrational
        for a, b in R1.dup_isolate_real_roots_sqf(q):
            tf = [_float_at(tp, q, a, b) for tp in tpolys]
            X = []
            for j in range(S.ambient_dim):   # float sums in a fixed order
                x = float(S.particular[j])
                for tfi, bv in zip(tf, S.basis):
                    x += float(bv[j]) * tfi
                X.append(x)
            signs = tuple(_sign_at_root(h, q, a, b) for h in Xpolys)
            out.append(_RealPoint(tuple(X), False, signs, _float_at(R1.gens[0], q, a, b)))
    out.sort(key=lambda pt: pt.value_float)
    return out


def _shape(G: list):
    """(f, [g_i]) in QQ[v] when G = [c_i (x_i - g_i(v))]..., f(v) with v its last generator.

    None when G is not of that form.
    """
    n = G[0].ring.ngens
    f = _in_v(G[-1]) if len(G) == n else None
    if f is None or f.is_ground:
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
    return f, tpolys[1:] + [f.ring.gens[0]]


def _sign_at_root(h, q, a, b) -> int:
    """Sign of h at the root of the irreducible q isolated by (a, b)."""
    h = h % q
    if not h:
        return 0
    while q.ring.dup_count_real_roots(h, a, b):
        a, b = q.ring.dup_refine_real_root(q, a, b, eps=(b - a) / 1024)
    return 1 if h(a) > 0 else -1


def _float_at(h, q, a, b) -> float:
    """h at the root of the irreducible q isolated by (a, b), as the nearest double.

    Refines until h is monotone on (a, b) and both ends round alike, which
    ends: h mod q is constant, or irrational at the root with h' nonzero.
    """
    h = h % q
    dh = h.diff(h.ring.gens[0])
    while q.ring.dup_count_real_roots(dh, a, b) or float(h(a)) != float(h(b)):
        a, b = q.ring.dup_refine_real_root(q, a, b, eps=(b - a) / 1024)
    return float(h(a))


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
                found = _real_points(H, S) or []
            if any(pt.signs == want for pt in found):
                return found
        return []

    return walk(G, frozenset())
