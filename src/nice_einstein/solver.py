"""Orthant enumeration and the nonlinear kernel-exponent condition.

Internal machinery for the Einstein pipeline.  The sign-feasibility layer
and everything it reports is exact; the polynomial condition is decided
exactly whenever it reduces to a constant or to one variable (after the
scale gauge is removed for k = 0), and by seeded multi-start damped Newton
in log coordinates otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import (
    AffineSet,
    EnumerationCapExceeded,
    VecQ,
    feasible_strict,
    in_orthant,
    orthant_rows,
    orthant_witness,
)

ORTHANT_CAP = 1 << 20
NEWTON_STARTS = 32
NEWTON_TOL = 1e-12
RECONSTRUCT_DENOMINATOR_BOUND = 10**6


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


def feasible_orthants(S: AffineSet, cap: int = ORTHANT_CAP) -> list[Orthant]:
    """All sign patterns eps realized by points of S with no zero coordinate.

    Exact: branches over proportionality classes of coordinate functionals
    with Fourier-Motzkin pruning.  Coordinates identically zero make the
    result empty (no strict sign pattern exists).
    """
    fc = classify_functionals(S)
    if fc.zero_coords:
        return []
    m = S.ambient_dim
    nreps = 1 + max(fc.class_of, default=-1)
    p = S.dim
    # Stage rep sign choices; rep r realized as const + coeffs over t.
    rep_const: list[Fraction] = [Fraction(0)] * nreps
    rep_coeffs: list[tuple] = [()] * nreps
    for j in range(m):
        r = fc.class_of[j]
        rep_const[r] = fc.consts[j] / (fc.orient[j] * fc.scale[j])
        rep_coeffs[r] = tuple(c / (fc.orient[j] * fc.scale[j]) for c in fc.coeffs[j])

    out: list[Orthant] = []
    signs: list[int] = [0] * nreps  # +-1 per rep

    def constraints(upto: int) -> list[tuple[VecQ, Fraction]]:
        rows = []
        for r in range(upto):
            s = signs[r]
            rows.append((tuple(s * c for c in rep_coeffs[r]), s * rep_const[r]))
        return rows

    def extend(r: int) -> None:
        if len(out) > cap:
            raise EnumerationCapExceeded(f"more than {cap} feasible orthants")
        if r == nreps:
            t = feasible_strict(constraints(nreps), p)
            if t is None:
                raise RuntimeError("a feasible orthant lost its strict witness")
            X = S.point(t)
            eps = tuple(1 if x < 0 else 0 for x in X)
            out.append(Orthant(eps, tuple(t), X))
            return
        choices = (1, -1)
        if fc.rep_is_constant[r]:
            choices = (1,) if rep_const[r] > 0 else (-1,)
        for s in choices:
            signs[r] = s
            if feasible_strict(constraints(r + 1), p) is not None:
                extend(r + 1)
        signs[r] = 0

    extend(0)
    out.sort(key=lambda o: o.eps)
    return out


# ---------------------------------------------------------------------------
# Univariate polynomials over Q (dense, ascending coefficients)


def poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b != 0:
                out[i + j] += a * b
    return poly_trim(out)


def poly_sub(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] -= b
    return poly_trim(out)


def poly_pow(p: list[Fraction], e: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(e):
        out = poly_mul(out, p)
    return out


def poly_monomial(polys: Sequence[list[Fraction]], exps: Sequence[int]):
    """prod_j polys_j^exps_j as (numerator, denominator) polynomials."""
    num = [Fraction(1)]
    den = [Fraction(1)]
    for poly, e in zip(polys, exps):
        if e > 0:
            num = poly_mul(num, poly_pow(poly, e))
        elif e < 0:
            den = poly_mul(den, poly_pow(poly, -e))
    return num, den


def poly_gcd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    a, b = [list(p), list(q)]
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def poly_divmod(p: list[Fraction], q: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(rem) >= len(q):
        f = rem[-1] / q[-1]
        d = len(rem) - len(q)
        quot[d] = f
        for i, c in enumerate(q):
            rem[i + d] -= f * c
        poly_trim(rem)
        if not rem:
            break
    return poly_trim(quot), rem


@dataclass(frozen=True)
class RealRoot:
    value_float: float
    rational: Optional[Fraction]   # exact value when the root is rational
    sym: object                    # sympy expression for exact comparisons


def real_roots(p: Sequence[Fraction]) -> list[RealRoot]:
    """Distinct real roots of p, exactly (sympy isolation underneath)."""
    import sympy

    if len(p) <= 1:
        raise ValueError("constant polynomial has no well-defined root set")
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], x)
    out = []
    for r in set(sympy.real_roots(poly)):
        if r.is_rational:
            q = Fraction(int(sympy.numer(r)), int(sympy.denom(r)))
            out.append(RealRoot(float(q), q, r))
        else:
            out.append(RealRoot(float(r.evalf(30)), None, r))
    out.sort(key=lambda rr: rr.value_float)
    return out


def root_in_open_interval(root: RealRoot, lo, hi) -> bool:
    """Exact comparison of a RealRoot against rational/None (=infinite) bounds."""
    import sympy

    if root.rational is not None:
        v = root.rational
        if lo is not None and not v > lo:
            return False
        if hi is not None and not v < hi:
            return False
        return True
    v = root.sym
    if lo is not None and not bool(v > sympy.Rational(lo.numerator, lo.denominator)):
        return False
    if hi is not None and not bool(v < sympy.Rational(hi.numerator, hi.denominator)):
        return False
    return True


def interval_of_constraints(
    rows: list[tuple[Fraction, Fraction]]
) -> Optional[tuple[Optional[Fraction], Optional[Fraction]]]:
    """Intersection of strict constraints a*u + b > 0; None when empty."""
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    for a, b in rows:
        if a == 0:
            if b <= 0:
                return None
        elif a > 0:
            bound = -b / a
            lo = bound if lo is None else max(lo, bound)
        else:
            bound = -b / a
            hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None and lo >= hi:
        return None
    return lo, hi


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


def _sign_of_exponents(a_row: Sequence[int], eps: Sequence[int]) -> int:
    par = 0
    for aj, e in zip(a_row, eps):
        if e and aj % 2 != 0:
            par ^= 1
    return -1 if par else 1


def decide_condition_p(
    S: AffineSet,
    eps: Sequence[int],
    witness_t: Sequence[Fraction],
    exponents: Sequence[Sequence[int]],
    rhs: Sequence[Fraction],
    scale_gauge: bool,
    newton_seed: int = 0,
) -> PDecision:
    """Does some X in S with sign pattern eps satisfy |X|^a_i = rhs_i for all i?

    `exponents` are integer vectors a_i, `rhs` positive rationals.  Exact
    when the system is constant on the orthant or reduces to one variable;
    multi-start Newton otherwise.  `scale_gauge` requires S to be a cone
    and the system scale invariant, so one coordinate may be pinned to +-1.
    """
    if not exponents:
        X = S.point(witness_t)
        return PDecision(True, True, root_X=tuple(X), root_is_rational=True,
                         note="vacuous")
    fc = classify_functionals(S)
    m = S.ambient_dim

    # Constant-on-orthant detection: per proportionality class, the exponent
    # sums must vanish (then |X|^a depends only on the class scales).
    nreps = 1 + max(fc.class_of)
    all_constant = True
    for a_row in exponents:
        sums = [0] * nreps
        for j in range(m):
            sums[fc.class_of[j]] += a_row[j]
        for r in range(nreps):
            if sums[r] != 0 and not fc.rep_is_constant[r]:
                all_constant = False
    if all_constant:
        X0 = S.point(witness_t)
        if any(abs_monomial(X0, a_row) != r for a_row, r in zip(exponents, rhs)):
            return PDecision(False, True, note="constant mismatch")
        return PDecision(True, True, root_X=tuple(X0), root_is_rational=True,
                         note="constant")

    work_S = S
    if scale_gauge:
        if any(x != 0 for x in S.particular):
            raise ValueError("scale_gauge needs S to be a cone (zero particular point)")
        if any(sum(a_row) != 0 for a_row in exponents):
            raise ValueError("scale_gauge needs scale-invariant exponents (zero row sums)")
        work_S = gauge_slice(S, eps)

    if work_S.dim == 0:
        X = work_S.particular
        if not in_orthant(X, eps):
            return PDecision(False, True, note="slice point leaves orthant")
        if any(abs_monomial(X, a_row) != r for a_row, r in zip(exponents, rhs)):
            return PDecision(False, True, note="point mismatch")
        return PDecision(True, True, root_X=tuple(X), root_is_rational=True)

    if work_S.dim == 1:
        return _decide_univariate(work_S, eps, exponents, rhs)

    wt = tuple(witness_t) if work_S is S else orthant_witness(work_S, eps)
    if wt is None:
        raise RuntimeError("the gauge slice misses its orthant")
    return _newton_orthant(work_S, eps, exponents, rhs, wt, newton_seed)


def gauge_slice(S: AffineSet, eps: Sequence[int]) -> AffineSet:
    """Remove the scale gauge of the cone S: cut it by |X_pin| = 1 on orthant eps.

    X_pin is the first non-constant coordinate; every solution ray of a
    scale-invariant system meets the slice once.
    """
    pin = next(j for j in range(S.ambient_dim) if any(b[j] for b in S.basis))
    value = Fraction(-1 if eps[pin] else 1)
    coeffs = [b[pin] for b in S.basis]
    pivot = next(i for i, c in enumerate(coeffs) if c != 0)
    # t_pivot = (value - const - sum_{i != pivot} coeffs_i t_i) / coeffs_pivot
    cp = coeffs[pivot]
    bp = S.basis[pivot]
    f = (value - S.particular[pin]) / cp
    particular = tuple(x + f * y for x, y in zip(S.particular, bp))
    basis = tuple(tuple(x - (coeffs[i] / cp) * y for x, y in zip(b, bp))
                  for i, b in enumerate(S.basis) if i != pivot)
    return AffineSet(particular, basis)


def _decide_univariate(
    S: AffineSet, eps: Sequence[int], exponents, rhs
) -> PDecision:
    interval = interval_of_constraints(
        [(coeffs[0], const) for coeffs, const in orthant_rows(S, eps)])
    if interval is None:
        return PDecision(False, True, note="orthant misses slice")
    lo, hi = interval
    # Each coordinate is linear in u: X_j = B_j + A_j u.
    lin = [[S.particular[j], S.basis[0][j]] for j in range(S.ambient_dim)]
    common: Optional[list[Fraction]] = None
    for a_row, r in zip(exponents, rhs):
        num, den = poly_monomial(lin, a_row)
        s = _sign_of_exponents(a_row, eps)
        p = poly_sub(num, poly_mul([s * r], den))
        if not p:
            continue
        if len(p) == 1:
            return PDecision(False, True, note="inconsistent constant equation")
        common = p if common is None else poly_gcd(common, p)
        if len(common) == 1:
            return PDecision(False, True, note="no common root")
    if common is None:
        u = _pick_in_interval(lo, hi)
        X = S.point((u,))
        return PDecision(True, True, root_X=tuple(X), root_is_rational=True,
                         note="identically satisfied on slice")
    roots = [rt for rt in real_roots(common) if root_in_open_interval(rt, lo, hi)]
    if not roots:
        return PDecision(False, True, note="no root in orthant")
    for rt in roots:
        if rt.rational is not None:
            X = S.point((rt.rational,))
            return PDecision(True, True, root_X=tuple(X), root_is_rational=True)
    u = roots[0].value_float
    X = tuple(float(S.particular[j]) + float(S.basis[0][j]) * u
              for j in range(S.ambient_dim))
    return PDecision(True, True, root_X=X, root_is_rational=False,
                     note="irrational root")


def _pick_in_interval(lo: Optional[Fraction], hi: Optional[Fraction]) -> Fraction:
    if lo is None and hi is None:
        return Fraction(1)
    if lo is None:
        return hi - 1
    if hi is None:
        return lo + 1
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# Newton fallback (floats, numpy)


def _newton_orthant(
    S: AffineSet, eps, exponents, rhs, witness_t: Sequence[Fraction], seed: int
) -> PDecision:
    import numpy as np

    m = S.ambient_dim
    p = S.dim
    B = np.array([[float(b[j]) for b in S.basis] for j in range(m)])  # m x p
    x0 = np.array([float(x) for x in S.particular])
    A = np.array([[float(a) for a in row] for row in exponents])      # q x m
    logr = np.array([math.log(float(r)) for r in rhs])
    sgn = np.array([-1.0 if e else 1.0 for e in eps])
    w = np.array([float(v) for v in witness_t])

    def X_of(t):
        return x0 + B @ t

    def ok(t):
        X = X_of(t)
        return np.all(sgn * X > 1e-300)

    def F_of(t):
        X = X_of(t)
        return A @ np.log(np.abs(X)) - logr

    def J_of(t):
        X = X_of(t)
        return (A / X) @ B

    rng = np.random.default_rng(20240 + seed)
    best = None
    for trial in range(NEWTON_STARTS):
        if trial == 0:
            t = w.copy()
        else:
            scale = 10.0 ** rng.uniform(-1.0, 1.5)
            t = w + rng.normal(size=p) * scale * (1.0 + np.abs(w))
            # pull back toward the witness until inside the orthant
            mu = 1.0
            while not ok(t) and mu > 1e-8:
                mu *= 0.5
                t = w + mu * (t - w)
            if not ok(t):
                continue
        for _ in range(120):
            F = F_of(t)
            res = float(np.max(np.abs(F)))
            if res < NEWTON_TOL:
                break
            J = J_of(t)
            try:
                step = np.linalg.lstsq(J, -F, rcond=None)[0]
            except np.linalg.LinAlgError:
                break
            lam = 1.0
            while lam > 1e-12:
                tn = t + lam * step
                if ok(tn) and float(np.max(np.abs(F_of(tn)))) < res * (1 - 1e-4 * lam) + 1e-18:
                    break
                lam *= 0.5
            else:
                break
            t = tn
        if ok(t):
            res = float(np.max(np.abs(F_of(t))))
            if best is None or res < best[0]:
                best = (res, t.copy())
    if best is None or best[0] > NEWTON_TOL:
        note = "no Newton convergence" if best is None else f"best residual {best[0]:.2e}"
        return PDecision(False, False, note=note)
    t = best[1]
    # Try exact reconstruction coordinate by coordinate.
    cands = [_rational_candidates(v) for v in t]
    for combo in _product_capped(cands, 243):
        tq = tuple(combo)
        Xq = S.point(tq)
        if in_orthant(Xq, eps) and all(
                abs_monomial(Xq, a_row) == r for a_row, r in zip(exponents, rhs)):
            return PDecision(True, True, root_X=tuple(Xq), root_is_rational=True,
                             note="reconstructed")
    X = tuple(float(v) for v in X_of(t))
    return PDecision(True, False, root_X=X, root_is_rational=False,
                     note=f"numeric root, residual {best[0]:.2e}")


def _rational_candidates(v: float, max_den: int = RECONSTRUCT_DENOMINATOR_BOUND) -> list[Fraction]:
    out = []
    f = Fraction(v)
    for bound in (1, 12, 1000, max_den):
        q = f.limit_denominator(bound)
        if abs(float(q) - v) < 1e-6 and q not in out:
            out.append(q)
    return out or [f.limit_denominator(max_den)]


def _product_capped(lists, cap):
    from itertools import product as iproduct

    count = 1
    for l in lists:
        count *= max(1, len(l))
    if count > cap:
        lists = [l[:1] for l in lists]
    return iproduct(*lists)
