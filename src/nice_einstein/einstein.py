"""Existence of diagonal and sigma-diagonal metrics with Ric = (k/2) id.

The decision pipeline follows the four conditions: linear solvability of
the weight system, avoidance of the coordinate hyperplanes, a mod-2 sign
compatibility, and a multiplicative condition on kernel exponents.  Sign
patterns are enumerated exactly; the nonlinear condition is decided exactly
where it degenerates (constant or univariate) and by verified multi-start
Newton otherwise.  Every certificate carries the residual of the
independent curvature oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import NiceLieAlgebra, tilde_c
from .curvature import LieBrackets, diagonal_gram, einstein_residual, ricci_tensor, sigma_gram
from .diagram import Permutation, is_automorphism, root_matrix, sigma_arrow_action
from .linalg import (
    AffineSet,
    MatF2,
    MatQ,
    VecQ,
    f2_rank,
    f2_solve_all,
    kernel_basis,
    solve_affine,
    symmetric_signature,
    solve_multiplicative,
)
from .solver import (
    Orthant,
    classify_functionals,
    decide_condition_p,
    feasible_orthants,
)

DEFAULT_TOL = 1e-9

SignVec = tuple[int, ...]


def logsign(values: Sequence) -> SignVec:
    """0 for positive entries, 1 for negative; rejects zeros."""
    out = []
    for v in values:
        if v == 0:
            raise ValueError("logsign of zero")
        out.append(1 if v < 0 else 0)
    return tuple(out)


def delta_indices(delta: SignVec) -> tuple[int, ...]:
    return tuple(i + 1 for i, b in enumerate(delta) if b)


def delta_sort_key(delta: SignVec):
    idx = delta_indices(delta)
    return (len(idx), idx)


def format_delta(delta: SignVec) -> str:
    idx = delta_indices(delta)
    if not idx:
        return "∅"
    return "".join("0" if i == 10 else str(i) for i in idx)


def parse_delta(text: str, n: int) -> SignVec:
    """Inverse of format_delta: digit list with 0 for node 10."""
    out = [0] * n
    if text in ("", "∅"):
        return tuple(out)
    for ch in text:
        v = 10 if ch == "0" else int(ch)
        if not 1 <= v <= n:
            raise ValueError(f"node {v} out of range")
        out[v - 1] = 1
    return tuple(out)


# ---------------------------------------------------------------------------
# Ricci by the weight formula


def _metric_vector(g) -> tuple:
    if hasattr(g, "g"):
        return tuple(g.g)
    return tuple(g)


def ricci_diagonal(a: NiceLieAlgebra, g) -> tuple:
    """Diagonal of the Ricci operator of the diagonal metric g.

    X_I = c_I^2 prod_j g_j^(M_Ij); the operator is (1/2) tM X.
    """
    gv = _metric_vector(g)
    M, _ = root_matrix(a.diagram)
    X = _x_vector(a, gv, [cv * cv for cv in a.c], M)
    return _half_tm_x(M, X, a.n)


def ricci_sigma(a: NiceLieAlgebra, sigma: Permutation, g) -> tuple:
    """Diagonal of the Ricci operator of the sigma-diagonal metric g."""
    gv = _metric_vector(g)
    for i in range(a.n):
        if gv[i] != gv[sigma[i] - 1]:
            raise ValueError("metric coefficients are not sigma-invariant")
    M, _ = root_matrix(a.diagram)
    ct = tilde_c(a, sigma)
    X = _x_vector(a, gv, [cv * cw for cv, cw in zip(a.c, ct)], M)
    return _half_tm_x(M, X, a.n)


def _x_vector(a: NiceLieAlgebra, gv, weights, M: MatQ) -> list:
    X = []
    for row, w in zip(M.data, weights):
        val = w
        for j in range(a.n):
            e = int(row[j])
            if e == 1:
                val = val * gv[j]
            elif e == -1:
                val = val / gv[j]
        X.append(val)
    return X


def _half_tm_x(M: MatQ, X, n: int) -> tuple:
    out = []
    for j in range(n):
        s = sum(M.data[i][j] * X[i] for i in range(M.rows))
        out.append(s / 2)
    return tuple(out)


# ---------------------------------------------------------------------------
# Value types


@dataclass(frozen=True)
class DiagonalMetric:
    g: tuple
    delta: SignVec

    def gram(self):
        return diagonal_gram(list(self.g))


@dataclass(frozen=True)
class SigmaMetric:
    sigma: Permutation
    g: tuple
    delta: SignVec

    def gram(self):
        return sigma_gram(list(self.g), list(self.sigma))


@dataclass(frozen=True)
class MetricFreedom:
    """Positive multiplicative directions preserving X: integer kernel vectors."""

    exponents: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EinsteinCertificate:
    X: tuple
    k: Fraction
    delta: SignVec
    metric: object              # DiagonalMetric or SigmaMetric
    freedom: MetricFreedom
    oracle_residual: object     # Fraction(0) for exact, float for numeric
    exact: bool
    note: str = ""


@dataclass(frozen=True)
class SignatureReport:
    S: tuple[SignVec, ...]
    half_S: Optional[tuple[SignVec, ...]]
    by_signature: tuple[tuple[tuple[int, int], tuple[SignVec, ...]], ...]

    def half_S_strings(self) -> list[str]:
        return [format_delta(d) for d in (self.half_S or ())]

    def signature_sets(self) -> dict[tuple[int, int], list[str]]:
        return {pq: [format_delta(d) for d in ds] for pq, ds in self.by_signature}


@dataclass(frozen=True)
class ClassificationResult:
    algebra: Optional[str]
    mode: str                   # "diagonal" or "sigma"
    sigma: Optional[Permutation]
    k: Fraction
    success: bool
    failed_at: Optional[str]    # "K", "H", "L", "P"
    detail: str
    exact: bool
    certificates: tuple[EinsteinCertificate, ...]
    signatures: Optional[SignatureReport]
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Helper algebra shared by both modes


def _int_scale(v: VecQ) -> tuple[int, ...]:
    from math import gcd

    lcm = 1
    for x in v:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def condition_P_residual(X: Sequence, c: Sequence, alphas: Sequence[Sequence]) -> list[float]:
    """Log-form residuals sum_j a_ij (log|X_j| - 2 log|c_j|), as floats."""
    out = []
    for a_row in alphas:
        s = 0.0
        for aj, xj, cj in zip(a_row, X, c):
            if aj:
                s += float(aj) * (math.log(abs(float(xj))) - 2 * math.log(abs(float(cj))))
        out.append(s)
    return out


def condition_P_holds_exact(X: Sequence[Fraction], c: Sequence[Fraction],
                            alphas: Sequence[Sequence]) -> bool:
    """Exact multiplicative test |X|^a = |c|^(2a) for rational X."""
    for a_row in alphas:
        a_int = _int_scale(tuple(Fraction(x) for x in a_row))
        lhs = Fraction(1)
        rhs = Fraction(1)
        for aj, xj, cj in zip(a_int, X, c):
            if aj:
                lhs *= abs(Fraction(xj)) ** aj
                rhs *= abs(Fraction(cj)) ** (2 * aj)
        if lhs != rhs:
            return False
    return True


def halved_signatures(S) -> list[SignVec]:
    """One representative per complementary pair, ordered by (length, indices)."""
    items = sorted(set(tuple(d) for d in S), key=delta_sort_key)
    if not items:
        return []
    n = len(items[0])
    full = set(items)
    ones = tuple([1] * n)
    for d in items:
        comp = tuple(x ^ 1 for x in d)
        if comp not in full:
            raise ValueError(f"signature set is not closed under complement: {format_delta(d)}")
    out = []
    seen = set()
    for d in items:
        comp = tuple(x ^ 1 for x in d)
        if d in seen or comp in seen:
            continue
        seen.add(d)
        out.append(d)
    return out


def sigma_signature(metric: SigmaMetric) -> tuple[int, int]:
    """(p, q) of a sigma-diagonal metric; cross-checked on the Gram matrix."""
    sigma = metric.sigma
    n = len(sigma)
    t = sum(1 for i in range(1, n + 1) if sigma[i - 1] > i)
    p = t
    q = t
    for i in range(1, n + 1):
        if sigma[i - 1] == i:
            if metric.delta[i - 1]:
                q += 1
            else:
                p += 1
    if all(isinstance(x, Fraction) or isinstance(x, int) for x in metric.g):
        check = symmetric_signature(metric.gram())
        if check != (p, q):
            raise AssertionError("signature cross-check failed")
    return p, q


def _diag_signature(delta: SignVec) -> tuple[int, int]:
    w = sum(delta)
    return (len(delta) - w, w)


def _build_report(deltas: list[SignVec], pq_of) -> SignatureReport:
    S = tuple(sorted(set(deltas), key=delta_sort_key))
    try:
        half = tuple(halved_signatures(S))
    except ValueError:
        half = None
    groups: dict[tuple[int, int], list[SignVec]] = {}
    for d in S:
        groups.setdefault(pq_of(d), []).append(d)
    by_sig = tuple(
        (pq, tuple(sorted(ds, key=delta_sort_key)))
        for pq, ds in sorted(groups.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
    )
    return SignatureReport(S, half, by_sig)


# ---------------------------------------------------------------------------
# Metric recovery


def recover_metric(
    a: NiceLieAlgebra,
    X: Sequence,
    delta: SignVec,
    sigma: Optional[Permutation] = None,
):
    """Metric with the given X and sign pattern, plus its gauge freedom.

    Solves prod_j g_j^(M_Ij) = X_I / c_I^2 (or X_I/(c_I c~_I) for sigma)
    multiplicatively; exact through the Smith form when X is rational and no
    fractional powers arise, in log space (floats) otherwise.
    """
    M, M2 = root_matrix(a.diagram)
    idx = a.indices()
    if a.m == 0:
        if sigma is not None and any(delta[i] != delta[sigma[i] - 1] for i in range(a.n)):
            raise ValueError("sign pattern is not sigma-invariant")
        g = tuple(Fraction(-1 if d else 1) for d in delta)
        freedom = MetricFreedom(tuple(
            tuple(int(i == j) for j in range(a.n)) for i in range(a.n)))
        metric = DiagonalMetric(g, tuple(delta)) if sigma is None else \
            SigmaMetric(sigma, g, tuple(delta))
        return metric, freedom
    if sigma is None:
        weights = [cv * cv for cv in a.c]
    else:
        ct = tilde_c(a, sigma)
        weights = [cv * cw for cv, cw in zip(a.c, ct)]
        for i in range(a.n):
            if delta[i] != delta[sigma[i] - 1]:
                raise ValueError("sign pattern is not sigma-invariant")
    rows = M.to_int_rows()
    exact_X = all(isinstance(x, (Fraction, int)) for x in X)
    if exact_X:
        rhs = [Fraction(x) / w for x, w in zip(X, weights)]
        target = logsign(rhs)
        check = M2.mul_vec(delta)
        if tuple(check) != target:
            raise ValueError("sign pattern violates the mod-2 condition")
    # Free positive directions: rational kernel of M (or its sigma-invariant part).
    ker = kernel_basis(M)
    if sigma is not None:
        stacked = _sigma_invariant_kernel_nodes(M, sigma)
        ker = stacked
    freedom = MetricFreedom(tuple(_int_scale(v) for v in ker))

    if sigma is None:
        if exact_X:
            g = solve_multiplicative(rows, [abs(r) for r in rhs])
            if g is not None:
                signed = tuple((-1 if d else 1) * x for d, x in zip(delta, g))
                return DiagonalMetric(signed, delta), freedom
        g = _log_solve(rows, X, weights, delta)
        return DiagonalMetric(g, delta), freedom

    # sigma case: collapse columns to sigma-orbits to force invariance.
    orbits = _orbits(sigma)
    orb_of = {}
    for o_i, orb in enumerate(orbits):
        for v in orb:
            orb_of[v] = o_i
    collapsed = [[sum(row[v - 1] for v in orb) for orb in orbits] for row in rows]
    if exact_X:
        g_orb = solve_multiplicative(collapsed, [abs(r) for r in rhs])
        if g_orb is not None:
            g = tuple(
                (-1 if delta[i] else 1) * g_orb[orb_of[i + 1]] for i in range(a.n)
            )
            return SigmaMetric(sigma, g, delta), freedom
    g = _log_solve(collapsed, X, weights, delta, expand=(orb_of, a.n))
    return SigmaMetric(sigma, g, delta), freedom


def _orbits(sigma: Permutation) -> list[tuple[int, ...]]:
    n = len(sigma)
    out = []
    seen = set()
    for v in range(1, n + 1):
        if v in seen:
            continue
        orb = tuple(sorted({v, sigma[v - 1]}))
        seen.update(orb)
        out.append(orb)
    return out


def _sigma_invariant_kernel_nodes(M: MatQ, sigma: Permutation) -> list[VecQ]:
    n = M.cols
    rows = [list(r) for r in M.data]
    for v in range(1, n + 1):
        w = sigma[v - 1]
        if w > v:
            extra = [Fraction(0)] * n
            extra[v - 1] = Fraction(1)
            extra[w - 1] = Fraction(-1)
            rows.append(extra)
    return kernel_basis(MatQ.from_rows(rows))


def _log_solve(rows, X, weights, delta, expand=None):
    """Least-squares log-space solve; returns float metric coefficients."""
    import numpy as np

    A = np.array([[float(x) for x in row] for row in rows])
    b = np.array([
        math.log(abs(float(x))) - math.log(abs(float(w)))
        for x, w in zip(X, weights)
    ])
    w, *_ = np.linalg.lstsq(A, b, rcond=None)
    mags = np.exp(w)
    if expand is None:
        return tuple(
            (-1.0 if d else 1.0) * float(m) for d, m in zip(delta, mags)
        )
    orb_of, n = expand
    return tuple(
        (-1.0 if delta[i] else 1.0) * float(mags[orb_of[i + 1]]) for i in range(n)
    )


# ---------------------------------------------------------------------------
# The decision pipeline


def _oracle_residual(a: NiceLieAlgebra, metric, k: Fraction):
    """Max |Ric - (k/2) id| entry straight from the curvature oracle."""
    B = LieBrackets.from_nice(a)
    exact = all(isinstance(x, (Fraction, int)) for x in metric.g)
    _, op = ricci_tensor(B, metric.gram())
    return einstein_residual(op, Fraction(k, 2) if exact else float(k) / 2.0), exact


def _normalize_ray(X: VecQ, scale_invariant: bool) -> VecQ:
    if not scale_invariant:
        return X
    lead = abs(X[0])
    if lead == 0:
        return X
    return tuple(x / lead for x in X)


@dataclass
class _Winner:
    eps: tuple[int, ...]
    deltas: list[SignVec]
    dec: object
    scale_gauge: bool


@dataclass
class _Search:
    """Shared state of the slice-and-branch exploration of the pipeline."""

    base_rows: list
    base_rhs: list
    l_system: MatF2
    shift: tuple[int, ...]
    alphas: list
    p_rhs: list
    k: Fraction
    m: int
    winners: list = None
    blockers: set = None
    blocker_notes: dict = None
    inexact: bool = False
    seed: int = 0
    warnings: list = None

    def __post_init__(self):
        self.winners = []
        self.blockers = set()
        self.blocker_notes = {}
        self.warnings = []

    def block(self, cond: str, note: str) -> None:
        self.blockers.add(cond)
        self.blocker_notes.setdefault(cond, note)


def _binomial_pattern(fc, a_row, R: Fraction):
    """Reduce |X|^a = R to linear slices when its t-content is binomial.

    Returns ("constant", satisfied), ("slices", [(coeff_row, rhs), ...])
    with X-space constraint rows, or None when not reducible.
    """
    m = len(a_row)
    kappa = Fraction(R)
    sums: dict[int, int] = {}
    for j in range(m):
        aj = a_row[j]
        if aj == 0:
            continue
        kappa /= fc.scale[j] ** aj
        r = fc.class_of[j]
        if not fc.rep_is_constant[r]:
            sums[r] = sums.get(r, 0) + aj
    live = {r: e for r, e in sums.items() if e != 0}
    if not live:
        return ("constant", kappa == 1)
    rep_coord = {}
    for j in range(m):
        rep_coord.setdefault(fc.class_of[j], j)
    if len(live) == 1:
        (r, e), = live.items()
        d = abs(e)
        target = kappa if e > 0 else 1 / kappa
        root = _rational_root(target, d)
        if root is None:
            return None
        j = rep_coord[r]
        # |X_j| = scale_j * |rep_r| and rep_r = +-root
        val = fc.scale[j] * root
        row = [Fraction(0)] * m
        row[j] = Fraction(1)
        sgn = fc.orient[j]
        return ("slices", [(row, sgn * val), (row, -sgn * val)])
    if len(live) == 2:
        (r1, e1), (r2, e2) = sorted(live.items())
        if e1 + e2 != 0:
            return None
        if e1 < 0:
            (r1, e1), (r2, e2) = (r2, e2), (r1, e1)
        root = _rational_root(kappa, e1)
        if root is None:
            return None
        # |rep_r1| = root * |rep_r2| with rep_r = X_j / (orient_j scale_j)
        j1, j2 = rep_coord[r1], rep_coord[r2]
        slices = []
        for s in (1, -1):
            row = [Fraction(0)] * m
            row[j1] = Fraction(1) / (fc.orient[j1] * fc.scale[j1])
            row[j2] = -s * root / (fc.orient[j2] * fc.scale[j2])
            slices.append((row, Fraction(0)))
        return ("slices", slices)
    return None


def _rational_root(q: Fraction, d: int) -> Optional[Fraction]:
    """The positive rational d-th root of q > 0, or None."""
    if d == 1:
        return q
    from sympy import integer_nthroot

    rn, okn = integer_nthroot(q.numerator, d)
    rd, okd = integer_nthroot(q.denominator, d)
    if okn and okd:
        return Fraction(int(rn), int(rd))
    return None


def _explore(ctx: _Search, extra_rows: list, extra_rhs: list,
             remaining: tuple[int, ...], depth: int) -> None:
    system = MatQ.from_rows(ctx.base_rows + extra_rows)
    aff = solve_affine(system, list(ctx.base_rhs) + list(extra_rhs))
    if aff is None:
        ctx.block("H", "a forced linear slice is inconsistent")
        return
    dead = [j for j in range(ctx.m)
            if aff.particular[j] == 0 and all(b[j] == 0 for b in aff.basis)]
    if dead:
        names = ", ".join(f"X_{j + 1}" for j in dead)
        ctx.block("H", f"coordinate(s) {names} vanish identically")
        return
    fc = classify_functionals(aff)

    # Exact reduction: consume constant equations, branch on binomial ones.
    rest = list(remaining)
    for ei in list(rest):
        pat = _binomial_pattern(fc, ctx.alphas[ei], ctx.p_rhs[ei])
        if pat is None:
            continue
        kind, payload = pat
        if kind == "constant":
            if not payload:
                ctx.block("P", "an exponent equation is constant and violated")
                return
            rest.remove(ei)
            continue
        rest.remove(ei)
        for row, rv in payload:
            _explore(ctx, extra_rows + [row], extra_rhs + [rv],
                     tuple(rest), depth + 1)
        return

    # Leaf: enumerate orthants, filter mod 2, then solve what remains.
    scale_gauge = (ctx.k == 0 and all(x == 0 for x in aff.particular)
                   and all(sum(ctx.alphas[ei]) == 0 for ei in rest))
    for o in feasible_orthants(aff):
        eps = tuple(e ^ s for e, s in zip(o.eps, ctx.shift))
        target = list(eps) + [0] * (ctx.l_system.rows - ctx.m)
        deltas = f2_solve_all(ctx.l_system, target)
        if not deltas:
            ctx.block("L", "a feasible sign pattern is not attainable mod 2")
            continue
        ctx.seed += 1
        dec = decide_condition_p(
            aff, o.eps, o.witness_t,
            [ctx.alphas[ei] for ei in rest], [ctx.p_rhs[ei] for ei in rest],
            scale_gauge, newton_seed=ctx.seed)
        if dec.solvable:
            ctx.winners.append(_Winner(o.eps, deltas, dec, scale_gauge))
        else:
            ctx.block("P", dec.note or "exponent condition unsolvable on an orthant")
            if not dec.exact:
                ctx.inexact = True
                ctx.warnings.append(
                    f"orthant {''.join(map(str, o.eps))}: "
                    f"numeric-grade unsolvability ({dec.note})")


def _classify(
    a: NiceLieAlgebra,
    k: Fraction,
    sigma: Optional[Permutation],
    tol: float,
) -> ClassificationResult:
    mode = "diagonal" if sigma is None else "sigma"
    M, M2 = root_matrix(a.diagram)

    if sigma is not None:
        if not is_automorphism(a.diagram, sigma):
            raise ValueError("sigma is not a diagram automorphism")
        if any(sigma[sigma[v - 1] - 1] != v for v in range(1, a.n + 1)):
            raise ValueError("sigma is not an involution")

    if a.m == 0:
        return _abelian_result(a, k, sigma, tol)

    # (K): the affine solution set, restricted sigma-invariant when needed.
    if sigma is None:
        base_rows = [list(r) for r in M.transpose().data]
        base_rhs = [k] * a.n
    else:
        mapping, _ = sigma_arrow_action(a.diagram, sigma)
        base_rows = [list(r) for r in M.transpose().data]
        base_rhs = [k] * a.n
        for p_i in range(a.m):
            q_i = mapping[p_i]
            if q_i > p_i:
                extra = [Fraction(0)] * a.m
                extra[p_i] = Fraction(1)
                extra[q_i] = Fraction(-1)
                base_rows.append(extra)
                base_rhs.append(Fraction(0))
    aff = solve_affine(MatQ.from_rows(base_rows), base_rhs)
    if aff is None:
        return ClassificationResult(
            a.name, mode, sigma, k, False, "K",
            "the weight system tM X = [k] has no solution"
            + ("" if sigma is None else " with X sigma-invariant"),
            True, (), None)
    dead = [j for j in range(a.m)
            if aff.particular[j] == 0 and all(b[j] == 0 for b in aff.basis)]
    if dead:
        names = ", ".join(f"X_{j + 1}" for j in dead)
        extra_note = ""
        if sigma is not None and aff.dim == 0 and all(x == 0 for x in aff.particular):
            extra_note = " (the sigma-invariant solution space is trivial)"
        return ClassificationResult(
            a.name, mode, sigma, k, False, "H",
            f"coordinate(s) {names} vanish identically on the solution set"
            + extra_note,
            True, (), None)

    # (L) data: mod-2 system with sigma-invariance of delta where needed.
    if sigma is None:
        l_system = M2
        shift = tuple([0] * a.m)
    else:
        ct = tilde_c(a, sigma)
        shift = tuple((1 if cv < 0 else 0) ^ (1 if cw < 0 else 0)
                      for cv, cw in zip(a.c, ct))
        extra_rows = []
        for v in range(1, a.n + 1):
            w = sigma[v - 1]
            if w > v:
                row = [0] * a.n
                row[v - 1] = 1
                row[w - 1] = 1
                extra_rows.append(row)
        l_system = M2.stack(MatF2.from_rows(extra_rows)) if extra_rows else M2

    # (P) data: kernel-exponent equations over the sigma-restricted kernel.
    alphas = [_int_scale(v) for v in aff.basis]
    p_rhs = []
    for a_row in alphas:
        val = Fraction(1)
        for aj, cv in zip(a_row, a.c):
            if aj:
                val *= abs(cv) ** (2 * aj)
        p_rhs.append(val)

    ctx = _Search(base_rows, base_rhs, l_system, shift, alphas, p_rhs, k, a.m)
    _explore(ctx, [], [], tuple(range(len(alphas))), 0)

    if ctx.winners:
        certs = []
        deltas_all = []
        seen = set()
        for w in sorted(ctx.winners, key=lambda w: w.eps):
            X = w.dec.root_X
            if w.dec.root_is_rational:
                X = _normalize_ray(tuple(Fraction(x) for x in X), w.scale_gauge)
            for d in w.deltas:
                deltas_all.append(d)
                if d in seen:
                    continue
                seen.add(d)
                certs.append(_certificate(a, X, d, k, sigma, w.dec, tol,
                                          ctx.warnings))
        pq_of = (lambda d: _diag_signature(d)) if sigma is None else (
            lambda d: sigma_signature(SigmaMetric(sigma, tuple(
                Fraction(-1 if b else 1) for b in d), d)))
        report = _build_report(deltas_all, pq_of)
        certs.sort(key=lambda cc: delta_sort_key(cc.delta))
        return ClassificationResult(
            a.name, mode, sigma, k, True, None, "", all(c.exact for c in certs),
            tuple(certs), report, tuple(ctx.warnings))

    # No winner: blame the deepest pipeline condition that blocked a branch,
    # mirroring the by-hand elimination order (slices first, then signs,
    # then the residual exponent condition).
    for cond in ("P", "L", "H"):
        if cond in ctx.blockers:
            return ClassificationResult(
                a.name, mode, sigma, k, False, cond,
                ctx.blocker_notes[cond], not ctx.inexact, (), None,
                tuple(ctx.warnings))
    return ClassificationResult(
        a.name, mode, sigma, k, False, "H",
        "no sign-feasible candidate exists", True, (), None,
        tuple(ctx.warnings))


def _certificate(a, X, delta, k, sigma, dec, tol, warnings) -> EinsteinCertificate:
    exact_X = dec.root_is_rational
    metric, freedom = recover_metric(a, X, delta, sigma)
    residual, exact_metric = _oracle_residual(a, metric, k)
    exact = exact_X and exact_metric
    if exact and residual != 0:
        raise AssertionError("exact certificate failed the curvature oracle")
    if not exact and float(abs(residual)) > tol:
        warnings.append(
            f"numeric certificate for delta={format_delta(delta)} has oracle "
            f"residual {float(residual):.3e} above tolerance {tol:g}")
    return EinsteinCertificate(
        tuple(X), k, delta, metric, freedom, residual, exact, dec.note)


def _abelian_result(a, k, sigma, tol) -> ClassificationResult:
    mode = "diagonal" if sigma is None else "sigma"
    if k != 0:
        return ClassificationResult(
            a.name, mode, sigma, k, False, "K",
            "an abelian algebra is flat, so only k = 0 is solvable",
            True, (), None)
    from itertools import product as iproduct

    if a.n > 12:
        raise ValueError("abelian signature enumeration capped at n = 12")
    deltas = []
    certs = []
    for bits in iproduct((0, 1), repeat=a.n):
        if sigma is not None and any(bits[i] != bits[sigma[i] - 1] for i in range(a.n)):
            continue
        delta = tuple(bits)
        deltas.append(delta)
        g = tuple(Fraction(-1 if b else 1) for b in delta)
        metric = (DiagonalMetric(g, delta) if sigma is None
                  else SigmaMetric(sigma, g, delta))
        certs.append(EinsteinCertificate(
            (), Fraction(0), delta, metric,
            MetricFreedom(tuple(tuple(int(i == j) for j in range(a.n))
                                for i in range(a.n))),
            Fraction(0), True, "abelian"))
    pq_of = (lambda d: _diag_signature(d)) if sigma is None else (
        lambda d: sigma_signature(SigmaMetric(sigma, tuple(
            Fraction(-1 if b else 1) for b in d), d)))
    report = _build_report(deltas, pq_of)
    return ClassificationResult(
        a.name, mode, sigma, Fraction(0), True, None, "flat", True,
        tuple(certs), report)


def diagonal_einstein(a: NiceLieAlgebra, k=0, tol: float = DEFAULT_TOL) -> ClassificationResult:
    """Decide existence of a diagonal metric with Ric = (k/2) id."""
    return _classify(a, Fraction(k), None, tol)


def sigma_einstein(a: NiceLieAlgebra, sigma: Permutation, k=0,
                   tol: float = DEFAULT_TOL) -> ClassificationResult:
    """Decide existence of a sigma-diagonal metric with Ric = (k/2) id."""
    return _classify(a, Fraction(k), sigma, tol)


def sufficient_condition(a: NiceLieAlgebra, k) -> bool:
    """Linear sufficient test for an Einstein metric with nonzero curvature.

    True iff the mod-2 weight matrix is surjective and the weight system
    admits a solution off the coordinate hyperplanes.
    """
    k = Fraction(k)
    if k == 0:
        raise ValueError("the sufficient condition applies to k != 0 only")
    M, M2 = root_matrix(a.diagram)
    if a.m == 0:
        return False
    if f2_rank(M2) != a.m:
        return False
    aff = solve_affine(M.transpose(), [k] * a.n)
    if aff is None:
        return False
    for j in range(a.m):
        if aff.particular[j] == 0 and all(b[j] == 0 for b in aff.basis):
            return False
    return True


# ---------------------------------------------------------------------------
# One-parameter families


def parameter_solve(
    family,
    sigma: Optional[Permutation] = None,
    k=0,
    tol: float = DEFAULT_TOL,
) -> list[Fraction]:
    """Parameter values at which the family admits the requested metric.

    The family must have exactly one unresolved parameter; it is treated as
    an extra unknown of the exponent condition, solved per orthant and per
    sign region of the parameter, and every candidate value is re-validated
    by running the exact pipeline on the substituted algebra.  Regions on
    which the condition holds identically (families Einstein for every
    parameter value) contribute no isolated values.
    """
    k = Fraction(k)
    params = family.params()
    if len(params) != 1:
        raise ValueError(f"need exactly one unresolved parameter, got {params}")
    pname = params[0]

    # Sign regions of the parameter: between roots of the affine coefficients.
    breakpoints = set()
    for (_, _, _, coeff) in family.terms:
        lin = dict(coeff.linear)
        q = lin.get(pname, Fraction(0))
        if q != 0:
            breakpoints.add(-coeff.const / q)
    pts = sorted(breakpoints)
    regions: list[tuple[Optional[Fraction], Optional[Fraction]]] = []
    if not pts:
        regions.append((None, None))
    else:
        regions.append((None, pts[0]))
        for lo, hi in zip(pts, pts[1:]):
            regions.append((lo, hi))
        regions.append((pts[-1], None))

    def region_sample(lo, hi) -> Fraction:
        if lo is None and hi is None:
            return Fraction(1)
        if lo is None:
            return hi - 1
        if hi is None:
            return lo + 1
        return (lo + hi) / 2

    found: set[Fraction] = set()
    irrational_notes: list[str] = []
    for lo, hi in regions:
        sample = region_sample(lo, hi)
        try:
            probe = family.substitute({pname: sample})
        except Exception:
            continue
        for u in _solve_region(probe, family, pname, sigma, k, lo, hi, sample):
            found.add(u)

    confirmed = []
    for u in sorted(found):
        alg = family.substitute({pname: u})
        res = (diagonal_einstein(alg, k, tol) if sigma is None
               else sigma_einstein(alg, sigma, k, tol))
        if res.success:
            confirmed.append(u)
    return confirmed


def _solve_region(probe: NiceLieAlgebra, family, pname, sigma, k,
                  lo, hi, sample) -> list[Fraction]:
    """Candidate parameter values in one sign region (exact where possible)."""
    from .solver import (
        _slice_coordinate, classify_functionals, poly_gcd, poly_mul,
        poly_pow, poly_sub, real_roots, root_in_open_interval,
    )

    M, M2 = root_matrix(probe.diagram)
    if probe.m == 0:
        return []
    if sigma is None:
        system = M.transpose()
        rhs = [k] * probe.n
        l_system = M2
        shift = tuple([0] * probe.m)
    else:
        mapping, _ = sigma_arrow_action(probe.diagram, sigma)
        rows = [list(r) for r in M.transpose().data]
        rhs = [k] * probe.n
        for p_i in range(probe.m):
            q_i = mapping[p_i]
            if q_i > p_i:
                extra = [Fraction(0)] * probe.m
                extra[p_i] = Fraction(1)
                extra[q_i] = Fraction(-1)
                rows.append(extra)
                rhs.append(Fraction(0))
        system = MatQ.from_rows(rows)
        ct = tilde_c(probe, sigma)
        shift = tuple((1 if cv < 0 else 0) ^ (1 if cw < 0 else 0)
                      for cv, cw in zip(probe.c, ct))
        extra_rows = []
        for v in range(1, probe.n + 1):
            w = sigma[v - 1]
            if w > v:
                row = [0] * probe.n
                row[v - 1] = 1
                row[w - 1] = 1
                extra_rows.append(row)
        l_system = M2.stack(MatF2.from_rows(extra_rows)) if extra_rows else M2

    aff = solve_affine(system, rhs)
    if aff is None:
        return []
    if any(aff.particular[j] == 0 and all(b[j] == 0 for b in aff.basis)
           for j in range(probe.m)):
        return []
    orthants = feasible_orthants(aff)
    alphas = [_int_scale(v) for v in aff.basis]
    scale_invariant = (k == 0) and all(sum(r) == 0 for r in alphas)

    # Coefficients of the family at the arrow order (affine in the parameter).
    order = probe.indices()
    coeff_of = {(i, j, t): coeff for (i, j, t, coeff) in family.terms}
    c_affine = [coeff_of[idxv] for idxv in order]

    out: list[Fraction] = []
    for seed, o in enumerate(orthants):
        eps = tuple(e ^ s for e, s in zip(o.eps, shift))
        target = list(eps) + [0] * (l_system.rows - probe.m)
        if not f2_solve_all(l_system, target):
            continue
        # Reduce the X side exactly as in the fixed-parameter pipeline.
        work = aff
        if scale_invariant and aff.dim >= 1:
            fc = classify_functionals(aff)
            pin = next(j for j in range(probe.m) if any(fc.coeffs[j]))
            sliced = _slice_coordinate(aff, pin, Fraction(-1 if o.eps[pin] else 1))
            if sliced is not None:
                work = sliced
        if work.dim == 0:
            X0 = work.particular
            if any(x == 0 or (x < 0) != bool(e) for x, e in zip(X0, o.eps)):
                continue
            # Univariate polynomial system in the parameter.
            common = None
            sat = True
            for a_row in alphas:
                lhs = Fraction(1)
                for aj, xj in zip(a_row, X0):
                    if aj:
                        lhs *= abs(xj) ** aj
                num = [Fraction(1)]
                den = [Fraction(1)]
                for aj, cf in zip(a_row, c_affine):
                    linpoly = _affine_poly(cf, pname)
                    if aj > 0:
                        num = poly_mul(num, poly_pow(linpoly, 2 * aj))
                    elif aj < 0:
                        den = poly_mul(den, poly_pow(linpoly, -2 * aj))
                p = poly_sub(poly_mul([lhs], den), num)
                if not p:
                    continue
                if len(p) == 1:
                    sat = False
                    break
                common = p if common is None else poly_gcd(common, p)
                if len(common) == 1:
                    sat = False
                    break
            if not sat:
                continue
            if common is None:
                continue  # satisfied for the whole region: nothing to pin down
            for rt in real_roots(common):
                if not root_in_open_interval(rt, lo, hi):
                    continue
                if rt.rational is not None:
                    out.append(rt.rational)
        else:
            out.extend(_newton_parameter(work, o, alphas, c_affine, pname,
                                         lo, hi, sample, seed))
    return out


def _affine_poly(coeff, pname) -> list[Fraction]:
    lin = dict(coeff.linear)
    return [coeff.const, lin.get(pname, Fraction(0))]


def _newton_parameter(work: AffineSet, o: Orthant, alphas, c_affine, pname,
                      lo, hi, sample, seed) -> list[Fraction]:
    """Joint Newton in (t, u); returns exactly reconstructed parameter values."""
    import numpy as np

    m = work.ambient_dim
    p = work.dim
    B = np.array([[float(b[j]) for b in work.basis] for j in range(m)])
    x0 = np.array([float(x) for x in work.particular])
    A = np.array([[float(x) for x in row] for row in alphas])
    sgn = np.array([-1.0 if e else 1.0 for e in o.eps])
    cp = np.array([float(c.const) for c in c_affine])
    cq = np.array([float(dict(c.linear).get(pname, 0)) for c in c_affine])
    lo_f = -math.inf if lo is None else float(lo)
    hi_f = math.inf if hi is None else float(hi)

    from .solver import _witness_on
    try:
        wt = _witness_on(work, o.eps)
    except AssertionError:
        return []
    w0 = np.array([float(v) for v in wt] + [float(sample)])

    def split(z):
        return z[:p], z[p]

    def ok(z):
        t, u = split(z)
        X = x0 + B @ t
        if not np.all(sgn * X > 1e-300):
            return False
        if not (lo_f < u < hi_f):
            return False
        return np.all(np.abs(cp + cq * u) > 1e-300)

    def F_of(z):
        t, u = split(z)
        X = x0 + B @ t
        cvals = cp + cq * u
        return A @ (np.log(np.abs(X)) - 2 * np.log(np.abs(cvals)))

    def J_of(z):
        t, u = split(z)
        X = x0 + B @ t
        cvals = cp + cq * u
        Jt = (A / X) @ B
        Ju = (A @ (-2 * cq / cvals)).reshape(-1, 1)
        return np.hstack([Jt, Ju])

    rng = np.random.default_rng(77000 + seed)
    roots = []
    for trial in range(32):
        if trial == 0:
            z = w0.copy()
        else:
            z = w0 + rng.normal(size=p + 1) * (10.0 ** rng.uniform(-1, 1)) * (1 + np.abs(w0))
            mu = 1.0
            while not ok(z) and mu > 1e-8:
                mu *= 0.5
                z = w0 + mu * (z - w0)
            if not ok(z):
                continue
        for _ in range(150):
            F = F_of(z)
            res = float(np.max(np.abs(F)))
            if res < 1e-12:
                break
            J = J_of(z)
            try:
                step = np.linalg.lstsq(J, -F, rcond=None)[0]
            except np.linalg.LinAlgError:
                break
            lam = 1.0
            while lam > 1e-12:
                zn = z + lam * step
                if ok(zn) and float(np.max(np.abs(F_of(zn)))) < res:
                    break
                lam *= 0.5
            else:
                break
            z = zn
        if not ok(z) or float(np.max(np.abs(F_of(z)))) > 1e-10:
            continue
        u = float(z[p])
        from .solver import _rational_candidates
        for cand in _rational_candidates(u):
            if lo is not None and not cand > lo:
                continue
            if hi is not None and not cand < hi:
                continue
            roots.append(cand)
    return sorted(set(roots))
