"""Existence of diagonal and sigma-diagonal metrics with Ric = (k/2) id.

The decision pipeline follows the four conditions: linear solvability of
the weight system, avoidance of the coordinate hyperplanes, a mod-2 sign
compatibility, and a multiplicative condition on kernel exponents.  Sign
patterns are enumerated exactly; the nonlinear condition is decided exactly,
directly where it degenerates and otherwise by a lex Groebner basis of the
cleared system (`solver._p_basis`), which also yields the candidate values
of a family parameter.  Every certificate carries the residual of the
independent curvature oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .algebra import NiceLieAlgebra, ParseError, tilde_c
from .curvature import LieBrackets, diagonal_gram, einstein_residual, ricci_tensor, sigma_gram
from .diagram import Permutation, root_matrix, sigma_arrow_action
from .linalg import (
    AffineSet,
    F2Reduction,
    MatF2,
    MatQ,
    MultiplicativeSystem,
    VecQ,
    _int_scale,
    _rational_root,
    kernel_basis,
    solve_affine,
    symmetric_signature,
)
from .solver import (
    _eliminant_roots,
    _leaf_basis,
    _p_leaf,
    abs_monomial,
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
    X = _x_vector(a, gv, _weights(a, None), M)
    return _half_tm_x(M, X, a.n)


def ricci_sigma(a: NiceLieAlgebra, sigma: Permutation, g) -> tuple:
    """Diagonal of the Ricci operator of the sigma-diagonal metric g."""
    gv = _metric_vector(g)
    if not _sigma_invariant(gv, sigma):
        raise ValueError("metric coefficients are not sigma-invariant")
    M, _ = root_matrix(a.diagram)
    X = _x_vector(a, gv, _weights(a, sigma), M)
    return _half_tm_x(M, X, a.n)


def _weights(a: NiceLieAlgebra, sigma: Optional[Permutation]) -> list:
    """w_I in X_I = w_I prod_j g_j^(M_Ij): c_I^2, or c_I c~_I for sigma.

    Raises ValueError unless sigma is an involutive diagram automorphism.
    """
    if sigma is None:
        return [cv * cv for cv in a.c]
    return [cv * cw for cv, cw in zip(a.c, tilde_c(a, sigma))]


def _sigma_invariant(v: Sequence, sigma: Permutation) -> bool:
    return all(v[i] == v[sigma[i] - 1] for i in range(len(sigma)))


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
        if abs_monomial(X, a_int) != abs_monomial(c, a_int) ** 2:
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


def _signature_of(delta: SignVec, sigma: Optional[Permutation]) -> tuple[int, int]:
    if sigma is None:
        w = sum(delta)
        return (len(delta) - w, w)
    return sigma_signature(SigmaMetric(
        sigma, tuple(Fraction(-1 if b else 1) for b in delta), delta))


def _build_report(deltas: list[SignVec], sigma: Optional[Permutation]) -> SignatureReport:
    S = tuple(sorted(set(deltas), key=delta_sort_key))
    try:
        half = tuple(halved_signatures(S))
    except ValueError:
        half = None
    groups: dict[tuple[int, int], list[SignVec]] = {}
    for d in S:
        groups.setdefault(_signature_of(d, sigma), []).append(d)
    by_sig = tuple(
        (pq, tuple(sorted(ds, key=delta_sort_key)))
        for pq, ds in sorted(groups.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
    )
    return SignatureReport(S, half, by_sig)


# ---------------------------------------------------------------------------
# Metric recovery


@dataclass(frozen=True)
class _Recovery:
    """What metric recovery needs of one (algebra, sigma), whatever X and delta.

    `rows` are the integer rows of M, or for sigma M's columns summed over
    each sigma-orbit, which forces an invariant metric; `orb_of` maps a
    node to its orbit (sigma only).  `system` is the multiplicative system
    on `rows`, prepared once.  `by_ray` holds what `solve` found for each X.
    """

    M2: MatF2
    weights: list
    rows: list
    orb_of: Optional[dict]
    freedom: MetricFreedom
    system: MultiplicativeSystem
    by_ray: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, a: NiceLieAlgebra, sigma: Optional[Permutation]) -> "_Recovery":
        M, M2 = root_matrix(a.diagram)
        weights = _weights(a, sigma)
        rows = M.to_int_rows()
        orb_of = None
        # Free positive directions: rational kernel of M (or its sigma-invariant part).
        if sigma is None:
            ker = kernel_basis(M)
        else:
            ker = kernel_basis(MatQ.from_rows(
                list(M.data) + _difference_rows(_node_pairs(sigma), a.n)))
            orbits = _orbits(sigma)
            orb_of = {v: o_i for o_i, orb in enumerate(orbits) for v in orb}
            rows = [[sum(row[v - 1] for v in orb) for orb in orbits] for row in rows]
        return cls(M2, weights, rows, orb_of,
                   MetricFreedom(tuple(_int_scale(v) for v in ker)),
                   MultiplicativeSystem(rows))

    def solve(self, X: Sequence) -> tuple[Optional[SignVec], tuple]:
        """(logsign of X_I / weight_I, |g| on the columns of `rows`) for ray X.

        The signs are None when X is not rational.  The magnitudes are exact
        through the Smith form when X is rational and no fractional power
        arises, floats from the log-space fit otherwise.  Only the signs of
        a metric depend on delta, so each X is solved once.
        """
        rational = all(isinstance(x, (Fraction, int)) for x in X)
        key = (rational, tuple(X))     # a float X never meets a rational one's entry
        hit = self.by_ray.get(key)
        if hit is None:
            signs = mags = None
            if rational:
                rhs = [Fraction(x) / w for x, w in zip(X, self.weights)]
                signs = logsign(rhs)
                mags = self.system.solve([abs(r) for r in rhs])
            if mags is None:
                mags = _log_solve(self.rows, X, self.weights)
            hit = self.by_ray[key] = (signs, mags)
        return hit


def recover_metric(
    a: NiceLieAlgebra,
    X: Sequence,
    delta: SignVec,
    sigma: Optional[Permutation] = None,
    facts: Optional[_Recovery] = None,
):
    """Metric with the given X and sign pattern, plus its gauge freedom.

    Solves prod_j g_j^(M_Ij) = X_I / c_I^2 (or X_I/(c_I c~_I) for sigma)
    multiplicatively; exact through the Smith form when X is rational and no
    fractional powers arise, in log space (floats) otherwise.  `facts` are
    the classification's `_Recovery` of (a, sigma); built here when omitted.
    The mod-2 condition M2 delta = logsign(X / weights) is checked for every
    delta when X is rational.
    """
    if sigma is not None and not _sigma_invariant(delta, sigma):
        raise ValueError("sign pattern is not sigma-invariant")
    if a.m == 0:
        g = tuple(Fraction(-1 if d else 1) for d in delta)
        freedom = MetricFreedom(tuple(
            tuple(int(i == j) for j in range(a.n)) for i in range(a.n)))
        metric = DiagonalMetric(g, tuple(delta)) if sigma is None else \
            SigmaMetric(sigma, g, tuple(delta))
        return metric, freedom
    if facts is None:
        facts = _Recovery.of(a, sigma)
    signs, mags = facts.solve(X)
    if signs is not None and tuple(facts.M2.mul_vec(delta)) != signs:
        raise ValueError("sign pattern violates the mod-2 condition")
    if sigma is not None:
        mags = [mags[facts.orb_of[v]] for v in range(1, a.n + 1)]
    g = tuple(-m if d else m for d, m in zip(delta, mags))
    metric = DiagonalMetric(g, delta) if sigma is None else SigmaMetric(sigma, g, delta)
    return metric, facts.freedom


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


def _node_pairs(sigma: Permutation) -> list[tuple[int, int]]:
    """0-based node pairs (v, sigma(v)) with sigma(v) > v."""
    return [(v - 1, w - 1) for v, w in enumerate(sigma, 1) if w > v]


def _difference_rows(pairs, size: int) -> list[list[Fraction]]:
    """One row e_p - e_q per pair (p, q): the equations x_p = x_q (mod 2 too)."""
    rows = []
    for p, q in pairs:
        row = [Fraction(0)] * size
        row[p], row[q] = Fraction(1), Fraction(-1)
        rows.append(row)
    return rows


def _log_solve(rows, X, weights) -> tuple[float, ...]:
    """Least-squares log-space fit of |g| on the columns of `rows` (floats)."""
    import numpy as np

    A = np.array([[float(x) for x in row] for row in rows])
    b = np.array([
        math.log(abs(float(x))) - math.log(abs(float(w)))
        for x, w in zip(X, weights)
    ])
    w, *_ = np.linalg.lstsq(A, b, rcond=None)
    return tuple(float(m) for m in np.exp(w))


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


@dataclass(frozen=True)
class _Systems:
    """The K, L and P systems of one (algebra, sigma, k); see `_build_systems`."""

    a: NiceLieAlgebra
    sigma: Optional[Permutation]
    k: Fraction
    k_rows: list                # tM, then X_p - X_q for sigma-paired arrows
    k_rhs: list                 # [k] * n, then zeros
    aff: Optional[AffineSet]    # solutions of K; None when inconsistent
    zero: tuple[int, ...]       # coordinates vanishing identically on aff
    l_system: F2Reduction       # of M2, then delta_v + delta_w for sigma-paired nodes
    shift: tuple[int, ...]      # logsign of the weights: M2 delta = eps + shift
    alphas: list                # P exponents: primitive kernel vectors of K
    p_rhs: list                 # |c|^(2 alpha) for each exponent row

    @cached_property
    def parity(self) -> tuple[tuple[int, int], ...]:
        """L as parity constraints (mask, bit) on the orthant, for `feasible_orthants`.

        One per check of the L system: bit j of mask is arrow coordinate j,
        and popcount(mask & eps) = bit mod 2 exactly when the check has
        even overlap with the target eps + shift.  The sigma node rows are
        zero in the target, so they drop out of the mask.
        """
        m = len(self.shift)
        shift = sum(s << j for j, s in enumerate(self.shift))
        masks = [c & ((1 << m) - 1) for c in self.l_system.checks]
        return tuple((mask, (mask & shift).bit_count() & 1) for mask in masks)

    def deltas(self, eps: Sequence[int]) -> list[SignVec]:
        """All metric sign patterns that the L system allows on orthant eps.

        eps satisfies `parity`, so there is at least one; none raises.
        """
        target = [e ^ s for e, s in zip(eps, self.shift)]
        out = self.l_system.solve_all(
            target + [0] * (self.l_system.rows - len(target)))
        if not out:
            raise RuntimeError("an orthant that satisfies the L parity checks has no L solution")
        return out

    @cached_property
    def recovery(self) -> _Recovery:
        """Metric recovery's facts, built on first use: once a winner exists."""
        return _Recovery.of(self.a, self.sigma)


def _build_systems(a: NiceLieAlgebra, k: Fraction,
                   sigma: Optional[Permutation]) -> Optional[_Systems]:
    """K, L and P for (a, sigma, k); None for an abelian algebra (no arrows).

    Raises ValueError unless sigma is an involutive diagram automorphism.
    """
    weights = _weights(a, sigma)
    if a.m == 0:
        return None
    M, M2 = root_matrix(a.diagram)
    k_rows = [list(r) for r in M.transpose().data]
    k_rhs = [k] * a.n
    l_system = M2
    if sigma is not None:
        mapping, _ = sigma_arrow_action(a.diagram, sigma)
        arrow_rows = _difference_rows(
            [(p, q) for p, q in enumerate(mapping) if q > p], a.m)
        k_rows += arrow_rows
        k_rhs += [Fraction(0)] * len(arrow_rows)
        node_rows = _difference_rows(_node_pairs(sigma), a.n)
        if node_rows:
            l_system = M2.stack(MatF2.from_rows(node_rows))
    aff = solve_affine(MatQ.from_rows(k_rows), k_rhs)
    alphas = [] if aff is None else [_int_scale(v) for v in aff.basis]
    return _Systems(
        a, sigma, k, k_rows, k_rhs, aff, () if aff is None else aff.zero_coords(),
        F2Reduction(l_system), logsign(weights), alphas,
        [abs_monomial(a.c, row) ** 2 for row in alphas])


def _coord_names(coords) -> str:
    return ", ".join(f"X_{j + 1}" for j in coords)


@dataclass
class _Search:
    """Shared state of the slice-and-branch exploration of the pipeline."""

    sy: _Systems
    winners: list = field(default_factory=list)
    blockers: set = field(default_factory=set)
    blocker_notes: dict = field(default_factory=dict)
    inexact: bool = False
    bases: dict = field(default_factory=dict)   # decide_condition_p's memo
    warnings: list = field(default_factory=list)

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


def _explore(ctx: _Search, extra_rows: list, extra_rhs: list,
             remaining: tuple[int, ...]) -> None:
    sy = ctx.sy
    aff = sy.aff
    if extra_rows:
        aff = solve_affine(MatQ.from_rows(sy.k_rows + extra_rows), sy.k_rhs + extra_rhs)
    if aff is None:
        ctx.block("H", "a forced linear slice is inconsistent")
        return
    fc = classify_functionals(aff)
    if fc.zero_coords:
        ctx.block("H", f"coordinate(s) {_coord_names(fc.zero_coords)} vanish identically")
        return

    # Exact reduction: consume constant equations, branch on binomial ones.
    rest = list(remaining)
    for ei in list(rest):
        pat = _binomial_pattern(fc, sy.alphas[ei], sy.p_rhs[ei])
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
            _explore(ctx, extra_rows + [row], extra_rhs + [rv], tuple(rest))
        return

    # Leaf: enumerate the orthants that pass L, then solve what remains.
    # Some orthant is feasible here, so an empty list means all fail L.
    scale_gauge = (sy.k == 0 and all(x == 0 for x in aff.particular)
                   and all(sum(sy.alphas[ei]) == 0 for ei in rest))
    orthants = feasible_orthants(aff, parity=sy.parity, classes=fc)
    if not orthants:
        ctx.block("L", "a feasible sign pattern is not attainable mod 2")
    for o in orthants:
        deltas = sy.deltas(o.eps)
        dec = decide_condition_p(
            aff, o.eps, o.witness_t,
            [sy.alphas[ei] for ei in rest], [sy.p_rhs[ei] for ei in rest],
            scale_gauge, memo=ctx.bases)
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
    sy = _build_systems(a, k, sigma)
    if sy is None:
        return _abelian_result(a, k, sigma, tol)
    aff = sy.aff
    if aff is None:
        return ClassificationResult(
            a.name, mode, sigma, k, False, "K",
            "the weight system tM X = [k] has no solution"
            + ("" if sigma is None else " with X sigma-invariant"),
            True, (), None)
    if sy.zero:
        extra_note = ""
        if sigma is not None and aff.dim == 0 and all(x == 0 for x in aff.particular):
            extra_note = " (the sigma-invariant solution space is trivial)"
        return ClassificationResult(
            a.name, mode, sigma, k, False, "H",
            f"coordinate(s) {_coord_names(sy.zero)} vanish identically on the solution set"
            + extra_note,
            True, (), None)

    ctx = _Search(sy)
    _explore(ctx, [], [], tuple(range(len(sy.alphas))))

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
                                          ctx.warnings, sy.recovery))
        report = _build_report(deltas_all, sigma)
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
    # Every _explore call records a blocker, adds a winner or recurses into
    # two slices, so a search without a winner has recorded a blocker.
    raise RuntimeError("the search found neither a winner nor a blocker")


def _certificate(a, X, delta, k, sigma, dec, tol, warnings, facts) -> EinsteinCertificate:
    exact_X = dec.root_is_rational
    metric, freedom = recover_metric(a, X, delta, sigma, facts)
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
    for delta in iproduct((0, 1), repeat=a.n):
        if sigma is not None and not _sigma_invariant(delta, sigma):
            continue
        deltas.append(delta)
        metric, freedom = recover_metric(a, (), delta, sigma)
        certs.append(EinsteinCertificate(
            (), Fraction(0), delta, metric, freedom, Fraction(0), True, "abelian"))
    report = _build_report(deltas, sigma)
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
    sy = _build_systems(a, k, None)
    return (sy is not None and sy.l_system.rank == a.m
            and sy.aff is not None and not sy.zero)


# ---------------------------------------------------------------------------
# One-parameter families


def parameter_solve(
    family,
    sigma: Optional[Permutation] = None,
    k=0,
    tol: float = DEFAULT_TOL,
) -> list[Fraction]:
    """Parameter values at which the family admits the requested metric.

    The family must have exactly one unresolved parameter u.  On each
    orthant of each sign region of u (between the roots of the affine
    coefficients), u joins the exponent condition as one more variable of
    its lex Groebner basis; the candidates are the rational roots in the
    region of the basis's univariate eliminant in u.  Orthants of different
    regions that share a leaf share its basis, built once for the family.
    Every candidate is re-validated by running the exact pipeline on the
    substituted algebra.  Regions on which the condition holds identically
    (families Einstein for every parameter value) contribute no isolated
    values.
    """
    return [u for u, _ in _parameter_results(family, sigma, k, tol)]


def _parameter_results(family, sigma, k, tol) -> list[tuple[Fraction, ClassificationResult]]:
    """(value, classification) for each confirmed value of `parameter_solve`."""
    k = Fraction(k)
    params = family.params()
    if len(params) != 1:
        raise ValueError(f"need exactly one unresolved parameter, got {params}")
    pname = params[0]

    # Each coefficient as (const, slope) in the parameter; the sign regions
    # of the parameter lie between the coefficients' roots.
    affine = {(i, j, t): (cf.const, dict(cf.linear).get(pname, Fraction(0)))
              for (i, j, t, cf) in family.terms}
    bounds = [None, *sorted({-c0 / c1 for c0, c1 in affine.values() if c1}), None]
    # K and the exponents, so each leaf and its basis, are the same in every
    # region; only the weights' signs, so the parity and the orthants, differ.
    bases: dict = {}
    found: set[Fraction] = set()
    for lo, hi in zip(bounds, bounds[1:]):
        try:
            probe = family.substitute({pname: _pick_in_interval(lo, hi)})
        except ParseError:  # a coefficient vanishes, or Jacobi fails, at the probe
            continue
        sy = _build_systems(probe, k, sigma)
        if sy is None or sy.aff is None or sy.zero:
            continue
        c_affine = tuple(affine[idx] for idx in probe.indices())
        scale_invariant = k == 0 and all(sum(r) == 0 for r in sy.alphas)
        leaves = dict.fromkeys(_p_leaf(sy.aff, o.eps, sy.alphas, scale_invariant, bases)
                               for o in feasible_orthants(sy.aff, parity=sy.parity))
        leaves.pop(None, None)
        for leaf in leaves:
            G = _leaf_basis(bases, *leaf, sy.alphas, c=c_affine).G
            found.update(_eliminant_roots(G, lo, hi))

    confirmed = []
    for u in sorted(found):
        alg = family.substitute({pname: u})
        res = (diagonal_einstein(alg, k, tol) if sigma is None
               else sigma_einstein(alg, sigma, k, tol))
        if res.success:
            confirmed.append((u, res))
    return confirmed


def _pick_in_interval(lo: Optional[Fraction], hi: Optional[Fraction]) -> Fraction:
    if lo is None and hi is None:
        return Fraction(1)
    if lo is None:
        return hi - 1
    if hi is None:
        return lo + 1
    return (lo + hi) / 2
