"""Existence of diagonal and sigma-diagonal metrics with Ric = (k/2) id.

The decision pipeline follows the four conditions: linear solvability of
the weight system, avoidance of the coordinate hyperplanes, a mod-2 sign
compatibility, and a multiplicative condition on kernel exponents.  Sign
patterns are enumerated exactly; the nonlinear condition is decided exactly
by a lex Groebner basis of the cleared system (`solver.decide_condition_p`),
which also yields the candidate values of a family parameter
(`solver.parameter_roots`).  Every certificate carries the residual of the
independent curvature oracle.

The structure constants enter the conditions only through the sign shift
of the weights (L) and the right-hand sides |c|^(2 alpha) (P).  Everything
else is built once per (diagram, sigma, k) by `_diagram_systems`: K's
reduced rows and solution set, H's zero coordinates, the L system's GF(2)
reduction, the exponents alpha, the functional classes and, per L parity,
the feasible orthants of the unsliced set.  Metric recovery's rows,
sigma-orbits, kernel freedom and Smith form are built once per
(diagram, sigma) by `_recovery_base`.  Both caches live for the process,
like `diagram.root_matrix`, with one entry per distinct key; per algebra
remain the weights, their signs, P's right-hand sides and the solved rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .algebra import NiceLieAlgebra, ParseError, tilde_c
from .curvature import LieBrackets, _einstein_residuals, diagonal_gram, sigma_gram
from .diagram import NiceDiagram, Permutation, root_matrix, sigma_arrow_action
from .linalg import (
    AffineSet,
    F2Reduction,
    MatF2,
    MatQ,
    MultiplicativeSystem,
    _int_scale,
    _rational_root,
    kernel_basis,
    rref,
    solve_affine,
    symmetric_signature,
)
from .solver import (
    FunctionalClasses,
    Orthant,
    abs_monomial,
    classify_functionals,
    decide_condition_p,
    feasible_orthants,
    parameter_roots,
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


# ---------------------------------------------------------------------------
# Ricci by the weight formula


def ricci_diagonal(a: NiceLieAlgebra, g) -> tuple:
    """Diagonal of the Ricci operator of the diagonal metric g: sigma = id."""
    return ricci_sigma(a, _identity(a.n), g)


def ricci_sigma(a: NiceLieAlgebra, sigma: Permutation, g) -> tuple:
    """Diagonal of the Ricci operator of the sigma-diagonal metric g.

    X_I = c_I c~_I prod_j g_j^(M_Ij); the operator is (1/2) tM X.
    """
    gv = tuple(g.g) if hasattr(g, "g") else tuple(g)
    if not _sigma_invariant(gv, sigma):
        raise ValueError("metric coefficients are not sigma-invariant")
    M, _ = root_matrix(a.diagram)
    X = []
    for row, x in zip(M.data, _weights(a, sigma)):
        for e, gj in zip(row, gv):
            if e == 1:
                x = x * gj
            elif e == -1:
                x = x / gj
        X.append(x)
    return tuple(sum(M.data[i][j] * X[i] for i in range(M.rows)) / 2 for j in range(a.n))


def _identity(n: int) -> Permutation:
    """The permutation that a diagonal metric is sigma-diagonal for."""
    return tuple(range(1, n + 1))


def _weights(a: NiceLieAlgebra, sigma: Optional[Permutation]) -> list:
    """w_I in X_I = w_I prod_j g_j^(M_Ij): c_I c~_I, which is c_I^2 at sigma = id.

    sigma None is the identity.  Raises ValueError unless sigma is an
    involutive diagram automorphism.
    """
    return [cv * cw for cv, cw in zip(a.c, tilde_c(a, sigma or _identity(a.n)))]


def _sigma_invariant(v: Sequence, sigma: Permutation) -> bool:
    return all(v[i] == v[sigma[i] - 1] for i in range(len(sigma)))


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


def halved_signatures(S) -> list[SignVec]:
    """One representative per complementary pair, ordered by (length, indices)."""
    items = sorted(set(tuple(d) for d in S), key=delta_sort_key)
    full = set(items)
    out = []
    kept = set()
    for d in items:
        comp = tuple(x ^ 1 for x in d)
        if comp not in full:
            raise ValueError(f"signature set is not closed under complement: {format_delta(d)}")
        if comp not in kept:
            kept.add(d)
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


@lru_cache(maxsize=None)
def _signature_of(delta: SignVec, sigma: Optional[Permutation]) -> tuple[int, int]:
    """(p, q) of the sign pattern delta; kept per (delta, sigma), like `_diagram_systems`."""
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
class _RecoveryBase:
    """What metric recovery needs of one (diagram, sigma), whatever the constants.

    `rows` are the integer rows of M, columns summed over each sigma-orbit
    (one node each at sigma = id), which forces an invariant metric;
    `orbit` is each node's orbit, a column of `rows`.  `freedom` is the
    sigma-invariant kernel of M and `system` the multiplicative system on
    `rows`, prepared once.  Built once per process by `_recovery_base`.
    """

    M2: MatF2
    rows: tuple
    orbit: tuple[int, ...]
    freedom: MetricFreedom
    system: MultiplicativeSystem


@lru_cache(maxsize=None)
def _recovery_base(d: NiceDiagram, sigma: Optional[Permutation]) -> _RecoveryBase:
    sigma = sigma or _identity(d.n)
    M, M2 = root_matrix(d)
    # Free positive directions: the sigma-invariant part of the kernel of M.
    ker_rows = (*M.data, *map(tuple, _difference_rows(_node_pairs(sigma), d.n)))
    ker = kernel_basis(MatQ(len(ker_rows), d.n, ker_rows))
    orbits = _orbits(sigma)
    orb_of = {v: o_i for o_i, orb in enumerate(orbits) for v in orb}
    rows = [[sum(row[v - 1] for v in orb) for orb in orbits] for row in M.to_int_rows()]
    return _RecoveryBase(M2, tuple(map(tuple, rows)),
                         tuple(orb_of[v] for v in range(1, d.n + 1)),
                         MetricFreedom(tuple(_int_scale(v) for v in ker)),
                         MultiplicativeSystem(rows, len(orbits)))


@dataclass(frozen=True)
class _Recovery:
    """What metric recovery needs of one (algebra, sigma), whatever X and delta.

    `base` is the diagram's part, shared by every algebra on it; `weights`
    are this algebra's.  `by_ray` holds the magnitudes `solve` found for
    each |X|, and `by_X` its whole answer for each X.
    """

    base: _RecoveryBase
    weights: list
    by_ray: dict = field(default_factory=dict, compare=False, repr=False)
    by_X: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, a: NiceLieAlgebra, sigma: Optional[Permutation]) -> "_Recovery":
        return cls(_recovery_base(a.diagram, sigma), _weights(a, sigma))

    def solve(self, X: Sequence) -> tuple[Optional[SignVec], tuple]:
        """(logsign of X_I / weight_I, |g_v| for each node v) for ray X.

        The signs are None when X is not rational.  The magnitudes are exact
        through the Smith form when X is rational and no fractional power
        arises, floats from the log-space fit otherwise.  The answer is kept
        per X, so the sign patterns delta of one X share one rhs and logsign.
        The magnitudes depend only on |X| and are kept per |X| as well, so
        rays that differ only in sign share one multiplicative solve.
        """
        rational = all(isinstance(x, (Fraction, int)) for x in X)
        key = (rational, tuple(X))  # a float X never meets a rational one's entry
        out = self.by_X.get(key)
        if out is not None:
            return out
        rhs = [Fraction(x) / w for x, w in zip(X, self.weights)] if rational else None
        signs = logsign(rhs) if rational else None
        ray = (rational, tuple(abs(x) for x in X))
        mags = self.by_ray.get(ray)
        if mags is None:
            if rational:
                mags = self.base.system.solve([abs(r) for r in rhs])
            if mags is None:
                mags = _log_solve(self.base.rows, X, self.weights)
            mags = self.by_ray[ray] = tuple(mags[o] for o in self.base.orbit)
        out = self.by_X[key] = (signs, mags)
        return out


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
    if facts is None:
        facts = _Recovery.of(a, sigma)
    signs, mags = facts.solve(X)
    base = facts.base
    if signs is not None and tuple(base.M2.mul_vec(delta)) != signs:
        raise ValueError("sign pattern violates the mod-2 condition")
    g = tuple(-m if d else m for d, m in zip(delta, mags))
    metric = DiagonalMetric(g, delta) if sigma is None else SigmaMetric(sigma, g, delta)
    return metric, base.freedom


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


def _oracle_residuals(a: NiceLieAlgebra, sigma: Optional[Permutation], mags: tuple,
                      deltas: Sequence[SignVec], k: Fraction) -> list:
    """Max |Ric - (k/2) id| entry of each sign pattern on |g| = mags, from one oracle call.

    The curvature oracle reads the constants through `LieBrackets.from_nice`
    and the metrics as (sigma, |g|) and one sign mask per delta; it reads
    nothing of X, M or the weights.  An exact metric that passes gets the
    shared zero; a residual is built only for one that fails, and for
    float metrics.
    """
    masks = [sum(b << i for i, b in enumerate(d)) for d in deltas]
    return _einstein_residuals(LieBrackets.from_nice(a), sigma or _identity(a.n), mags,
                               masks, k / 2)


@dataclass
class _Winner:
    eps: tuple[int, ...]
    deltas: list[SignVec]
    dec: object


@dataclass(frozen=True)
class _DiagramSystems:
    """The K, H, L and P structure of one (diagram, sigma, k), constants aside.

    K (tM X = [k], then X_p = X_q for sigma-paired arrows), the L system
    and the P exponents depend on the diagram, sigma and k alone; the
    structure constants enter only through `_Systems`.  Built once per
    process by `_diagram_systems` and shared by every algebra on the
    diagram; nothing in it changes after that but its two memos.
    """

    k_rows: tuple               # the nonzero rows of rref[K | k], without the k column
    k_rhs: tuple                # their k column
    aff: Optional[AffineSet]    # solutions of K; None when inconsistent
    zero: tuple[int, ...]       # coordinates vanishing identically on aff
    l_system: F2Reduction       # of M2, then delta_v + delta_w for sigma-paired nodes
    alphas: tuple               # P exponents: primitive kernel vectors of K
    by_parity: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def classes(self) -> FunctionalClasses:
        """`classify_functionals(aff)`; aff is not None."""
        return classify_functionals(self.aff)

    def orthants(self, parity: tuple[tuple[int, int], ...]) -> tuple[Orthant, ...]:
        """`feasible_orthants(aff)` under the parity constraints, kept per parity."""
        out = self.by_parity.get(parity)
        if out is None:
            out = self.by_parity[parity] = tuple(
                feasible_orthants(self.aff, parity=parity, classes=self.classes))
        return out


@lru_cache(maxsize=None)
def _diagram_systems(d: NiceDiagram, sigma: Optional[Permutation],
                     k: Fraction) -> _DiagramSystems:
    """K, L and the P exponents for (d, sigma, k).

    sigma None is the identity, which pairs no arrow and no node.  An
    abelian diagram (no arrows) needs no case of its own: K is n rows that
    read 0 = k, L has no arrow checks, and P has no exponents.
    K is kept reduced: a slice's rows join its pivot rows, which span the
    same rows as K and k, so the slice's solution set is the same.
    """
    sigma = sigma or _identity(d.n)
    M, M2 = root_matrix(d)
    mapping, _ = sigma_arrow_action(d, sigma)
    augmented = [[*r, k] for r in M.transpose().data]   # [K | k]
    augmented += [[*r, Fraction(0)] for r in _difference_rows(
        [(p, q) for p, q in enumerate(mapping) if q > p], M.rows)]
    node_rows = _difference_rows(_node_pairs(sigma), d.n)
    l_system = M2.stack(MatF2.from_rows(node_rows)) if node_rows else M2
    R, pivots = rref(MatQ.from_rows(augmented))
    R = R[:len(pivots)]
    rows = tuple(tuple(r[:-1]) for r in R)
    rhs = tuple(r[-1] for r in R)
    aff = solve_affine(MatQ(len(rows), M.rows, rows), rhs)
    return _DiagramSystems(
        rows, rhs, aff, () if aff is None else aff.zero_coords(), F2Reduction(l_system),
        () if aff is None else tuple(_int_scale(v) for v in aff.basis))


@dataclass(frozen=True)
class _Systems:
    """The K, L and P systems of one (algebra, sigma, k); see `_build_systems`."""

    a: NiceLieAlgebra
    sigma: Optional[Permutation]
    base: _DiagramSystems
    weights: list               # _weights(a, sigma)
    shift: tuple[int, ...]      # logsign of the weights: M2 delta = eps + shift
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
        masks = [c & ((1 << m) - 1) for c in self.base.l_system.checks]
        return tuple((mask, (mask & shift).bit_count() & 1) for mask in masks)

    def deltas(self, eps: Sequence[int]) -> list[SignVec]:
        """All metric sign patterns that the L system allows on orthant eps.

        eps satisfies `parity`, so there is at least one; none raises.
        """
        l_system = self.base.l_system
        target = [e ^ s for e, s in zip(eps, self.shift)]
        out = l_system.solve_all(target + [0] * (l_system.rows - len(target)))
        if not out:
            raise RuntimeError("an orthant that satisfies the L parity checks has no L solution")
        return out

    @cached_property
    def recovery(self) -> _Recovery:
        """Metric recovery's facts, built on first use: once a winner exists."""
        return _Recovery(_recovery_base(self.a.diagram, self.sigma), self.weights)


def _build_systems(a: NiceLieAlgebra, k: Fraction,
                   sigma: Optional[Permutation]) -> _Systems:
    """K, L and P for (a, sigma, k): the diagram's part, then the constants'.

    Raises ValueError unless sigma is an involutive diagram automorphism.
    """
    weights = _weights(a, sigma)
    base = _diagram_systems(a.diagram, sigma, k)
    return _Systems(a, sigma, base, weights, logsign(weights),
                    [abs_monomial(a.c, row) ** 2 for row in base.alphas])


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
    base = sy.base
    aff, fc = base.aff, base.classes
    if extra_rows:
        aff = solve_affine(MatQ.from_rows([*base.k_rows, *extra_rows]),
                           [*base.k_rhs, *extra_rhs])
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
        pat = _binomial_pattern(fc, base.alphas[ei], sy.p_rhs[ei])
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
    orthants = (feasible_orthants(aff, parity=sy.parity, classes=fc) if extra_rows
                else base.orthants(sy.parity))
    if not orthants:
        ctx.block("L", "a feasible sign pattern is not attainable mod 2")
    for o in orthants:
        deltas = sy.deltas(o.eps)
        dec = decide_condition_p(
            aff, o.eps, o.witness_t,
            [base.alphas[ei] for ei in rest], [sy.p_rhs[ei] for ei in rest],
            memo=ctx.bases)
        if dec.solvable:
            ctx.winners.append(_Winner(o.eps, deltas, dec))
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
    aff = sy.base.aff
    if aff is None:
        return ClassificationResult(
            a.name, mode, sigma, k, False, "K",
            "the weight system tM X = [k] has no solution"
            + ("" if sigma is None else " with X sigma-invariant"),
            True, (), None)
    if sy.base.zero:
        extra_note = ""
        if sigma is not None and aff.dim == 0 and all(x == 0 for x in aff.particular):
            extra_note = " (the sigma-invariant solution space is trivial)"
        return ClassificationResult(
            a.name, mode, sigma, k, False, "H",
            f"coordinate(s) {_coord_names(sy.base.zero)} vanish identically on the solution set"
            + extra_note,
            True, (), None)

    ctx = _Search(sy)
    _explore(ctx, [], [], tuple(range(len(sy.base.alphas))))

    if ctx.winners:
        certs = _certificates(a, k, sigma, ctx.winners, tol, ctx.warnings, sy.recovery)
        report = _build_report([c.delta for c in certs], sigma)
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


def _certificates(a, k, sigma, winners, tol, warnings, facts) -> list[EinsteinCertificate]:
    """One certificate per distinct sign pattern of the winners, in eps order.

    The oracle runs once per magnitude vector |g|, on the sign patterns of
    every certificate that has it.
    """
    items, groups, seen = [], {}, set()
    for w in sorted(winners, key=lambda w: w.eps):
        X = w.dec.root_X
        _, mags = facts.solve(X)
        exact = all(isinstance(x, (Fraction, int)) for x in mags)
        for d in w.deltas:
            if d in seen:
                continue
            seen.add(d)
            # a float |g| never meets a rational one
            groups.setdefault((exact, mags), []).append(len(items))
            items.append((w.dec, *recover_metric(a, X, d, sigma, facts), exact))
    residuals = [None] * len(items)
    for (_, mags), idx in groups.items():
        got = _oracle_residuals(a, sigma, mags, [items[i][1].delta for i in idx], k)
        for i, r in zip(idx, got):
            residuals[i] = r
    return [_certificate(*item, r, k, tol, warnings) for item, r in zip(items, residuals)]


def _certificate(dec, metric, freedom, exact_metric, residual, k, tol,
                 warnings) -> EinsteinCertificate:
    exact = dec.root_is_rational and exact_metric
    if exact and residual != 0:
        raise AssertionError("exact certificate failed the curvature oracle")
    if not exact and float(abs(residual)) > tol:
        warnings.append(
            f"numeric certificate for delta={format_delta(metric.delta)} has oracle "
            f"residual {float(residual):.3e} above tolerance {tol:g}")
    return EinsteinCertificate(
        tuple(dec.root_X), k, metric.delta, metric, freedom, residual, exact, dec.note)


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
    base = _diagram_systems(a.diagram, None, k)
    return base.l_system.rank == a.m and base.aff is not None and not base.zero


# ---------------------------------------------------------------------------
# One-parameter families


def parameter_solve(
    family,
    sigma: Optional[Permutation] = None,
    k=0,
    tol: float = DEFAULT_TOL,
) -> list[tuple[Fraction, ClassificationResult]]:
    """(value, classification) for each parameter value at which the family
    admits the requested metric, ascending in the value.

    The family must have exactly one unresolved parameter u.  On each
    orthant of each sign region of u (between the roots of the affine
    coefficients), u joins the exponent condition as one more variable of
    its lex Groebner basis; the candidates are the rational roots in the
    region of the basis's univariate eliminant in u (`parameter_roots`).
    Orthants of different regions that share a leaf share its basis, built
    once for the family.  Every candidate is re-validated by running the
    exact pipeline on the substituted algebra, and that run's result is
    returned with it.  Regions on which the condition holds identically
    (families Einstein for every parameter value) contribute no isolated
    values.
    """
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
        base = sy.base
        if base.aff is None or base.zero:
            continue
        found.update(parameter_roots(
            base.aff, base.orthants(sy.parity), base.alphas,
            tuple(affine[idx] for idx in probe.indices()), lo, hi, bases))

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
