"""Nice nilpotent Lie algebras as data.

An algebra is a nice diagram plus one nonzero rational structure constant
per arrow, entered through structure strings in the usual compressed
notation, e.g. ``(0,0,0,e^{12},e^{13},e^{25}+e^{34})`` means
de^4 = e^12, de^5 = e^13, de^6 = e^25 + e^34.  Digit 0 stands for node 10.

Families with named parameters (coefficients affine in the parameters, like
``(1-lambda) e^{12}``) parse into `AlgebraFamily`; they must be substituted
with rational values before anything quantitative runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .diagram import (
    ArrowIndex,
    NiceDiagram,
    Permutation,
    check_involution,
    index_set,
    root_matrix,
    sigma_arrow_action,
)
from .linalg import F2Reduction, MatF2, MatQ, VecQ, kernel_basis, rref


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Affine coefficients (for families)


@dataclass(frozen=True)
class Affine:
    """A coefficient p0 + sum_k p_k * param_k with rational p's."""

    const: Fraction
    linear: tuple[tuple[str, Fraction], ...] = ()

    @property
    def is_constant(self) -> bool:
        return not self.linear

    def params(self) -> set[str]:
        return {name for name, _ in self.linear}

    def substitute(self, values: dict[str, Fraction]) -> "Affine":
        const = self.const
        rest = []
        for name, coef in self.linear:
            if name in values:
                const += coef * values[name]
            else:
                rest.append((name, coef))
        return Affine(const, tuple(rest))

    def value(self) -> Fraction:
        if not self.is_constant:
            raise ParseError(f"unresolved parameter(s): {sorted(self.params())}")
        return self.const


# ---------------------------------------------------------------------------
# Structure-string parsing

_NUM = re.compile(r"\d+(?:/\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _parse_affine(text: str, where: str) -> Affine:
    """Parse '1-lambda', '2', '3/2', 'a2', '-1+a2' style expressions."""
    s = text.strip()
    if not s:
        return Affine(Fraction(1))
    pos = 0
    const = Fraction(0)
    linear: dict[str, Fraction] = {}
    sign = 1
    while pos < len(s):
        ch = s[pos]
        if ch == "+":
            pos += 1
            continue
        if ch == "-":
            sign = -sign
            pos += 1
            continue
        m = _NUM.match(s, pos)
        coef = Fraction(1)
        got_num = False
        if m:
            den = m.group(0).partition("/")[2]
            if den and int(den) == 0:
                raise ParseError(f"zero denominator in coefficient {text!r} in {where}")
            coef = Fraction(m.group(0))
            pos = m.end()
            got_num = True
        m = _NAME.match(s, pos)
        if m:
            name = m.group(0)
            pos = m.end()
            linear[name] = linear.get(name, Fraction(0)) + sign * coef
        elif got_num:
            const += sign * coef
        else:
            raise ParseError(f"cannot read coefficient {text!r} in {where}")
        sign = 1
    items = tuple(sorted((k, v) for k, v in linear.items() if v != 0))
    return Affine(const, items)


def _split_top_level_terms(expr: str) -> list[tuple[int, str]]:
    """Split a sum into (+1/-1, term) pieces, ignoring signs inside parens."""
    terms = []
    depth = 0
    sign = 1
    buf = []
    for ch in expr:
        if ch == "(":
            depth += 1
            buf.append(ch)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {expr!r}")
            buf.append(ch)
        elif ch in "+-" and depth == 0 and buf:
            terms.append((sign, "".join(buf)))
            sign = -1 if ch == "-" else 1
            buf = []
        elif ch in "+-" and depth == 0 and not buf:
            sign = sign * (-1 if ch == "-" else 1)
        else:
            buf.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {expr!r}")
    if buf:
        terms.append((sign, "".join(buf)))
    elif terms or sign != 1:
        raise ParseError(f"dangling sign in {expr!r}")
    return terms


def _digit_node(ch: str) -> int:
    return 10 if ch == "0" else int(ch)


def _parse_term(sign: int, term: str, where: str) -> tuple[Affine, int, int]:
    """One summand 'coeff e^{ij}'; returns (coefficient, i, j) unnormalized."""
    m = re.search(r"e\^", term)
    if m is None:
        raise ParseError(f"missing e^ in term {term!r} of {where}")
    coeff_text = term[: m.start()].strip()
    rest = term[m.end():].strip()
    if coeff_text.startswith("(") and coeff_text.endswith(")"):
        coeff_text = coeff_text[1:-1]
    coeff = _parse_affine(coeff_text, where)
    if rest.startswith("{"):
        if not rest.endswith("}"):
            raise ParseError(f"unclosed brace in term {term!r} of {where}")
        digits = rest[1:-1]
    else:
        digits = rest
    if not re.fullmatch(r"\d\d", digits) and not (rest.startswith("{") and re.fullmatch(r"\d+", digits)):
        raise ParseError(f"bad wedge indices {rest!r} in {where}")
    nodes = [_digit_node(ch) for ch in digits]
    if len(nodes) != 2:
        raise ParseError(f"expected two wedge indices in {rest!r} of {where}")
    i, j = nodes
    if sign < 0:
        coeff = Affine(-coeff.const, tuple((n, -v) for n, v in coeff.linear))
    return coeff, i, j


@dataclass(frozen=True)
class AlgebraFamily:
    """A structure string whose coefficients may contain named parameters."""

    name: Optional[str]
    n: int
    terms: tuple[tuple[int, int, int, Affine], ...]  # (i, j, target, coeff), i<j

    def params(self) -> list[str]:
        out: set[str] = set()
        for (_, _, _, c) in self.terms:
            out |= c.params()
        return sorted(out)

    def substitute(self, values: dict[str, Fraction | int | str]) -> "NiceLieAlgebra":
        vals = {k: Fraction(v) for k, v in values.items()}
        missing = [p for p in self.params() if p not in vals]
        if missing:
            raise ParseError(f"missing parameter value(s): {missing}")
        consts = []
        for (i, j, k, c) in self.terms:
            v = c.substitute(vals).value()
            if v == 0:
                raise ParseError(
                    f"parameter choice makes the coefficient of e^{{{i}{j}}} in de^{k} vanish")
            consts.append((i, j, k, v))
        return _build_algebra(self.name, self.n, consts)

    def partial(self, values: dict[str, Fraction | int | str]) -> "AlgebraFamily":
        vals = {k: Fraction(v) for k, v in values.items()}
        new_terms = tuple((i, j, k, c.substitute(vals)) for (i, j, k, c) in self.terms)
        return AlgebraFamily(self.name, self.n, new_terms)


def parse_family(text: str, name: Optional[str] = None) -> AlgebraFamily:
    s = "".join(text.split()).replace("−", "-")
    if not (s.startswith("(") and s.endswith(")")):
        raise ParseError("structure string must be parenthesized")
    body = s[1:-1]
    exprs = []
    depth = 0
    buf: list[str] = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            exprs.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    exprs.append("".join(buf))
    n = len(exprs)
    if n < 1:
        raise ParseError("empty structure string")
    if n > 10:
        raise ParseError("structure strings support at most 10 nodes (digits 1..9 and 0)")
    terms: list[tuple[int, int, int, Affine]] = []
    for t, expr in enumerate(exprs, start=1):
        if expr == "0":
            continue
        if not expr:
            raise ParseError(f"empty entry for de^{t}")
        seen_pairs: set[tuple[int, int]] = set()
        for sign, term in _split_top_level_terms(expr):
            coeff, i, j = _parse_term(sign, term, f"de^{t}")
            if i == j:
                raise ParseError(f"degenerate wedge e^{{{i}{j}}} in de^{t}")
            if i > j:
                i, j = j, i
                coeff = Affine(-coeff.const, tuple((nm, -v) for nm, v in coeff.linear))
            if coeff.is_constant and coeff.const == 0:
                raise ParseError(f"zero coefficient on e^{{{i}{j}}} in de^{t}")
            if (i, j) in seen_pairs:
                raise ParseError(f"duplicate wedge e^{{{i}{j}}} in de^{t}")
            if i > n or j > n:
                raise ParseError(f"node out of range in de^{t}")
            seen_pairs.add((i, j))
            terms.append((i, j, t, coeff))
    return AlgebraFamily(name, n, tuple(terms))


@dataclass(frozen=True)
class NiceLieAlgebra:
    """A nice diagram with nonzero rational structure constants.

    `c` is aligned with `index_set(diagram)`.
    """

    name: Optional[str]
    diagram: NiceDiagram
    c: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return self.diagram.n

    @property
    def m(self) -> int:
        return len(self.c)

    def indices(self) -> tuple[ArrowIndex, ...]:
        return index_set(self.diagram)

    def brackets(self) -> dict[tuple[int, int], tuple[int, Fraction]]:
        """[e_i, e_j] = c e_k for i < j, as {(i, j): (k, c)}."""
        return {(i, j): (k, cv) for (i, j, k), cv in zip(self.indices(), self.c)}


def _build_algebra(name, n, consts) -> NiceLieAlgebra:
    pairs = [(i, j, k) for (i, j, k, _) in consts]
    try:
        diagram = NiceDiagram.from_pairs(n, pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    order = index_set(diagram)
    cmap = {(i, j, k): v for (i, j, k, v) in consts}
    c = tuple(cmap[idx] for idx in order)
    alg = NiceLieAlgebra(name, diagram, c)
    residuals = jacobi_residuals(alg)
    if residuals:
        head = ", ".join(f"d2(e^{k}) has {v} e^{{{a}{b}{c_}}}"
                         for (k, (a, b, c_)), v in residuals[:3])
        raise ParseError(f"Jacobi identity fails: {head}")
    return alg


def parse(text: str, name: Optional[str] = None) -> NiceLieAlgebra:
    """Parse a structure string with purely rational coefficients."""
    fam = parse_family(text, name)
    params = fam.params()
    if params:
        raise ParseError(f"parameter symbol(s) {params} unsupported here; substitute first")
    return fam.substitute({})


def to_string(a: NiceLieAlgebra) -> str:
    by_target: dict[int, list[tuple[int, int, Fraction]]] = {}
    for (i, j, k), cv in zip(a.indices(), a.c):
        by_target.setdefault(k, []).append((i, j, cv))
    parts = []
    for t in range(1, a.n + 1):
        terms = sorted(by_target.get(t, []))
        if not terms:
            parts.append("0")
            continue
        chunks = []
        for i, j, cv in terms:
            digits = "".join("0" if x == 10 else str(x) for x in (i, j))
            if cv == 1:
                text = f"e^{{{digits}}}"
            elif cv == -1:
                text = f"-e^{{{digits}}}"
            else:
                text = f"{cv}e^{{{digits}}}"
            if chunks and not text.startswith("-"):
                chunks.append("+")
            chunks.append(text)
        parts.append("".join(chunks))
    return "(" + ",".join(parts) + ")"


# ---------------------------------------------------------------------------
# Jacobi


def jacobi_residuals(a: NiceLieAlgebra) -> list[tuple[tuple[int, tuple[int, int, int]], Fraction]]:
    """Exact 3-form coefficients of d(de^k) for every k; empty iff d^2 = 0."""
    diff: dict[int, list[tuple[int, int, Fraction]]] = {}
    for (i, j, k), cv in zip(a.indices(), a.c):
        diff.setdefault(k, []).append((i, j, cv))

    def sorted_sign(tri: tuple[int, int, int]) -> tuple[Optional[tuple[int, int, int]], int]:
        x, y, z = tri
        if x == y or y == z or x == z:
            return None, 0
        perm = sorted(tri)
        sign = 1
        lst = list(tri)
        for aidx in range(3):
            for bidx in range(aidx + 1, 3):
                if lst[aidx] > lst[bidx]:
                    lst[aidx], lst[bidx] = lst[bidx], lst[aidx]
                    sign = -sign
        return tuple(perm), sign

    residuals: dict[tuple[int, tuple[int, int, int]], Fraction] = {}

    def add(k, tri, val):
        key, sign = sorted_sign(tri)
        if key is None or val == 0:
            return
        residuals[(k, key)] = residuals.get((k, key), Fraction(0)) + sign * val

    for k, terms in diff.items():
        for (i, j, cv) in terms:
            for (x, y, cw) in diff.get(i, []):
                add(k, (x, y, j), cv * cw)      # de^i ^ e^j
            for (x, y, cw) in diff.get(j, []):
                add(k, (i, x, y), -cv * cw)     # -e^i ^ de^j
    out = [(key, v) for key, v in residuals.items() if v != 0]
    out.sort()
    return out


def bracket_vec(a: NiceLieAlgebra, u: Sequence, v: Sequence) -> list:
    """[u, v] componentwise for coefficient vectors u, v."""
    out = [Fraction(0)] * a.n
    for (i, j), (k, cv) in a.brackets().items():
        out[k - 1] += cv * (u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1])
    return out


# ---------------------------------------------------------------------------
# Derived data


def tilde_c(a: NiceLieAlgebra, sigma: Permutation) -> tuple[Fraction, ...]:
    """Structure constants transported by an order-two diagram automorphism."""
    check_involution(a.diagram, sigma)
    mapping, signs = sigma_arrow_action(a.diagram, sigma)
    out = [Fraction(0)] * a.m
    for p in range(a.m):
        out[mapping[p]] = a.c[p] if signs[p] > 0 else -a.c[p]
    return tuple(out)


def diagonal_derivations(a: NiceLieAlgebra) -> list[VecQ]:
    """Basis of the diagonal derivations: the kernel of the root matrix."""
    M, _ = root_matrix(a.diagram)
    return kernel_basis(M)


def nonzero_trace_derivation_witness(a: NiceLieAlgebra) -> Optional[VecQ]:
    """Some diagonal derivation with nonzero trace, if one exists."""
    for v in diagonal_derivations(a):
        if sum(v) != 0:
            return v
    return None


@dataclass(frozen=True)
class FundamentalDomainReport:
    """Which structure constants a fundamental-domain representative pins."""

    normalized_to_one: tuple[ArrowIndex, ...]       # indices in J_{Delta,2}
    normalized_to_pm_one: tuple[ArrowIndex, ...]    # indices in J_Delta minus J_{Delta,2}
    free: tuple[ArrowIndex, ...]
    rank_q: int
    rank_f2: int


def fundamental_domain(a: NiceLieAlgebra) -> FundamentalDomainReport:
    """Greedy selection (in index order) of mod-2 then rational row bases.

    A row joins a greedy basis exactly when it is a pivot column of the
    transpose: one reduction of M2^T, then one rref of M^T with the mod-2
    basis first (independent mod 2, so over Q), the rest in index order.
    """
    M, M2 = root_matrix(a.diagram)
    idx = a.indices()
    chosen2 = F2Reduction(MatF2.from_rows(list(zip(*M2.data)))).pivots
    order = [*chosen2, *(r for r in range(a.m) if r not in chosen2)]
    _, pivots = rref(MatQ.from_rows([[M.data[r][j] for r in order] for j in range(a.n)]))
    chosen_q = sorted(order[c] for c in pivots)
    to_one = tuple(idx[r] for r in chosen2)
    to_pm = tuple(idx[r] for r in chosen_q if r not in chosen2)
    free = tuple(idx[r] for r in range(a.m) if r not in chosen_q)
    return FundamentalDomainReport(to_one, to_pm, free, len(chosen_q), len(chosen2))


# ---------------------------------------------------------------------------
# Involutivity of eigendistributions


def eigendistribution_involutive(
    a: NiceLieAlgebra, plus_nodes: Sequence[int]
) -> tuple[bool, bool]:
    """Involutivity of the +1/-1 eigendistributions of the split along the basis.

    The paracomplex structure is +1 on span{e_i : i in plus_nodes} and -1 on
    the complementary span.
    """
    plus = set(plus_nodes)
    if not plus <= set(range(1, a.n + 1)):
        raise ValueError("plus_nodes out of range")
    minus = set(range(1, a.n + 1)) - plus

    def involutive(part: set[int]) -> bool:
        for (i, j), (k, _) in a.brackets().items():
            if i in part and j in part and k not in part:
                return False
        return True

    return involutive(plus), involutive(minus)


def sigma_eigenspace_involutivity(
    a: NiceLieAlgebra, sigma: Permutation
) -> tuple[bool, bool]:
    """Involutivity of the +-1 eigenspaces of a fixed-point-free involution.

    The eigenspaces are spanned by f_i^+- = e_i +- e_{sigma(i)}.
    """
    check_involution(a.diagram, sigma)
    if any(sigma[v - 1] == v for v in range(1, a.n + 1)):
        raise ValueError("sigma has fixed points")
    reps = sorted({min(v, sigma[v - 1]) for v in range(1, a.n + 1)})

    def basis_vec(i: int, s: int) -> list[Fraction]:
        v = [Fraction(0)] * a.n
        v[i - 1] += 1
        v[sigma[i - 1] - 1] += s
        return v

    def in_eigenspace(w: Sequence[Fraction], s: int) -> bool:
        return all(w[sigma[v - 1] - 1] == s * w[v - 1] for v in range(1, a.n + 1))

    plus_ok = True
    minus_ok = True
    for ai, bi in combinations(reps, 2):
        wp = bracket_vec(a, basis_vec(ai, 1), basis_vec(bi, 1))
        wm = bracket_vec(a, basis_vec(ai, -1), basis_vec(bi, -1))
        if not in_eigenspace(wp, 1):
            plus_ok = False
        if not in_eigenspace(wm, -1):
            minus_ok = False
    return plus_ok, minus_ok
