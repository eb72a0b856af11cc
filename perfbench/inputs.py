"""Seeded inputs of the benchmark workloads, and the checks of their outputs.

The benchmark hands the library only what this module generates: catalog
records whose structure strings are written in a seeded rescaled basis, and
seeded metrics for the Ricci oracle.  Nothing here calls the library.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

# The seven catalog entries whose P system reaches a nonlinear orthant.
NONLINEAR_ENTRIES = ("86532:6", "8654321:24", "8654321:25", "85321:48",
                     "8521:12", "842:121a", "842:121b")

# Basis rescaling factors.  Small numerators and denominators keep the
# rescaled constants close in size to the shipped ones.
SCALES = tuple(Fraction(x) for x in ("1", "2", "3", "1/2", "1/3", "2/3", "3/2"))

_TERM = re.compile(r"^(?P<coef>.*?)e\^(?P<idx>\{\d\d\}|\d\d)$")
_AFFINE_PIECE = re.compile(r"([+-]?)(\d+(?:/\d+)?)?([A-Za-z_][A-Za-z_0-9]*)?")


# ---------------------------------------------------------------------------
# Structure strings in a rescaled basis


def _node(ch: str) -> int:
    return 10 if ch == "0" else int(ch)


def _split_top(text: str, seps: str) -> list[str]:
    """Split at separators outside parentheses; each piece keeps its separator."""
    pieces, depth, buf = [], 0, ""
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if ch in seps and depth == 0 and buf.strip():
            pieces.append(buf)
            buf = "" if ch == "," else ch
        else:
            buf += ch
    pieces.append(buf)
    return pieces


def _affine(text: str) -> dict[str, Fraction]:
    """'lambda-1', '2', '3/2', 'a2' -> {'': const, name: coefficient}."""
    out: dict[str, Fraction] = {}
    pos = 0
    text = text.replace(" ", "")
    while pos < len(text):
        m = _AFFINE_PIECE.match(text, pos)
        if m is None or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"cannot read coefficient {text!r}")
        value = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        key = m.group(3) or ""
        out[key] = out.get(key, Fraction(0)) + value
        pos = m.end()
    return out


def _format_term(coef: dict[str, Fraction], idx: str, first: bool) -> str:
    names = sorted(k for k, v in coef.items() if k and v)
    const = coef.get("", Fraction(0))
    if not names:
        sign = "-" if const < 0 else ("" if first else "+")
        mag = abs(const)
        return sign + ("" if mag == 1 else f"{mag} ") + f"e^{{{idx}}}"
    parts = [f"{'' if coef[k] == 1 else '-' if coef[k] == -1 else coef[k]}{k}"
             for k in names]
    if const:
        parts.append(str(const))
    body = "+".join(parts).replace("+-", "-")
    return ("" if first else "+") + f"({body}) e^{{{idx}}}"


def rescale_structure(text: str, s: Sequence[Fraction]) -> str:
    """The same algebra in the basis e'_i = s_i e_i.

    [e'_i, e'_j] = s_i s_j c e_k = (s_i s_j / s_k) c e'_k, so each constant of
    de^k on e^{ij} is multiplied by s_i s_j / s_k.  Terms whose factor is 1
    keep their text, so all-ones scales return the input unchanged.
    """
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError("structure string must be parenthesized")
    comps = _split_top(body[1:-1], ",")
    if len(comps) != len(s):
        raise ValueError(f"{len(comps)} components but {len(s)} scales")
    out = []
    for k, comp in enumerate(comps, start=1):
        if comp.strip() == "0":
            out.append(comp)
            continue
        terms = []
        for piece in _split_top(comp, "+-"):
            raw = piece.strip()
            sign = -1 if raw.startswith("-") else 1
            m = _TERM.match(raw.lstrip("+-").strip())
            if m is None:
                raise ValueError(f"cannot read term {piece!r} of de^{k}")
            idx = m.group("idx").strip("{}")
            i, j = _node(idx[0]), _node(idx[1])
            factor = s[i - 1] * s[j - 1] / s[k - 1]
            if factor == 1:
                terms.append(piece)
                continue
            coef_text = m.group("coef").strip()
            if coef_text.startswith("(") and coef_text.endswith(")"):
                coef_text = coef_text[1:-1]
            coef = _affine(coef_text) if coef_text else {"": Fraction(1)}
            coef = {key: sign * factor * v for key, v in coef.items()}
            terms.append(_format_term(coef, idx, not terms))
        out.append("".join(terms))
    return "(" + ",".join(out) + ")"


def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """Images of 1..n under a permutation in cycle notation (0 is node 10)."""
    images = list(range(1, n + 1))
    for cyc in re.findall(r"\((\d+)\)", text):
        nodes = [_node(ch) for ch in cyc]
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            images[a - 1] = b
    return tuple(images)


def _n_of(structure: str) -> int:
    return len(_split_top(structure.strip()[1:-1], ","))


def draw_scales(rng: random.Random, n: int,
                sigma: Optional[Sequence[int]] = None) -> list[Fraction]:
    """Positive rational scales, constant on the orbits of sigma."""
    s = [rng.choice(SCALES) for _ in range(n)]
    if sigma is not None:
        for i in range(n):
            s[sigma[i] - 1] = s[min(i, sigma[i] - 1)]
    return s


# ---------------------------------------------------------------------------
# Catalog workloads


@dataclass(frozen=True)
class Record:
    """One catalog record: a classification, with its parameter solve if any."""

    entry: str
    mode: str            # "diagonal" or "sigma"
    index: int           # position in the entry's list for that mode
    structure: str       # the structure string handed to the library
    params: dict
    raw: dict

    @property
    def key(self) -> str:
        return f"{self.entry}/{self.mode}/{self.index}"


def catalog_records(catalog, nonlinear: bool) -> list[Record]:
    """The records of the nonlinear entries, or of all the others."""
    out = []
    for e in catalog:
        if (e.name in NONLINEAR_ENTRIES) != nonlinear:
            continue
        for mode in ("diagonal", "sigma"):
            for i, rec in enumerate(e.expected.get(mode, [])):
                out.append(Record(e.name, mode, i, e.structure, e.params, rec))
    return out


def rescaled_records(records: Sequence[Record], seed: int, pass_no: int) -> list[Record]:
    """Records in a seeded rescaled basis; seed 0 is the shipped catalog.

    The rescaling is an isomorphism (sigma-invariant for sigma records), so
    every expectation of the record still applies.  Parameter-solve records
    stay on the shipped family.
    """
    if seed == 0:
        return list(records)
    out = []
    for r in records:
        if r.raw.get("solve_param"):
            out.append(r)
            continue
        rng = random.Random(f"catalog/{seed}/{pass_no}/{r.key}")
        n = _n_of(r.structure)
        sigma = parse_cycles(r.raw["sigma"], n) if r.raw.get("sigma") else None
        out.append(replace(r, structure=rescale_structure(
            r.structure, draw_scales(rng, n, sigma))))
    return out


@dataclass
class Tally:
    """Counts of one pass or run; merged across passes."""

    checks: int = 0
    failed: int = 0
    results: int = 0
    exact_results: int = 0
    certs: int = 0
    exact_certs: int = 0

    def add(self, other: "Tally") -> None:
        for f in self.__dataclass_fields__:
            setattr(self, f, getattr(self, f) + getattr(other, f))


def check_catalog_item(outcomes, errors: list) -> Tally:
    """Check one record's outcomes as `catalog run` does, plus exact certificates.

    Every catalog check must match, and every exact certificate must have
    an oracle residual of exactly 0.
    """
    t = Tally()
    seen = set()
    for chk in outcomes:
        t.checks += 1
        if not chk.ok:
            t.failed += 1
            errors.append(f"{chk.entry} {chk.label}: got {chk.got}, want {chk.want}")
        res = chk.result
        if res is None or id(res) in seen:
            continue
        seen.add(id(res))
        t.results += 1
        t.exact_results += bool(res.exact)
        for cert in res.certificates:
            t.certs += 1
            if cert.exact:
                t.exact_certs += 1
                t.checks += 1
                if cert.oracle_residual != 0:
                    t.failed += 1
                    errors.append(f"{chk.entry} {chk.label}: exact certificate "
                                  f"has oracle residual {cert.oracle_residual}")
    return t


# ---------------------------------------------------------------------------
# Oracle workload

# Sub-diagonal entries of the unit lower-triangular factor of a Gram matrix.
GRAM_FACTORS = tuple(Fraction(x) for x in ("1", "-1", "2", "1/2", "-1/2"))
ORACLE_KINDS = ("diagonal", "sigma", "gram", "float")


@dataclass(frozen=True)
class OracleAlgebra:
    """One catalog algebra at its sample parameters, as the oracle sees it."""

    entry: str
    kind: str                           # one of ORACLE_KINDS
    params: dict                        # parameter values of the algebra
    sigma: Optional[tuple[int, ...]]    # images of 1..n, for kind "sigma"


@dataclass(frozen=True)
class OracleItem:
    """A metric on an algebra: coefficients g for the diagonal kinds, and its Gram matrix."""

    spec: OracleAlgebra
    algebra: object
    g: Optional[tuple]
    gram: tuple

    @property
    def key(self) -> str:
        return f"{self.spec.entry}/{self.spec.kind}"


def oracle_specs(catalog) -> list[OracleAlgebra]:
    """Every catalog algebra in each metric kind; sigma where the entry has one.

    The sample parameters are those of the entry's first record, and for the
    sigma kind those of its first sigma record.
    """
    out = []
    for e in catalog:
        recs = e.expected.get("diagonal", []) + e.expected.get("sigma", [])
        params = dict(recs[0].get("param", {})) if recs else {}
        for kind in ("diagonal", "gram", "float"):
            out.append(OracleAlgebra(e.name, kind, params, None))
        sig = e.expected.get("sigma", [])
        if sig:
            n = _n_of(e.structure)
            out.append(OracleAlgebra(e.name, "sigma", dict(sig[0].get("param", {})),
                                     parse_cycles(sig[0]["sigma"], n)))
    return out


def gram_ldlt(rng: random.Random, n: int) -> tuple:
    """A dense positive definite rational Gram matrix L D L^T."""
    L = [[Fraction(int(i == j)) if j >= i else rng.choice(GRAM_FACTORS)
          for j in range(n)] for i in range(n)]
    d = draw_scales(rng, n)
    return tuple(tuple(sum((L[i][k] * d[k] * L[j][k] for k in range(min(i, j) + 1)),
                           Fraction(0)) for j in range(n)) for i in range(n))


def oracle_items(algebras: Sequence[tuple[OracleAlgebra, object]], seed: int,
                 pass_no: int) -> list[OracleItem]:
    """One seeded metric for every (spec, algebra) pair."""
    out = []
    for spec, alg in algebras:
        rng = random.Random(f"oracle/{seed}/{pass_no}/{spec.entry}/{spec.kind}")
        n = alg.n
        g = None
        if spec.kind == "gram":
            gram = gram_ldlt(rng, n)
        else:
            if spec.kind == "float":
                g = tuple(rng.uniform(0.5, 2.0) for _ in range(n))
            else:
                g = tuple(draw_scales(rng, n, spec.sigma))
            sigma = spec.sigma or tuple(range(1, n + 1))
            zero = 0 * g[0]
            gram = tuple(tuple(g[i] if sigma[i] == j + 1 else zero for j in range(n))
                         for i in range(n))
        out.append(OracleItem(spec, alg, g, gram))
    return out


def invert(G: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular rational matrix, by Gauss-Jordan."""
    n = len(G)
    A = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(G)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def nilpotent_scalar(c, G) -> Fraction:
    """-1/4 sum G^{ac} G^{bd} g([e_a,e_b],[e_c,e_d]): scal of a nilpotent metric Lie algebra.

    c[a][b][k] are the structure constants (0-based, [e_a,e_b] = sum_k c[a][b][k] e_k).
    """
    n = len(G)
    Gi = invert(G)
    pairs = [(a, b) for a in range(n) for b in range(n) if any(c[a][b])]
    lowered = {ab: [sum((G[k][l] * c[ab[0]][ab[1]][l] for l in range(n)), Fraction(0))
                    for k in range(n)] for ab in pairs}
    total = Fraction(0)
    for a, b in pairs:
        for cc, d in pairs:
            w = Gi[a][cc] * Gi[b][d]
            if w:
                total += w * sum((x * y for x, y in zip(c[a][b], lowered[(cc, d)])),
                                 Fraction(0))
    return -total / 4


def check_oracle_item(item: OracleItem, c, ric, op, want, tol: float, errors: list) -> Tally:
    """Check one Ricci computation; one check per item.

    Diagonal and sigma metrics: the Ricci operator is diagonal and equals the
    weight formula `want` exactly; float metrics: within tol.  Gram
    metrics: the Ricci tensor is symmetric and the trace of the operator is
    the nilpotent scalar curvature, exactly.
    """
    n = len(op)
    kind = item.spec.kind
    exact = kind != "float"
    if kind == "gram":
        symmetric = all(ric[i][j] == ric[j][i] for i in range(n) for j in range(i))
        scal = sum(op[i][i] for i in range(n))
        want_scal = nilpotent_scalar(c, item.gram)
        ok = symmetric and scal == want_scal
        detail = f"symmetric={symmetric}, trace {scal}, want {want_scal}"
    else:
        dev = max(abs(op[i][j] - (want[i] if i == j else 0))
                  for i in range(n) for j in range(n))
        ok = dev == 0 if exact else dev <= tol
        detail = f"max deviation from the weight formula {dev}"
    if not ok:
        errors.append(f"{item.key}: {detail}")
    return Tally(checks=1, failed=int(not ok), results=1, exact_results=int(exact),
                 certs=1, exact_certs=int(exact))
