"""Nice diagrams: axioms, the ordered arrow index set, and the root matrix.

A labeled diagram has nodes 1..n and arrows i --j--> k (source i, target k,
label j).  The four axioms checked by `validate_nice` make the diagram
"nice"; arrows then pair up as {i,j} -> k and are indexed by the set of
triples ((i, j), k) with i < j, ordered lexicographically by (k, i, j).

A diagram is validated once per process: `NiceDiagram.from_pairs` returns
the same frozen instance for every (n, arrow set) it has seen, so the
per-diagram caches (`index_set`, `root_matrix`, and the Einstein
pipeline's systems for each (diagram, sigma, k)) hit by identity, whatever
the structure constants of the algebra that was parsed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .linalg import MatF2, MatQ

#: Hard cap for automorphism enumeration.
MAX_NODES = 12

ArrowIndex = tuple[int, int, int]  # (i, j, k) with i < j, meaning {i,j} -> k
Permutation = tuple[int, ...]      # images of 1..n, 1-based values


@dataclass(frozen=True)
class Violation:
    axiom: str
    arrows: tuple
    detail: str

    def __str__(self) -> str:
        return f"({self.axiom}) {self.detail}"


def validate_nice(n: int, raw_arrows: Iterable[tuple[int, int, int]]) -> list[Violation]:
    """Check axioms (N1)-(N4) on a raw labeled digraph.

    `raw_arrows` are (source, label, target) triples on nodes 1..n.  Returns
    one Violation per failed axiom instance; an empty list means the input
    is a nice diagram.
    """
    arrows = sorted(set((int(i), int(j), int(k)) for (i, j, k) in raw_arrows))
    violations: list[Violation] = []
    for (i, j, k) in arrows:
        for x in (i, j, k):
            if not 1 <= x <= n:
                violations.append(Violation("nodes", ((i, j, k),), f"node {x} out of range 1..{n}"))
    if violations:
        return violations

    by_source_label: dict[tuple[int, int], list[int]] = {}
    by_target_label: dict[tuple[int, int], list[int]] = {}
    for (i, j, k) in arrows:
        by_source_label.setdefault((i, j), []).append(k)
        by_target_label.setdefault((k, j), []).append(i)
    for (i, j), ks in sorted(by_source_label.items()):
        if len(ks) > 1:
            violations.append(Violation(
                "N1", tuple((i, j, k) for k in ks),
                f"arrows from {i} with label {j} hit several targets {ks}"))
    for (k, j), is_ in sorted(by_target_label.items()):
        if len(is_) > 1:
            violations.append(Violation(
                "N2", tuple((i, j, k) for i in is_),
                f"arrows into {k} with label {j} from several sources {is_}"))
    arrow_set = set(arrows)
    for (i, j, k) in arrows:
        if i == j:
            violations.append(Violation("N3", ((i, j, k),), f"arrow {i}->{k} labeled by its own source"))
        elif (j, i, k) not in arrow_set:
            violations.append(Violation("N3", ((i, j, k),), f"missing companion arrow {j}--{i}-->{k}"))

    # (N4), using unordered two-step paths: i -(j,k)-> v means there is an l
    # with {j,k} -> l and {i,l} -> v.
    pair_target: dict[tuple[int, int], set[int]] = {}
    for (i, j, k) in arrows:
        pair_target.setdefault((min(i, j), max(i, j)), set()).add(k)

    def reach(a: int, bc: tuple[int, int]) -> set[int]:
        """The v with a two-step path a -(b,c)-> v."""
        out: set[int] = set()
        for l in pair_target.get(bc, ()):
            out |= pair_target.get((min(a, l), max(a, l)), set())
        return out

    from itertools import combinations
    for trip in combinations(range(1, n + 1), 3):
        a, b, c = trip
        hits = (reach(a, (b, c)), reach(b, (a, c)), reach(c, (a, b)))
        once = (hits[0] ^ hits[1] ^ hits[2]) - (hits[0] & hits[1] & hits[2])
        for v in sorted(once.difference(trip)):
            violations.append(Violation(
                "N4", (trip, v),
                f"exactly one two-step path from {{{a},{b},{c}}} reaches {v}"))
    return violations


@dataclass(frozen=True)
class NiceDiagram:
    """A nice diagram with nodes 1..n; arrows stored as (i, j, k), i < j."""

    n: int
    arrows: tuple[ArrowIndex, ...]

    @classmethod
    def from_raw(cls, n: int, raw_arrows: Iterable[tuple[int, int, int]]) -> "NiceDiagram":
        violations = validate_nice(n, raw_arrows)
        if violations:
            raise ValueError("not a nice diagram: " + "; ".join(map(str, violations)))
        pairs = sorted(set((min(i, j), max(i, j), k) for (i, j, k) in raw_arrows))
        return cls(n, tuple(pairs))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int, int]]) -> "NiceDiagram":
        """Build from unordered-pair arrows {i,j} -> k, validating axioms.

        Each (n, arrow set) is validated once per process and always gives
        the same frozen instance, so the per-diagram caches (`root_matrix`,
        `index_set` and the Einstein pipeline's) hit by identity.  A
        non-nice input raises ValueError on every call.
        """
        return _nice_diagram(
            n, tuple(sorted({(min(i, j), max(i, j), k) for (i, j, k) in pairs})))


@lru_cache(maxsize=None)
def _nice_diagram(n: int, pairs: tuple[ArrowIndex, ...]) -> NiceDiagram:
    return NiceDiagram.from_raw(n, [a for (i, j, k) in pairs for a in ((i, j, k), (j, i, k))])


@lru_cache(maxsize=None)
def index_set(d: NiceDiagram) -> tuple[ArrowIndex, ...]:
    """The arrow indices ((i,j),k), i<j, in lexicographic (k, i, j) order."""
    return tuple(sorted(d.arrows, key=lambda a: (a[2], a[0], a[1])))


@lru_cache(maxsize=None)
def root_matrix(d: NiceDiagram) -> tuple[MatQ, MatF2]:
    """Integer weight matrix (one row x_k - x_i - x_j per index) and its mod-2 reduction."""
    rows = []
    for (i, j, k) in index_set(d):
        row = [0] * d.n
        row[i - 1] -= 1
        row[j - 1] -= 1
        row[k - 1] += 1
        rows.append(row)
    M = MatQ.from_rows(rows) if rows else MatQ.zero(0, d.n)
    M2 = MatF2.from_rows([[abs(x) % 2 for x in r] for r in rows]) if rows else MatF2(0, d.n, ())
    return M, M2


def _node_signature(d: NiceDiagram) -> dict[int, tuple]:
    """Cheap permutation-invariant fingerprint per node, for pruning."""
    as_member: dict[int, int] = {v: 0 for v in range(1, d.n + 1)}
    as_target: dict[int, int] = {v: 0 for v in range(1, d.n + 1)}
    for (i, j, k) in d.arrows:
        as_member[i] += 1
        as_member[j] += 1
        as_target[k] += 1
    return {v: (as_member[v], as_target[v]) for v in range(1, d.n + 1)}


def automorphisms(d: NiceDiagram) -> list[Permutation]:
    """All node permutations preserving arrows; includes the identity.

    Backtracking with node-signature pruning; refuses n > MAX_NODES.
    """
    if d.n > MAX_NODES:
        raise ValueError(f"automorphism search capped at n = {MAX_NODES}")
    sig = _node_signature(d)
    arrow_set = set(d.arrows)
    touching: dict[int, list[ArrowIndex]] = {v: [] for v in range(1, d.n + 1)}
    for a in d.arrows:
        for v in set(a):
            touching[v].append(a)

    result: list[Permutation] = []
    images = [0] * (d.n + 1)  # images[v] = sigma(v), 0 = unassigned
    used = [False] * (d.n + 1)

    def consistent(v: int) -> bool:
        # Check arrows all of whose nodes are assigned and that touch v.
        for (i, j, k) in touching[v]:
            si, sj, sk = images[i], images[j], images[k]
            if si and sj and sk:
                if (min(si, sj), max(si, sj), sk) not in arrow_set:
                    return False
        return True

    def extend(v: int) -> None:
        if v > d.n:
            result.append(tuple(images[1:]))
            return
        for w in range(1, d.n + 1):
            if used[w] or sig[v] != sig[w]:
                continue
            images[v] = w
            used[w] = True
            if consistent(v):
                extend(v + 1)
            images[v] = 0
            used[w] = False

    extend(1)
    result.sort()
    return result


def involutions(d: NiceDiagram) -> list[tuple[Permutation, bool]]:
    """Order-two automorphisms, each flagged fixed-point-free or not."""
    out = []
    for p in automorphisms(d):
        if all(p[v - 1] == v for v in range(1, d.n + 1)):
            continue
        if all(p[p[v - 1] - 1] == v for v in range(1, d.n + 1)):
            fpf = all(p[v - 1] != v for v in range(1, d.n + 1))
            out.append((p, fpf))
    return out


def is_automorphism(d: NiceDiagram, perm: Permutation) -> bool:
    if sorted(perm) != list(range(1, d.n + 1)):
        return False
    arrow_set = set(d.arrows)
    for (i, j, k) in d.arrows:
        si, sj, sk = perm[i - 1], perm[j - 1], perm[k - 1]
        if (min(si, sj), max(si, sj), sk) not in arrow_set:
            return False
    return True


def check_involution(d: NiceDiagram, sigma: Permutation) -> None:
    """Raise ValueError unless sigma is an involutive diagram automorphism."""
    if not is_automorphism(d, sigma):
        raise ValueError("sigma is not a diagram automorphism")
    if any(sigma[sigma[v - 1] - 1] != v for v in range(1, d.n + 1)):
        raise ValueError("sigma is not an involution")


def sigma_arrow_action(
    d: NiceDiagram, perm: Permutation
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Action of an automorphism on the index set, with wedge signs.

    Returns (mapping, signs): index position p goes to position mapping[p],
    with sign -1 exactly when the images of the source pair come out in
    reversed order.
    """
    if not is_automorphism(d, perm):
        raise ValueError("permutation is not a diagram automorphism")
    idx = index_set(d)
    pos = {a: p for p, a in enumerate(idx)}
    mapping = []
    signs = []
    for (i, j, k) in idx:
        si, sj, sk = perm[i - 1], perm[j - 1], perm[k - 1]
        signs.append(-1 if si > sj else 1)
        mapping.append(pos[(min(si, sj), max(si, sj), sk)])
    return tuple(mapping), tuple(signs)


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse cycle notation like "(23)(45)"; digit 0 stands for node 10."""
    images = list(range(1, n + 1))
    s = text.replace(" ", "")
    if not s or s.count("(") != s.count(")"):
        raise ValueError(f"bad permutation syntax: {text!r}")
    import re
    cycles = re.findall(r"\(([0-9]+)\)", s)
    if "".join(f"({c})" for c in cycles) != s:
        raise ValueError(f"bad permutation syntax: {text!r}")
    seen: set[int] = set()
    for cyc in cycles:
        nodes = [10 if ch == "0" else int(ch) for ch in cyc]
        if len(nodes) < 2:
            raise ValueError(f"cycle too short in {text!r}")
        for v in nodes:
            if not 1 <= v <= n:
                raise ValueError(f"node {v} out of range 1..{n}")
            if v in seen:
                raise ValueError(f"node {v} repeated in {text!r}")
            seen.add(v)
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            images[a - 1] = b
    return tuple(images)


def format_permutation(perm: Permutation) -> str:
    """Cycle notation with node 10 printed as 0; identity prints as "id"."""
    n = len(perm)
    seen = [False] * (n + 1)
    cycles = []
    for v in range(1, n + 1):
        if seen[v] or perm[v - 1] == v:
            seen[v] = True
            continue
        cyc = []
        w = v
        while not seen[w]:
            seen[w] = True
            cyc.append(w)
            w = perm[w - 1]
        cycles.append(cyc)
    if not cycles:
        return "id"
    return "".join("(" + "".join("0" if x == 10 else str(x) for x in c) + ")" for c in cycles)
