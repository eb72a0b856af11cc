import random
from itertools import combinations

import pytest

from nice_einstein.diagram import (
    NiceDiagram,
    Violation,
    automorphisms,
    format_permutation,
    index_set,
    involutions,
    is_automorphism,
    parse_permutation,
    root_matrix,
    sigma_arrow_action,
    validate_nice,
)
from nice_einstein.linalg import kernel_basis


def raw_arrows_of(d: NiceDiagram):
    out = []
    for (i, j, k) in d.arrows:
        out.append((i, j, k))
        out.append((j, i, k))
    return out


def test_validate_631_6_valid(algebras):
    d = algebras["631:6"].diagram
    assert validate_nice(d.n, raw_arrows_of(d)) == []


def test_validate_empty_diagram_valid():
    assert validate_nice(5, []) == []


def test_validate_n1_violation():
    # two arrows from node 1 with label 2 and different targets
    raw = [(1, 2, 4), (2, 1, 4), (1, 2, 5), (2, 1, 5)]
    violations = validate_nice(5, raw)
    assert any(v.axiom == "N1" for v in violations)


def test_validate_n3_violation():
    raw = [(1, 2, 3)]  # companion (2, 1, 3) missing
    violations = validate_nice(3, raw)
    assert any(v.axiom == "N3" for v in violations)


def test_validate_n4_violation():
    # exactly one two-step path {1,{2,3}} -> 5 exists
    raw = [(2, 3, 4), (3, 2, 4), (1, 4, 5), (4, 1, 5)]
    violations = validate_nice(5, raw)
    assert any(v.axiom == "N4" for v in violations)


def _reference_n4_scan(n, raw_arrows):
    """The N4 scan by single two-step lookups, verbatim from its first version."""
    arrows = sorted(set((int(i), int(j), int(k)) for (i, j, k) in raw_arrows))
    violations = []
    pair_target: dict[frozenset, set[int]] = {}
    for (i, j, k) in arrows:
        pair_target.setdefault(frozenset((i, j)), set()).add(k)

    def two_step(a: int, b: int, c: int, v: int) -> bool:
        for l in pair_target.get(frozenset((b, c)), ()):
            if v in pair_target.get(frozenset((a, l)), ()):
                return True
        return False

    for trip in combinations(range(1, n + 1), 3):
        for v in range(1, n + 1):
            if v in trip:
                continue
            a, b, c = trip
            hits = [two_step(a, b, c, v), two_step(b, c, a, v), two_step(c, a, b, v)]
            if sum(hits) == 1:
                violations.append(Violation(
                    "N4", (trip, v),
                    f"exactly one two-step path from {{{a},{b},{c}}} reaches {v}"))
    return violations


def _random_digraph(rng):
    """Mostly paired arrows {i,j} -> k, with N1, N2 and N3 faults mixed in."""
    n = rng.randint(3, 8)
    raw = []
    for _ in range(rng.randint(0, 2 * n)):
        i, j, k = (rng.randint(1, n) for _ in range(3))
        fault = rng.random()
        if fault < 0.05:
            raw.append((i, i, k))                   # N3: labeled by its own source
        elif fault < 0.15:
            raw.append((i, j, k))                   # N3: no companion arrow
        else:
            raw += [(i, j, k), (j, i, k)]           # N1/N2 when a pair repeats
    return n, raw


def test_n4_scan_matches_the_single_lookup_scan():
    rng = random.Random(20)
    with_n4 = with_other = 0
    for _ in range(2500):
        n, raw = _random_digraph(rng)
        got = validate_nice(n, raw)
        n4 = [v for v in got if v.axiom == "N4"]
        assert n4 == _reference_n4_scan(n, raw)
        assert got[len(got) - len(n4):] == n4       # N4 comes last
        with_n4 += bool(n4)
        with_other += len(got) > len(n4)
    assert with_n4 > 1000 and with_other > 1000


def test_index_set_62_4a(algebras):
    d = algebras["62:4a"].diagram
    assert index_set(d) == ((1, 3, 5), (2, 4, 5), (1, 2, 6), (3, 4, 6))


def test_index_set_single_arrow():
    d = NiceDiagram.from_pairs(3, [(1, 2, 3)])
    assert index_set(d) == ((1, 2, 3),)


def test_index_set_741_6_sorted_by_target(families):
    d = families["741:6"].substitute({"lambda": 2}).diagram
    idx = index_set(d)
    assert len(idx) == 6
    assert [k for (_, _, k) in idx] == sorted(k for (_, _, k) in idx)
    assert idx == ((1, 2, 4), (1, 3, 5), (2, 3, 6), (1, 6, 7), (2, 5, 7), (3, 4, 7))


def test_root_matrix_62_4a(algebras):
    M, M2 = root_matrix(algebras["62:4a"].diagram)
    rows = [tuple(int(x) for x in r) for r in M.data]
    assert rows == [
        (-1, 0, -1, 0, 1, 0),
        (0, -1, 0, -1, 1, 0),
        (-1, -1, 0, 0, 0, 1),
        (0, 0, -1, -1, 0, 1),
    ]
    assert M2.data == tuple(tuple(abs(x) % 2 for x in r) for r in rows)


def test_root_matrix_single_arrow():
    d = NiceDiagram.from_pairs(3, [(1, 2, 3)])
    M, _ = root_matrix(d)
    assert [int(x) for x in M.data[0]] == [-1, -1, 1]


def test_root_matrix_rows_sum_to_minus_one(algebras):
    for a in algebras.values():
        M, _ = root_matrix(a.diagram)
        for row in M.data:
            assert sum(row) == -1
            assert sorted(int(x) for x in row if x != 0) == [-1, -1, 1]


def test_root_matrix_631_6_transpose_kernel(algebras):
    M, _ = root_matrix(algebras["631:6"].diagram)
    basis = kernel_basis(M.transpose())
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] == -v[2] == v[3]


def test_automorphisms_631_6(algebras):
    auts = automorphisms(algebras["631:6"].diagram)
    assert [format_permutation(p) for p in auts] == ["id", "(23)(45)"]


def test_automorphisms_empty_diagram():
    d = NiceDiagram(3, ())
    assert len(automorphisms(d)) == 6


def test_automorphisms_refuses_large():
    with pytest.raises(ValueError):
        automorphisms(NiceDiagram(13, ()))


def test_automorphisms_741_6(families):
    d = families["741:6"].substitute({"lambda": 2}).diagram
    names = {format_permutation(p) for p in automorphisms(d)}
    assert {"(23)(45)", "(12)(56)", "(13)(46)"} <= names


def test_automorphism_group_closure(algebras):
    d = algebras["75432:3"].diagram
    auts = automorphisms(d)
    aset = set(auts)
    for p in auts:
        inv = tuple(sorted(range(1, d.n + 1), key=lambda v: p[v - 1]))
        assert inv in aset
        for q in auts:
            comp = tuple(p[q[v - 1] - 1] for v in range(1, d.n + 1))
            assert comp in aset


def test_involutions_631_6(algebras):
    invs = involutions(algebras["631:6"].diagram)
    assert [(format_permutation(p), f) for p, f in invs] == [("(23)(45)", False)]


def test_involutions_dim10_contains_fixed_point_free(algebras):
    invs = involutions(algebras["dim10"].diagram)
    tgt = parse_permutation("(13)(27)(45)(68)(90)", 10)
    assert any(p == tgt and fpf for p, fpf in invs)


def test_involutions_empty_n2():
    invs = involutions(NiceDiagram(2, ()))
    assert [(format_permutation(p), f) for p, f in invs] == [("(12)", True)]


def test_sigma_arrow_action_741_6(families):
    d = families["741:6"].substitute({"lambda": 2}).diagram
    sigma = parse_permutation("(23)(45)", 7)
    mapping, signs = sigma_arrow_action(d, sigma)
    # acts on the six indices as the transposition pattern (12)(56)
    assert mapping == (1, 0, 2, 3, 5, 4)
    assert signs == (1, 1, -1, 1, 1, 1)


def test_sigma_arrow_action_identity(algebras):
    d = algebras["631:6"].diagram
    ident = tuple(range(1, 7))
    mapping, signs = sigma_arrow_action(d, ident)
    assert mapping == tuple(range(4))
    assert signs == (1, 1, 1, 1)


def test_sigma_arrow_action_852_30_involution(algebras):
    d = algebras["852:30@(1,2)"].diagram
    sigma = parse_permutation("(23)(45)(78)", 8)
    mapping, signs = sigma_arrow_action(d, sigma)
    # applying twice gives the identity with signs multiplying to +1
    m = len(mapping)
    for p in range(m):
        assert mapping[mapping[p]] == p
        assert signs[p] * signs[mapping[p]] == 1


def test_sigma_arrow_action_rejects_non_automorphism(algebras):
    d = algebras["631:6"].diagram
    with pytest.raises(ValueError):
        sigma_arrow_action(d, parse_permutation("(12)", 6))


def test_permutation_round_trip():
    for text, n in [("(23)(45)", 7), ("(13)(27)(45)(68)(90)", 10), ("(12)", 2)]:
        assert format_permutation(parse_permutation(text, n)) == text
    assert format_permutation(tuple(range(1, 5))) == "id"


def test_is_automorphism(algebras):
    d = algebras["631:6"].diagram
    assert is_automorphism(d, parse_permutation("(23)(45)", 6))
    assert not is_automorphism(d, parse_permutation("(12)", 6))
