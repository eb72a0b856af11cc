import random
import sys
from fractions import Fraction as F
from itertools import product
from math import isqrt, prod
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nice_einstein.linalg import (AffineSet, EnumerationCapExceeded, StrictSystem,
                                  _int_scale, in_orthant, orthant_witness, vec_q)
from nice_einstein.solver import (_FIELD, ORTHANT_CAP, PDecision, _cut_points,
                                  _eliminant_roots, _groebner, _is_zero_dimensional,
                                  _p_basis, _p_system, _Packing, _qq, _rational_roots,
                                  _real_points, _ring,
                                  abs_monomial, decide_condition_p, feasible_orthants,
                                  gauge_slice, parameter_roots)


# The exact decider, one case per outcome, on small synthetic sets.
# Shifted line X = (t, t - 1), plane X = (t0, t1, t0 + t1) (a cone) and
# shifted plane X = (t0, t1, t0 + t1 + 1).
LINE = AffineSet((F(0), F(-1)), ((F(1), F(1)),))
PLANE = AffineSet((F(0), F(0), F(0)), ((F(1), F(0), F(1)), (F(0), F(1), F(1))))
SHIFTED_PLANE = AffineSet((F(0), F(0), F(1)), PLANE.basis)


def _decide(S, eps, exponents, rhs, memo=None):
    wt = orthant_witness(S, eps)
    return decide_condition_p(S, eps, wt, exponents, [F(r) for r in rhs], memo)


def test_empty_basis_is_an_exact_negative():
    # |X_1| = 1 and |X_1| = 2 at once: Groebner basis {1}.
    dec = _decide(PLANE, (0, 0, 0), [[1, 0, 0], [1, 0, 0]], [1, 2])
    assert (dec.solvable, dec.exact, dec.note) == (False, True, "Groebner basis {1}")


def test_rational_point_inside_and_outside_the_orthant():
    # |X_1 / X_2| = 2: t = 2(t - 1) gives X = (2, 1), in the positive
    # orthant; the all-negative orthant has the same sign vector, so the
    # same basis, and no point.
    memo = {}
    dec = _decide(LINE, (0, 0), [[1, -1]], [2], memo)
    assert (dec.solvable, dec.exact, dec.root_is_rational) == (True, True, True)
    assert dec.root_X == (F(2), F(1))
    assert abs_monomial(dec.root_X, [1, -1]) == 2
    dec = _decide(LINE, (1, 1), [[1, -1]], [2], memo)
    assert (dec.solvable, dec.exact, dec.note) == (False, True, "no real point in orthant")
    assert len(memo) == 1


def test_basis_out_of_shape_position():
    # |X_2| = 2 and |X_1 X_3| = 3: t1 = 2 and t0 = 1 or -3, two points with
    # the same last coordinate.  The separating form t0 + 2 t1 puts the
    # basis in shape position, and (1, 2, 3) is the point of the orthant.
    dec = _decide(PLANE, (0, 0, 0), [[0, 1, 0], [1, 0, 1]], [2, 3])
    assert (dec.solvable, dec.exact, dec.root_is_rational) == (True, True, True)
    assert dec.root_X == (F(1), F(2), F(3))


def test_irrational_point():
    # t (t - 1) = 1 with t > 1: t = (1 + sqrt 5) / 2.
    dec = _decide(LINE, (0, 0), [[1, 1]], [1])
    assert (dec.solvable, dec.exact, dec.root_is_rational) == (True, True, False)
    assert dec.note == "irrational root"
    assert dec.root_X == pytest.approx(((1 + 5 ** 0.5) / 2, (5 ** 0.5 - 1) / 2))


def test_positive_dimensional_variety_with_a_point():
    # |X_1 X_2 / X_3| = 1 is the curve t0 t1 = t0 + t1; a hyperplane cut
    # through the witness finds an exact point such as (2, 2, 4).
    dec = _decide(PLANE, (0, 0, 0), [[1, 1, -1]], [1])
    assert (dec.solvable, dec.exact, dec.root_is_rational) == (True, True, True)
    assert dec.note == "hyperplane cut"
    assert in_orthant(dec.root_X, (0, 0, 0))
    assert abs_monomial(dec.root_X, [1, 1, -1]) == 1


def test_positive_dimensional_variety_without_a_real_point():
    # |X_1 X_2| / |X_3|^2 = 1 on the shifted plane is
    # t0 t1 = (t0 + t1 + 1)^2, a curve with no real point in the positive
    # orthant (t0^2 + t0 t1 + t1^2 > 0 there).  No cut finds a point, and
    # the negative is labelled numeric-grade.
    dec = _decide(SHIFTED_PLANE, (0, 0, 0), [[1, 1, -2]], [1])
    assert (dec.solvable, dec.exact) == (False, False)
    assert "positive-dimensional" in dec.note


def test_scale_invariant_system_on_a_cone_is_decided_on_its_gauge_slice():
    # The same equation on the cone PLANE is scale invariant (row sum 0), so
    # it is decided on the slice X_1 = 1: t1^2 + t1 + 1 = 0 has no real
    # root, an exact negative.
    dec = _decide(PLANE, (0, 0, 0), [[1, 1, -2]], [1])
    assert (dec.solvable, dec.exact, dec.note) == (False, True, "no real point in orthant")


def test_rational_root_of_a_gauged_system_has_unit_first_coordinate():
    # |X_1 X_2| / |X_3|^2 = 2/9 on PLANE: on the slice X_1 = 1 it is
    # 2 t1^2 - 5 t1 + 2 = 0, so t1 = 1/2 or 2, and the first root is
    # returned.  With no exponents the witness is scaled onto the slice too.
    for exponents, rhs in (([[1, 1, -2]], [F(2, 9)]), ([], [])):
        dec = _decide(PLANE, (0, 0, 0), exponents, rhs)
        assert (dec.solvable, dec.exact, dec.root_is_rational) == (True, True, True)
        assert abs(dec.root_X[0]) == 1 and in_orthant(dec.root_X, (0, 0, 0))
    assert _decide(PLANE, (0, 0, 0), [[1, 1, -2]], [F(2, 9)]).root_X == (F(1), F(1, 2), F(3, 2))


def test_point_sets_go_through_the_basis():
    # A set of dimension 0 has a basis in z alone: z - 1 / prod X_j when
    # the point satisfies the system, {1} when it does not.
    point = AffineSet((F(2), F(-1)), ())
    dec = _decide(point, (0, 1), [[1, 1]], [2])
    assert (dec.solvable, dec.exact, dec.root_is_rational) == (True, True, True)
    assert dec.root_X == (F(2), F(-1))
    dec = _decide(point, (0, 1), [[1, 1]], [3])
    assert (dec.solvable, dec.exact, dec.note) == (False, True, "Groebner basis {1}")
    # on (1, 0) the signs agree but the point lies in another orthant
    dec = decide_condition_p(point, (1, 0), (), [[1, 1]], [F(2)])
    assert (dec.solvable, dec.exact, dec.note) == (False, True, "no real point in orthant")


def test_parameter_as_a_variable():
    # X = (t, t + 3) with |X_1| = c_1(u)^2, |X_2| = c_2^2 for c_1 = u,
    # c_2 = 2: X_2 = 4 pins t = 1, so u^2 = 1.  The work set has dimension 1.
    S = AffineSet((F(0), F(3)), ((F(1), F(1)),))
    exponents = [[1, 0], [0, 1]]
    c = ((F(0), F(1)), (F(2), F(0)))
    G = _p_basis(S, (1, 1), exponents, c=c)
    assert _eliminant_roots(G, None, None) == [F(-1), F(1)]
    assert _eliminant_roots(G, F(0), None) == [F(1)]
    assert _eliminant_roots(G, F(1), F(2)) == []


def test_constant_systems():
    # X = (1 + t, 2 + 2t): |X_2 / X_1| is 2 on the whole line.  Satisfied,
    # the cleared equation vanishes identically and only the Rabinowitsch
    # generator is left; violated, the basis is {1}.
    S = AffineSet((F(1), F(2)), ((F(1), F(2)),))
    dec = _decide(S, (0, 0), [[-1, 1]], [2])
    assert (dec.solvable, dec.exact, dec.root_is_rational) == (True, True, True)
    assert in_orthant(dec.root_X, (0, 0))
    assert abs_monomial(dec.root_X, [-1, 1]) == 2
    dec = _decide(S, (0, 0), [[-1, 1]], [3])
    assert (dec.solvable, dec.exact, dec.note) == (False, True, "Groebner basis {1}")


# ---------------------------------------------------------------------------
# The sparse-ring basis against the expression-based one it replaced


def _p_basis_from_expressions(S: AffineSet, signs, exponents, rhs=(), c=None):
    """The sympy.Poly / sympy.groebner construction that _p_basis replaced, verbatim."""
    import sympy

    def _rat(x):
        x = F(x)
        return sympy.Rational(x.numerator, x.denominator)

    p = S.dim
    gens = (sympy.Symbol("z"), *sympy.symbols(f"t:{p}"),
            *((sympy.Symbol("u"),) if c is not None else ()))
    ts, one = gens[1:1 + p], sympy.Poly(1, *gens, domain=sympy.QQ)

    def affine(const, terms):  # const + sum_i k_i x_i
        return sympy.Poly(_rat(const) + sum(_rat(k) * x for k, x in terms),
                          *gens, domain=sympy.QQ)

    X = [affine(S.particular[j], zip((b[j] for b in S.basis), ts))
         for j in range(S.ambient_dim)]
    cu = None if c is None else [affine(k0, [(k1, gens[-1])]) for k0, k1 in c]
    used = [j for j in range(S.ambient_dim) if any(a_row[j] for a_row in exponents)]
    polys = []
    for i, a_row in enumerate(exponents):
        sides = [one, one]                   # prod X^a+ and prod X^a-
        rsides = [one * _rat(rhs[i]), one] if c is None else [one, one]
        for j in used:
            aj = a_row[j]
            if aj:
                sides[aj < 0] *= X[j] ** abs(aj)
                if cu is not None:
                    rsides[aj < 0] *= cu[j] ** (2 * abs(aj))
        polys.append(sides[0] * rsides[1] - signs[i] * rsides[0] * sides[1])
    nonzero = one * gens[0]
    for j in used:
        nonzero *= X[j] if cu is None else X[j] * cu[j]
    polys.append(nonzero - 1)
    return sympy.groebner(polys, *gens, order="lex")


def _eliminant_roots_from_expressions(G, lo, hi):
    """Rational roots in (lo, hi) of G's eliminant, by the replaced expression code."""
    import sympy

    last, f = G.gens[-1], G.exprs[-1]
    if f.free_symbols != {last}:
        return []
    roots = []
    for q, _ in sympy.Poly(f, last, domain=sympy.QQ).factor_list()[1]:
        if q.degree() == 1:
            r = -q.nth(0) / q.nth(1)
            roots.append(F(int(r.p), int(r.q)))
    return sorted(r for r in roots if (lo is None or r > lo) and (hi is None or r < hi))


def _small_p_system(rng: random.Random, with_c: bool):
    p, m = rng.randint(1, 2), rng.randint(2, 4)
    S = AffineSet(tuple(F(rng.randint(-2, 2)) for _ in range(m)),
                  tuple(tuple(F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(m))
                        for _ in range(p)))
    # The parameter doubles the degrees, so it comes with exponents in {-1, 0, 1}.
    digits = (-1, 0, 0, 1) if with_c else (-2, -1, 0, 0, 1, 2)
    exponents = [[rng.choice(digits) for _ in range(m)] for _ in range(rng.randint(1, 2))]
    signs = tuple(rng.choice((1, -1)) for _ in exponents)
    rhs = [rng.choice((F(1), F(2), F(1, 2), F(3))) for _ in exponents]
    c = [(F(rng.randint(-2, 2)), F(rng.randint(-1, 1))) for _ in range(m)] if with_c else None
    return S, signs, exponents, rhs, c


@pytest.mark.parametrize("with_c", [False, True])
def test_sparse_basis_matches_the_expression_basis(with_c):
    rng = random.Random(2024 + with_c)
    for _ in range(25):
        S, signs, exponents, rhs, c = _small_p_system(rng, with_c)
        G = _p_basis(S, signs, exponents, rhs, c)
        ref = _p_basis_from_expressions(S, signs, exponents, rhs, c)
        # sympy.groebner clears denominators when every input coefficient
        # is an integer; a reduced basis is unique up to scaling its
        # elements, so both sides are compared monic.
        assert [g.as_expr() for g in G] == [p.monic().as_expr() for p in ref.polys]
        for lo, hi in ((None, None), (F(0), None), (F(-1), F(2))):
            assert (_eliminant_roots(G, lo, hi)
                    == _eliminant_roots_from_expressions(ref, lo, hi))


def test_integral_generators_with_fractional_coefficients():
    # The generators are built over ZZ from e * X and d_j * c_j(u); fractional
    # constants and slopes of c exercise the d_j.
    rng = random.Random(77)
    for _ in range(12):
        S, signs, exponents, rhs, c = _small_p_system(rng, True)
        c = [(k0 / rng.choice((1, 2, 3)), k1 / rng.choice((1, 2))) for k0, k1 in c]
        G = _p_basis(S, signs, exponents, rhs, c)
        ref = _p_basis_from_expressions(S, signs, exponents, rhs, c)
        assert [g.as_expr() for g in G] == [p.monic().as_expr() for p in ref.polys]


# ---------------------------------------------------------------------------
# Orthants with X_pin < 0 decided on the +1 gauge slice


def _zero_sum_row(rng: random.Random, m: int, digits) -> tuple[int, ...]:
    while True:
        row = [rng.choice(digits) for _ in range(m - 1)]
        if -sum(row) in digits:
            return (*row, -sum(row))


def _mirror_case(rng: random.Random, kind: str):
    """(cone, exponents, signs, rhs, c) with zero row sums.

    "rhs": rational right-hand sides; "c": a random family parameter;
    "c-points": two equations on a 2-dimensional cone in 3 coordinates, so
    the slice and u are usually pinned to points and the eliminant in u
    often has rational roots that are not symmetric about 0.
    """
    if kind == "c-points":
        m, p = 3, 2
        exponents = rng.choice(([(1, -1, 0), (0, 1, -1)], [(1, -1, 0), (1, 0, -1)]))
    else:
        # u doubles the degrees, so it comes with a 1-dimensional slice
        m, p = rng.randint(3, 4), 2 if kind == "c" else rng.randint(2, 3)
        digits = (-1, 0, 1) if kind == "c" else (-2, -1, 0, 1, 2)
        exponents = [_zero_sum_row(rng, m, digits) for _ in range(rng.randint(1, 2))]
    basis = tuple(tuple(F(rng.randint(-2, 2), rng.choice((1, 1, 2, 3))) for _ in range(m))
                  for _ in range(p))
    if not any(map(any, basis)) or not any(map(any, exponents)):
        return None
    signs = tuple(rng.choice((1, -1)) for _ in exponents)
    rhs = () if kind != "rhs" else tuple(F(rng.randint(1, 9), rng.randint(1, 9))
                                         for _ in exponents)
    c = None if kind == "rhs" else tuple(
        (F(rng.randint(-3, 3), rng.choice((1, 2))), F(rng.choice((-1, 1, 2))))
        for _ in range(m))
    return AffineSet((F(0),) * m, basis), exponents, signs, rhs, c


def _signs(eps, exponents):
    return tuple(-1 if sum(a for a, e in zip(row, eps) if e) % 2 else 1 for row in exponents)


def _decide_on_minus_slice(S, eps, exponents, rhs, bases):
    """The P decision of an X_pin < 0 orthant made on the -1 gauge slice, as
    decide_condition_p made it before that slice was dropped; `bases` holds
    the slice's bases by signs."""
    _, plus = gauge_slice(S)
    minus = AffineSet(tuple(-x for x in plus.particular), plus.basis)
    signs = _signs(eps, exponents)
    if signs not in bases:
        bases[signs] = _p_basis(minus, signs, exponents, rhs)
    G = bases[signs]
    want = tuple(-1 if e else 1 for e in eps)
    if G == [1]:
        return PDecision(False, True, note="Groebner basis {1}")
    note = ""
    if _is_zero_dimensional(G):
        points = _real_points(G, minus)
    else:
        points = _cut_points(G, minus, want, orthant_witness(minus, eps))
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
    return PDecision(True, True, root_X=pt.X, root_is_rational=True, note=note)


def test_minus_orthants_are_decided_as_antipodes_on_the_plus_slice():
    # A k = 0 system is invariant under X -> -X, so an orthant with
    # X_pin < 0 is decided as its complement on the +1 slice and the point
    # negated.  The decision, floats included, and the parameter roots must
    # be those made on the -1 slice itself; the memo holds one slice per cone.
    rng = random.Random(13)
    seen, notes, cones = set(), set(), 0
    while cones < 240:
        kind = ("rhs", "c", "c-points")[cones % 3]
        case = _mirror_case(rng, kind)
        if case is None:
            continue
        S, exponents, _, rhs, c = case
        pin, plus = gauge_slice(S)
        orthants = feasible_orthants(S)
        memo = {}
        if c is None:
            bases = {}
            for o in orthants:
                if o.eps[pin]:
                    got = decide_condition_p(S, o.eps, o.witness_t, exponents, rhs, memo)
                    assert got == _decide_on_minus_slice(S, o.eps, exponents, rhs, bases)
                    notes.add(got.note)
        else:
            roots = parameter_roots(S, orthants, exponents, c, None, None, memo)
            minus = AffineSet(tuple(-x for x in plus.particular), plus.basis)
            want = set()
            for o in orthants:
                G = _p_basis(minus if o.eps[pin] else plus, _signs(o.eps, exponents),
                             exponents, c=c)
                want.update(_eliminant_roots(G, None, None))
            assert roots == sorted(want)
            seen.add((kind, bool(roots) and roots != sorted(-r for r in roots)))
        assert memo.get(S, (pin, plus)) == (pin, plus)
        assert all(key[0] == plus for key in memo if key != S)
        cones += 1
        seen.add((kind, sum(1 for col in zip(*exponents) if any(col)) % 2))
    # odd and even |used|, with and without c; asymmetric roots in u; rational
    # and irrational points, and points outside the orthant
    assert seen >= {(kind, odd) for kind in ("rhs", "c") for odd in (0, 1)}
    assert ("c-points", True) in seen
    assert {"", "irrational root", "hyperplane cut", "no real point in orthant"} <= notes


def test_fat_point_is_decided_exactly():
    # On the cone X = (t0, t1, t2, t0 + t1, t0 + t2), |X_4|^2 = 4 |X_1 X_2|
    # and |X_5|^2 = 4 |X_1 X_3| cut the slice X_1 = 1 in the fat point
    # ((t1 - 1)^2, (t2 - 1)^2), which no linear form puts in shape position.
    # Its radical is, and X = (1, 1, 1, 2, 2) is found on the positive
    # orthant, its negation on the negative one.
    cone = AffineSet((F(0),) * 5, tuple(tuple(map(F, row)) for row in (
        (1, 0, 0, 1, 1), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1))))
    exponents = [(-1, -1, 0, 2, 0), (-1, 0, -1, 0, 2)]
    root = tuple(map(F, (1, 1, 1, 2, 2)))
    for eps, X in (((0,) * 5, root), ((1,) * 5, tuple(-x for x in root))):
        dec = _decide(cone, eps, exponents, [4, 4])
        assert dec == PDecision(True, True, root_X=X, root_is_rational=True)


def test_cut_walk_recurses_until_zero_dimensional(monkeypatch):
    # |X_1 X_2 X_3 / X_4| = 1/2 on X = (t0, t1, t2, t0 + t1 + t2 + 1) is a
    # surface: the cut t0 = 1 leaves a curve, so the walk recurses, and
    # t1 = 1 then leaves points, among them (1, 1, 3, 6).
    import nice_einstein.solver as solver

    S = AffineSet((F(0), F(0), F(0), F(1)), tuple(tuple(map(F, row)) for row in (
        (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1))))
    zero_dim = []
    test = solver._is_zero_dimensional
    monkeypatch.setattr(solver, "_is_zero_dimensional",
                        lambda G: zero_dim.append(test(G)) or zero_dim[-1])
    dec = _decide(S, (0, 0, 0, 0), [(1, 1, 1, -1)], [F(1, 2)])
    assert dec == PDecision(True, True, root_X=tuple(map(F, (1, 1, 3, 6))),
                            root_is_rational=True, note="hyperplane cut")
    # the surface, the curve after one cut, the points after two
    assert zero_dim[:3] == [False, False, True]


# ---------------------------------------------------------------------------
# The integer Buchberger against sympy's, and its packed monomials

_EXPONENT = st.one_of(st.integers(0, 3), st.integers(0, (1 << (_FIELD - 1)) - 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    *(st.tuples(*(_EXPONENT,) * n),) * 2)))
def test_packed_monomials_match_tuple_arithmetic(pair):
    a, b = pair
    pack = _Packing(len(a))
    pa, pb = pack.pack(a), pack.pack(b)
    assert pack.unpack(pa) == a and pack.unpack(pb) == b
    assert (pa < pb) == (a < b)                 # lex, the first generator on top
    assert [pack.unpack(pack.gen(i)) for i in range(len(a))] == [
        tuple(int(i == j) for j in range(len(a))) for i in range(len(a))]
    product = tuple(x + y for x, y in zip(a, b))
    if max(product) < 1 << (_FIELD - 1):
        pack.check([pa + pb])
        assert pack.unpack(pa + pb) == product
    else:
        with pytest.raises(OverflowError):
            pack.check([pa, pa + pb])
    divides = all(x <= y for x, y in zip(a, b))
    assert pack.divides(pa, pb) == divides
    if divides:
        assert pack.unpack(pb - pa) == tuple(y - x for x, y in zip(a, b))
    assert pack.unpack(pack.lcm(pa, pb)) == tuple(map(max, a, b))


def test_exponents_past_the_field_raise():
    pack = _Packing(2)
    with pytest.raises(OverflowError):
        pack.pack((0, 1 << (_FIELD - 1)))
    # the S-polynomial of x^2 - y^top and x*y - 1 needs y^(top + 1), and so
    # does x*y - 1 reduced by x - y^top
    R = _ring(["x", "y"])
    x, y = R.gens
    top = (1 << (_FIELD - 1)) - 1
    for polys in ([x ** 2 - y ** top, x * y - 1], [x - y ** top, x * y - 1]):
        with pytest.raises(OverflowError):
            _groebner(polys)


def _check_against_sympy(polys):
    """_groebner(polys), after checking it against sympy's Buchberger term by term."""
    from sympy.polys.groebnertools import groebner

    G = _groebner(polys)
    want = groebner([f for f in polys if f], polys[0].ring)
    assert [g.ring for g in G] == [g.ring for g in want]
    assert [sorted(g.items()) for g in G] == [sorted(g.items()) for g in want]
    return G


def test_integer_buchberger_matches_sympy(monkeypatch):
    # The P generators of random systems, with and without a family
    # parameter, on affine sets and gauge slices, are checked against
    # sympy, and each must give _p_basis's basis; so must every basis that
    # _separated, _radical and _cut_points build on the way.
    import nice_einstein.solver as solver

    rng = random.Random(2718)
    cases = [_small_p_system(rng, i % 2 == 1) for i in range(200)]
    while len(cases) < 360:
        case = _mirror_case(rng, ("rhs", "c", "c-points")[len(cases) % 3])
        if case is not None:
            cone, exponents, signs, rhs, c = case
            cases.append((gauge_slice(cone)[1], signs, exponents, rhs, c))
    inconsistent = 0
    for S, signs, exponents, rhs, c in cases:
        names, polys = _p_system(S, signs, exponents, rhs, c)
        R, unpack = _ring(names), _Packing(len(names)).unpack
        G = _check_against_sympy([R.from_dict({unpack(m): k for m, k in f.items()})
                                  for f in polys])
        assert [sorted(g.items()) for g in G] == [
            sorted(g.items()) for g in _p_basis(S, signs, exponents, rhs, c)]
        inconsistent += G == [1]
    assert 20 <= inconsistent <= len(cases) - 20
    callers = set()

    def checked(polys):
        callers.add(sys._getframe(1).f_code.co_name)
        return _check_against_sympy(polys)

    monkeypatch.setattr(solver, "_groebner", checked)
    test_fat_point_is_decided_exactly()
    test_cut_walk_recurses_until_zero_dimensional(monkeypatch)
    assert callers == {"_separated", "_radical", "walk"}     # walk: _cut_points


# ---------------------------------------------------------------------------
# Rational roots by p-adic lifting against sympy's factoring


def _rational_roots_by_factoring(f: list[int]) -> list[F]:
    """The roots of the linear factors in sympy's factor_list of f."""
    roots = []
    for q, _ in _ring(["v"]).from_list(f).factor_list()[1]:
        if q.degree() == 1:
            r = -q(0) / q.LC
            roots.append(F(int(r.numerator), int(r.denominator)))
    return sorted(roots)


def _first_roots(n: int) -> list[int]:
    """(v - 0)(v - 1) ... (v - n + 1), dense."""
    R = _ring(["v"])
    return [int(k) for k in prod((R.gens[0] - i for i in range(n)), start=R.one).to_dense()]


def _seeded_polynomials(rng: random.Random, count: int) -> list[list[int]]:
    """Products of linear factors with multiplicities, powers of v and
    irreducible quadratics, with 15-, 60- and 200-bit coefficients and
    leading coefficients divisible by 3, 5 and 7."""
    R = _ring(["v"])
    v = R.gens[0]
    out = [_first_roots(14)]
    while len(out) < count:
        bits = (15, 15, 60, 200)[len(out) % 4]
        f = R(rng.choice((1, -1, 3, 5, 7, 15, 35, 105)))
        f *= v ** rng.choice((0, 0, 1, 2))
        for _ in range(rng.randint(0, 3)):
            q = rng.choice((1, 2, 3, 5, 7, 9, 25, 49, rng.randint(1, 2 ** bits)))
            f *= (q * v - rng.randint(-2 ** bits, 2 ** bits)) ** rng.choice((1, 1, 1, 2, 3))
        for _ in range(rng.choice((0, 1, 1, 2))):
            a = rng.randint(1, 2 ** bits)
            b = rng.randint(-2 ** bits, 2 ** bits)
            c = rng.randint(-2 ** bits, 2 ** bits)
            if b * b - 4 * a * c >= 0 and isqrt(b * b - 4 * a * c) ** 2 == b * b - 4 * a * c:
                continue            # reducible
            f *= a * v ** 2 + b * v + c
        if f.degree() >= 1:
            out.append([int(k) for k in f.to_dense()])
    return out


def test_rational_roots_match_the_linear_factors():
    # Every rational root is found once, none is made up, and what is left
    # is the square-free part with the roots divided out, with no rational
    # root.
    R = _ring(["v"])
    v = R.gens[0]
    seen = {"real quadratic": 0, "complex quadratic": 0, "multiple root": 0, "root 0": 0}
    for f in _seeded_polynomials(random.Random(4141), 1500):
        roots, rest = _rational_roots(f)
        assert roots == _rational_roots_by_factoring(f)
        sqf = R.from_list(f).sqf_part()
        # so rest has no rational root: sqf has no double one
        assert (R.from_list(rest) * prod((v - _qq(r) for r in roots), start=R.one)).monic() == sqf
        if len(rest) == 3:
            real = R.dup_count_real_roots(R.from_list(rest))
            seen["real quadratic" if real else "complex quadratic"] += 1
        seen["multiple root"] += sqf.degree() < len(f) - 1 and bool(roots)
        seen["root 0"] += F(0) in roots
    assert min(seen.values()) >= 50
    assert _rational_roots(_first_roots(14)) == (list(map(F, range(14))), [1])


def test_no_usable_prime_below_the_bound_raises(monkeypatch):
    # Past the root 0, the roots 1, ..., 13 collide mod 3, 5, 7 and 11 and
    # are distinct mod 13; a bound of 13 leaves no prime to lift from.
    import nice_einstein.solver as solver

    f = _first_roots(14)
    monkeypatch.setattr(solver, "PRIME_BOUND", 14)
    assert _rational_roots(f)[0] == list(map(F, range(14)))
    monkeypatch.setattr(solver, "PRIME_BOUND", 13)
    with pytest.raises(RuntimeError, match="no odd prime below 13"):
        _rational_roots(f)


def test_one_ring_per_name_tuple():
    assert _ring(["z", "t0"]) is _ring(("z", "t0"))
    assert _ring(["z", "t0"]) is not _ring(["t0", "z"])


def _real_points_by_factoring(G, S):
    """The factor_list loop that `_real_points` replaced, verbatim but for
    the dense f, with its refinement of each coordinate from the coarse
    isolating interval."""
    from nice_einstein.solver import _RealPoint, _frac, _radical, _separated, _shape

    def sign_at_root(h, q, a, b):
        h = h % q
        if not h:
            return 0
        while q.ring.dup_count_real_roots(h, a, b):
            a, b = q.ring.dup_refine_real_root(q, a, b, eps=(b - a) / 1024)
        return 1 if h(a) > 0 else -1

    def float_at(h, q, a, b):
        h = h % q
        dh = h.diff(h.ring.gens[0])
        while q.ring.dup_count_real_roots(dh, a, b) or float(h(a)) != float(h(b)):
            a, b = q.ring.dup_refine_real_root(q, a, b, eps=(b - a) / 1024)
        return float(h(a))

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
    R1 = _ring(["v"])
    f = R1.from_list(f)         # `_shape` gives f dense over ZZ
    Xpolys = [sum((tp * _qq(b[j]) for tp, b in zip(tpolys, S.basis)), R1(_qq(S.particular[j])))
              for j in range(S.ambient_dim)]
    out = []
    for q, _ in f.factor_list()[1]:
        if q.degree() == 1:
            r = -q(0) / q.LC
            X = S.point(tuple(_frac(tp(r)) for tp in tpolys))
            out.append(_RealPoint(X, True, tuple((x > 0) - (x < 0) for x in X), float(r)))
            continue
        for a, b in R1.dup_isolate_real_roots_sqf(q):
            tf = [float_at(tp, q, a, b) for tp in tpolys]
            X = []
            for j in range(S.ambient_dim):
                x = float(S.particular[j])
                for tfi, bv in zip(tf, S.basis):
                    x += float(bv[j]) * tfi
                X.append(x)
            signs = tuple(sign_at_root(h, q, a, b) for h in Xpolys)
            out.append(_RealPoint(tuple(X), False, signs, float_at(R1.gens[0], q, a, b)))
    out.sort(key=lambda pt: pt.value_float)
    return out


def test_decisions_match_the_factoring_loop(monkeypatch):
    # Seeded systems, every feasible orthant: many of the points are
    # irrational, and each decision is the factoring loop's, repr for repr.
    import nice_einstein.solver as solver

    def decisions():
        rng = random.Random(17)
        out = []
        for _ in range(40):
            S, _, exponents, rhs, _ = _small_p_system(rng, False)
            memo = {}
            out += [decide_condition_p(S, o.eps, o.witness_t, exponents, rhs, memo)
                    for o in feasible_orthants(S)]
        return out

    got = decisions()
    monkeypatch.setattr(solver, "_real_points", _real_points_by_factoring)
    want = decisions()
    assert list(map(repr, got)) == list(map(repr, want))
    assert sum(d.solvable and not d.root_is_rational for d in got) >= 40
    assert sum(d.solvable and d.root_is_rational for d in got) >= 20


def test_catalog_run_factors_no_polynomial(monkeypatch, cold_caches):
    # Every catalog eliminant's points are rational: none reaches factor_list.
    from sympy.polys.rings import PolyElement

    from nice_einstein.cli import main

    calls = []
    factor_list = PolyElement.factor_list
    monkeypatch.setattr(PolyElement, "factor_list",
                        lambda f: calls.append(f) or factor_list(f))
    assert main(["catalog", "run"]) == 0
    assert calls == []


# ---------------------------------------------------------------------------
# Orthant enumeration against a from-scratch Fourier-Motzkin reference


def _feasible_strict_from_scratch(ineqs, nvars: int) -> Optional[list]:
    """The elimination loop that the incremental StrictSystem replaced, verbatim."""
    if not ineqs:
        return [F(0)] * nvars
    stages = []
    current = [(vec_q(c), F(v)) for c, v in ineqs]
    for k in range(nvars - 1, -1, -1):
        stages.append(current)
        nxt: dict = {}
        lowers = []
        uppers = []
        for coeffs, const in current:
            ck = coeffs[k]
            rest = (coeffs[:k], const)
            if ck == 0:
                key = _int_scale(rest[0] + (const,))
                nxt[key] = (rest[0], const)
            elif ck > 0:
                lowers.append((ck, rest))
            else:
                uppers.append((ck, rest))
        for cl, (rl, kl) in lowers:
            for cu, (ru, ku) in uppers:
                coeffs = tuple(cl * b - cu * a for a, b in zip(rl, ru))
                const = cl * ku - cu * kl
                key = _int_scale(coeffs + (const,))
                nxt[key] = (coeffs, const)
        current = list(nxt.values())
    for coeffs, const in current:
        if const <= 0:
            return None
    witness: list = []
    for k, stage in zip(range(nvars), reversed(stages)):
        lo = hi = None
        for coeffs, const in stage:
            ck = coeffs[k]
            if ck == 0:
                continue
            rest = const + sum(c * w for c, w in zip(coeffs[:k], witness))
            bound = -rest / ck
            if ck > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            witness.insert(k, F(0))
        elif lo is None:
            witness.insert(k, hi - 1)
        elif hi is None:
            witness.insert(k, lo + 1)
        else:
            witness.insert(k, (lo + hi) / 2)
    return witness


def _feasible_strict(ineqs, nvars: int) -> Optional[list]:
    """Push each row (coeffs, const) into one StrictSystem; its witness, or None."""
    system = StrictSystem(nvars)
    for coeffs, const in ineqs:
        if not system.add(_int_scale(vec_q(coeffs) + (F(const),))):
            return None
    return system.witness()


def _orthant_rows(S: AffineSet, eps) -> list[tuple]:
    """The orthant eps as strict rows coeffs.t + const > 0 over S's parameters."""
    return [(tuple(s * b[j] for b in S.basis), s * S.particular[j])
            for j, s in enumerate(-1 if e else 1 for e in eps)]


def _orthants_by_brute_force(S: AffineSet) -> list[tuple]:
    """(eps, witness_t, witness_X) of every orthant, each solved from scratch."""
    out = []
    for eps in product((0, 1), repeat=S.ambient_dim):
        t = _feasible_strict_from_scratch(_orthant_rows(S, eps), S.dim)
        if t is not None:
            out.append((eps, tuple(t), S.point(t)))
    return out


RATS = st.builds(F, st.integers(-3, 3), st.integers(1, 2))
RATIOS = st.sampled_from([F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 3), F(3)])


@st.composite
def affine_sets(draw) -> AffineSet:
    """Up to 6 coordinates over 0-3 parameters: free functionals (zero ones
    included), multiples of earlier ones with either sign, and constants."""
    p = draw(st.integers(0, 3))
    funcs: list[tuple] = []   # (const, coeffs) per coordinate
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("free", "multiple", "constant")))
        if kind == "multiple" and funcs:
            const, coeffs = draw(st.sampled_from(funcs))
            q = draw(RATIOS)
            funcs.append((q * const, tuple(q * c for c in coeffs)))
        elif kind == "constant":
            funcs.append((draw(RATS.filter(bool)), (F(0),) * p))
        else:
            funcs.append((draw(RATS), tuple(draw(RATS) for _ in range(p))))
    return AffineSet(tuple(c for c, _ in funcs),
                     tuple(tuple(f[1][i] for f in funcs) for i in range(p)))


@given(affine_sets())
@settings(max_examples=200, deadline=None)
def test_feasible_orthants_match_from_scratch_elimination(S):
    got = [(o.eps, o.witness_t, o.witness_X) for o in feasible_orthants(S)]
    assert got == _orthants_by_brute_force(S)


@given(affine_sets())
@settings(max_examples=100, deadline=None)
def test_orthant_witness_matches_from_scratch_elimination(S):
    for eps in product((0, 1), repeat=S.ambient_dim):
        t = _feasible_strict_from_scratch(_orthant_rows(S, eps), S.dim)
        assert orthant_witness(S, eps) == (None if t is None else tuple(t))


@st.composite
def parity_constraints(draw, m: int) -> list[tuple[int, int]]:
    """Up to 3 random (mask, bit) over m coordinates; an empty mask now and then."""
    return draw(st.lists(st.tuples(st.integers(0, (1 << m) - 1), st.integers(0, 1)),
                         max_size=3))


@given(affine_sets().flatmap(lambda S: st.tuples(st.just(S),
                                                  parity_constraints(S.ambient_dim))))
@settings(max_examples=300, deadline=None)
def test_parity_prunes_exactly_the_failing_orthants(case):
    # Shared classes and negative orients come from the affine sets; a
    # failing empty-mask constraint must empty the result.
    S, parity = case

    def passes(eps):
        bits = sum(e << j for j, e in enumerate(eps))
        return all((mask & bits).bit_count() % 2 == bit for mask, bit in parity)

    def key(o):
        return o.eps, o.witness_t, o.witness_X
    want = [key(o) for o in feasible_orthants(S) if passes(o.eps)]
    assert [key(o) for o in feasible_orthants(S, parity=parity)] == want


def test_failing_constant_constraint_empties_the_result():
    plane = AffineSet((F(0), F(0)), ((F(1), F(0)), (F(0), F(1))))
    assert feasible_orthants(plane, parity=[(0, 1)]) == []
    # X_1 and -X_1 always differ in sign: their parities sum to 1
    line = AffineSet((F(0), F(0)), ((F(1), F(-1)),))
    assert feasible_orthants(line, parity=[(0b11, 0)]) == []
    assert [o.eps for o in feasible_orthants(line, parity=[(0b11, 1)])] == [(0, 1), (1, 0)]


def test_l_prunes_the_search_and_keeps_the_verdict(monkeypatch, cold_caches):
    # 8654321:19 (diagonal, k = 0): the one leaf has 24 feasible orthants,
    # none attainable mod 2, so none is enumerated and L still decides.
    import nice_einstein.einstein as einstein
    from nice_einstein.catalog import find_entry

    counts = []

    def counted(S, cap=ORTHANT_CAP, parity=(), classes=None):
        counts.append((len(feasible_orthants(S)), len(feasible_orthants(S, parity=parity))))
        return feasible_orthants(S, cap, parity, classes)
    monkeypatch.setattr(einstein, "feasible_orthants", counted)
    res = einstein.diagonal_einstein(find_entry("8654321:19").algebra(), 0)
    assert counts == [(24, 0)]
    assert (res.success, res.failed_at, res.exact) == (False, "L", True)
    assert res.detail == "a feasible sign pattern is not attainable mod 2"


@given(st.integers(0, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.tuples(*[RATS] * n), RATS), max_size=7))))
@settings(max_examples=200, deadline=None)
def test_feasible_strict_matches_from_scratch_elimination(case):
    nvars, rows = case
    assert _feasible_strict(rows, nvars) == _feasible_strict_from_scratch(rows, nvars)


def test_undo_restores_the_system():
    system = StrictSystem(2)
    assert system.add((1, 0, 0))              # t0 > 0
    before = system.witness()
    mark = system.mark()
    assert system.add((-1, 1, 0))             # t1 > t0
    assert not system.add((0, -1, 0))         # t1 < 0 contradicts both
    system.undo(mark)
    assert system.witness() == before
    assert system.add((0, -1, 0))             # alone with t0 > 0 it is feasible


def test_orthant_cap_is_exact():
    # The positive quadrant's span meets all 4 orthants of the plane.
    plane = AffineSet((F(0), F(0)), ((F(1), F(0)), (F(0), F(1))))
    assert len(feasible_orthants(plane, cap=4)) == 4
    with pytest.raises(EnumerationCapExceeded):
        feasible_orthants(plane, cap=3)


def test_leaf_witness_off_its_sign_pattern_raises(monkeypatch):
    # Raised, not asserted: a zero coordinate must not pass as positive.
    monkeypatch.setattr(StrictSystem, "witness", lambda self: [F(0)] * self.nvars)
    line = AffineSet((F(0),), ((F(1),),))
    with pytest.raises(RuntimeError, match="sign recheck"):
        feasible_orthants(line)
