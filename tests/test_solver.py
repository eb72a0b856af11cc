from fractions import Fraction as F

import pytest

from nice_einstein.linalg import AffineSet, in_orthant, orthant_witness
from nice_einstein.solver import (_eliminant_roots, _p_basis, abs_monomial,
                                  decide_condition_p)


def test_scale_gauge_preconditions_raise():
    # Raised, not asserted, so they hold under python -O as well.
    not_a_cone = AffineSet((F(1), F(0)), ((F(1), F(2)),))
    with pytest.raises(ValueError, match="cone"):
        decide_condition_p(not_a_cone, (0, 0), (F(1),), [[1, 0]], [F(2)], True)
    cone = AffineSet((F(0), F(0)), ((F(1), F(2)),))
    with pytest.raises(ValueError, match="scale-invariant"):
        decide_condition_p(cone, (0, 0), (F(1),), [[1, 0]], [F(2)], True)


# The exact decider, one case per outcome, on small synthetic sets.
# Shifted line X = (t, t - 1) and plane X = (t0, t1, t0 + t1).
LINE = AffineSet((F(0), F(-1)), ((F(1), F(1)),))
PLANE = AffineSet((F(0), F(0), F(0)), ((F(1), F(0), F(1)), (F(0), F(1), F(1))))


def _decide(S, eps, exponents, rhs, memo=None):
    wt = orthant_witness(S, eps)
    return decide_condition_p(S, eps, wt, exponents, [F(r) for r in rhs], False, memo)


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
    # |X_1 X_2| / |X_3|^2 = 1 is t0^2 + t0 t1 + t1^2 = 0: two complex lines
    # whose only real point has X = 0.  No cut finds a point, and the
    # negative is labelled numeric-grade.
    dec = _decide(PLANE, (0, 0, 0), [[1, 1, -2]], [1])
    assert (dec.solvable, dec.exact) == (False, False)
    assert "positive-dimensional" in dec.note


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
