import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nice_einstein.diagram import root_matrix
from nice_einstein.linalg import (
    AffineSet,
    EnumerationCapExceeded,
    MatF2,
    MatQ,
    f2_solve_all,
    kernel_basis,
    rank,
    smith_normal_form,
    solve_affine,
    solve_multiplicative,
    strict_sign_feasible,
    strict_sign_witness,
    symmetric_signature,
    vec_q,
)


def span_eq_1d(basis, expected):
    assert len(basis) == 1
    v = basis[0]
    w = vec_q(expected)
    ratios = {vi / wi for vi, wi in zip(v, w) if wi != 0}
    assert len(ratios) == 1
    assert all(vi == 0 for vi, wi in zip(v, w) if wi == 0)


def test_kernel_basis_identity():
    assert kernel_basis(MatQ.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == []


def test_kernel_basis_631_6(algebras):
    M, _ = root_matrix(algebras["631:6"].diagram)
    span_eq_1d(kernel_basis(M.transpose()), [1, -1, -1, 1])


def test_kernel_basis_731_15(algebras):
    M, _ = root_matrix(algebras["731:15"].diagram)
    span_eq_1d(kernel_basis(M.transpose()), [1, -1, -1, 1])


def test_solve_affine_inconsistent_754321_9(families):
    a = families["754321:9"].substitute({"lambda": 2})
    M, _ = root_matrix(a.diagram)
    assert solve_affine(M.transpose(), [F(1)] * a.n) is None


def test_solve_affine_homogeneous_particular_is_zero():
    M = MatQ.from_rows([[1, 2, 3], [0, 1, 1]])
    S = solve_affine(M, [0, 0])
    assert S is not None
    assert all(x == 0 for x in S.particular)


def test_solve_affine_741_6_kernel_shape(families):
    a = families["741:6"].substitute({"lambda": 3})
    M, _ = root_matrix(a.diagram)
    S = solve_affine(M.transpose(), [F(0)] * a.n)
    assert S.dim == 2
    # every solution is (x1, x2, x3, x3, x2, x1) with x1 + x2 + x3 = 0
    for t in ([F(1), F(0)], [F(0), F(1)], [F(2), F(-3)]):
        X = S.point(t)
        assert X[0] == X[5] and X[1] == X[4] and X[2] == X[3]
        assert X[0] + X[1] + X[2] == 0


def test_solve_affine_exactness_property():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[F(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
        M = MatQ.from_rows(rows)
        x = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
        b = M.mul_vec(x)
        S = solve_affine(M, b)
        assert S is not None
        assert M.mul_vec(S.particular) == tuple(b)
        for v in S.basis:
            assert all(e == 0 for e in M.mul_vec(v))


@given(st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
                min_size=2, max_size=5))
@settings(max_examples=50, deadline=None)
def test_rank_nullity(rows):
    M = MatQ.from_rows(rows)
    assert rank(M) + len(kernel_basis(M)) == M.cols


def test_f2_solve_all_homogeneous_is_kernel():
    M2 = MatF2.from_rows([[1, 1, 0], [0, 1, 1]])
    sols = f2_solve_all(M2, [0, 0])
    assert sols == [(0, 0, 0), (1, 1, 1)]


def test_f2_solve_all_741_6_sixteen_solutions(families):
    a = families["741:6"].substitute({"lambda": 2})
    _, M2 = root_matrix(a.diagram)
    # sign pattern of the kernel ray x6 = (lambda-1) x5, x5 > 0, at lambda = 2
    eps = (0, 1, 0, 0, 1, 0)
    sols = f2_solve_all(M2, eps)
    assert len(sols) == 8
    assert all(M2.mul_vec(d) == eps for d in sols)
    other = f2_solve_all(M2, tuple(e ^ 1 for e in eps))
    assert len(other) == 8
    # the 16 pair into 8 complementary classes
    union = set(sols) | set(other)
    assert len(union) == 16
    assert all(tuple(x ^ 1 for x in d) in union for d in union)


def test_f2_solve_all_754321_9_restricted_patterns_empty(families):
    # signs of X = (x9, -x7, x8, x7, x7, x7, 2x7, x8, x9): none lies in the image
    a = families["754321:9"].substitute({"lambda": 2})
    _, M2 = root_matrix(a.diagram)
    from itertools import product
    for s7, s8, s9 in product((0, 1), repeat=3):
        eps = (s9, s7 ^ 1, s8, s7, s7, s7, s7, s8, s9)
        assert f2_solve_all(M2, eps) == []


def test_f2_solve_all_cap():
    M2 = MatF2.from_rows([[0] * 25])
    with pytest.raises(EnumerationCapExceeded):
        f2_solve_all(M2, [0])


def test_f2_solve_all_image_membership():
    M2 = MatF2.from_rows([[1, 0], [0, 1], [1, 1]])
    assert f2_solve_all(M2, [1, 0, 1]) == [(1, 0)]
    assert f2_solve_all(M2, [1, 0, 0]) == []


def test_strict_sign_631_6(algebras):
    M, _ = root_matrix(algebras["631:6"].diagram)
    S = solve_affine(M.transpose(), [F(0)] * 6)
    assert strict_sign_feasible(S, (0, 1, 1, 0))
    assert strict_sign_feasible(S, (1, 0, 0, 1))
    assert not strict_sign_feasible(S, (0, 0, 0, 0))


def test_strict_sign_zero_set():
    S = AffineSet(vec_q([0, 0]), ())
    assert not strict_sign_feasible(S, (0, 0))


def test_strict_sign_75432_3_all_four_orthants(algebras):
    M, _ = root_matrix(algebras["75432:3"].diagram)
    S = solve_affine(M.transpose(), [F(0)] * 7)
    assert S.dim == 2
    # X = (x, y, -x, -y, -y, y, -x, x): check the four (x, y) sign choices
    for sx in (0, 1):
        for sy in (0, 1):
            eps = (sx, sy, sx ^ 1, sy ^ 1, sy ^ 1, sy, sx ^ 1, sx)
            X = strict_sign_witness(S, eps)
            assert X is not None
            assert all((x < 0) == bool(e) for x, e in zip(X, eps))


def test_smith_identity():
    U, S, V = smith_normal_form([[1, 0], [0, 1]])
    assert S == [[1, 0], [0, 1]]


def test_smith_631_6(algebras):
    M, _ = root_matrix(algebras["631:6"].diagram)
    U, S, V = smith_normal_form(M.to_int_rows())
    diag = [S[i][i] for i in range(4)]
    assert diag == [1, 1, 1, 0]


def _mat_mul_int(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _det_int(A):
    n = len(A)
    from fractions import Fraction
    M = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if M[i][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            M[c], M[p] = M[p], M[c]
            det = -det
        det *= M[c][c]
        for i in range(c + 1, n):
            f = M[i][c] / M[c][c]
            M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return det


def test_smith_random_property():
    rng = random.Random(11)
    for _ in range(20):
        A = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(4)]
        U, S, V = smith_normal_form(A)
        assert _mat_mul_int(_mat_mul_int(U, A), V) == S
        assert abs(_det_int(U)) == 1
        assert abs(_det_int(V)) == 1
        diag = [S[i][i] for i in range(4)]
        for i in range(4):
            for j in range(6):
                if i != j:
                    assert S[i][j] == 0
        for d1, d2 in zip(diag, diag[1:]):
            if d2 != 0:
                assert d1 != 0 and d2 % d1 == 0


def test_solve_multiplicative_631_6(algebras):
    # g4 = g1 g2, g5 = -g1 g3, g6 = g1 g2 g3 at X = (1, -1, -1, 1)
    M, _ = root_matrix(algebras["631:6"].diagram)
    rhs = [F(1), F(-1), F(-1), F(1)]
    g = solve_multiplicative(M.to_int_rows(), rhs)
    assert g is not None
    assert g[3] == g[0] * g[1]
    assert g[4] == -g[0] * g[2]
    assert g[5] == g[0] * g[1] * g[2]


def test_solve_multiplicative_fractional_power_fails():
    # g^2 = 2 has no rational solution
    assert solve_multiplicative([[2]], [F(2)]) is None


def test_symmetric_signature():
    assert symmetric_signature([[1, 0], [0, -1]]) == (1, 1)
    assert symmetric_signature([[0, 1], [1, 0]]) == (1, 1)
    assert symmetric_signature([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == (3, 0)
    with pytest.raises(ValueError):
        symmetric_signature([[0, 0], [0, 1]])


@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
             min_size=1, max_size=2),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.lists(st.booleans(), min_size=4, max_size=4),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_strict_sign_witness_matches_sampling(basis, particular, eps_bits, data):
    # Fourier-Motzkin infeasibility must never contradict a sampled point.
    S = AffineSet(vec_q(particular), tuple(vec_q(b) for b in basis))
    eps = tuple(1 if b else 0 for b in eps_bits)
    w = strict_sign_witness(S, eps)
    if w is not None:
        return  # the witness is rechecked inside strict_sign_witness
    for _ in range(40):
        t = [F(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 3)))
             for _ in range(S.dim)]
        X = S.point(t)
        assert not all(x != 0 and (x < 0) == bool(e) for x, e in zip(X, eps))
