import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nice_einstein.diagram import root_matrix
from nice_einstein.linalg import (
    AffineSet,
    EnumerationCapExceeded,
    F2Reduction,
    MatF2,
    MatQ,
    MultiplicativeSystem,
    f2_solve_all,
    in_orthant,
    kernel_basis,
    orthant_witness,
    rref,
    smith_normal_form,
    solve_affine,
    solve_multiplicative,
    symmetric_signature,
    vec_q,
)
from nice_einstein.linalg import _coprime_base, _iroot, _rational_root


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
    assert len(rref(M)[1]) + len(kernel_basis(M)) == M.cols


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


def strict_sign_witness(S, eps):
    """A point X of S with sign(X_j) = (-1)^eps_j for all j, or None; rechecked."""
    t = orthant_witness(S, eps)
    if t is None:
        return None
    X = S.point(t)
    assert in_orthant(X, eps)
    return X


def test_strict_sign_631_6(algebras):
    M, _ = root_matrix(algebras["631:6"].diagram)
    S = solve_affine(M.transpose(), [F(0)] * 6)
    assert strict_sign_witness(S, (0, 1, 1, 0)) is not None
    assert strict_sign_witness(S, (1, 0, 0, 1)) is not None
    assert strict_sign_witness(S, (0, 0, 0, 0)) is None


def test_strict_sign_zero_set():
    S = AffineSet(vec_q([0, 0]), ())
    assert strict_sign_witness(S, (0, 0)) is None


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
    U, S, V = smith_normal_form([[1, 0], [0, 1]], 2)
    assert S == [[1, 0], [0, 1]]


def test_smith_631_6(algebras):
    M, _ = root_matrix(algebras["631:6"].diagram)
    U, S, V = smith_normal_form(M.to_int_rows(), M.cols)
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
        U, S, V = smith_normal_form(A, 6)
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
    g = solve_multiplicative(M.to_int_rows(), M.cols, rhs)
    assert g is not None
    assert g[3] == g[0] * g[1]
    assert g[4] == -g[0] * g[2]
    assert g[5] == g[0] * g[1] * g[2]


def test_a_system_without_rows_takes_its_columns_from_the_argument():
    # an abelian algebra's recovery: no equation, so g = 1 on every column
    U, S, V = smith_normal_form([], 3)
    assert (U, S, V) == ([], [], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert MultiplicativeSystem([], 3).solve([]) == (F(1),) * 3
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2]], 3)


def test_solve_multiplicative_fractional_power_fails():
    # g^2 = 2 has no rational solution
    assert solve_multiplicative([[2]], 1, [F(2)]) is None


def test_solve_multiplicative_negative_right_hand_sides():
    # an even power is never negative; an odd one takes the negative root
    assert solve_multiplicative([[2]], 1, [F(-4)]) is None
    assert solve_multiplicative([[2]], 1, [F(4, 9)]) == (F(2, 3),)
    assert solve_multiplicative([[3]], 1, [F(-8, 27)]) == (F(-2, 3),)
    # g1 g2 = -1 and g1 = g2 (g1 / g2 = 1): g1^2 = -1 has no solution
    assert solve_multiplicative([[1, 1], [1, -1]], 2, [F(-1), F(1)]) is None
    assert solve_multiplicative([[1, 1], [1, -1]], 2, [F(-1), F(-1)]) is not None


def test_symmetric_signature():
    assert symmetric_signature([[1, 0], [0, -1]]) == (1, 1)
    assert symmetric_signature([[0, 1], [1, 0]]) == (1, 1)
    assert symmetric_signature([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == (3, 0)
    with pytest.raises(ValueError):
        symmetric_signature([[0, 0], [0, 1]])


def _reference_signature(G):
    """The Lagrange reduction on Fractions, verbatim from its first version."""
    A = [[F(x) for x in row] for row in G]
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("matrix not square")
    if any(A[i][j] != A[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix not symmetric")
    p = q = 0
    while A:
        nn = len(A)
        d = next((i for i in range(nn) if A[i][i] != 0), None)
        if d is None:
            pair = next(
                ((i, j) for i in range(nn) for j in range(i + 1, nn) if A[i][j] != 0),
                None,
            )
            if pair is None:
                raise ValueError("matrix is degenerate")
            i, j = pair
            for c in range(nn):
                A[i][c] += A[j][c]
            for r in range(nn):
                A[r][i] += A[r][j]
            continue
        a = A[d][d]
        if a > 0:
            p += 1
        else:
            q += 1
        B = []
        for r in range(nn):
            if r == d:
                continue
            f = A[r][d] / a
            row = [A[r][c] - f * A[d][c] for c in range(nn)] if f else A[r]
            B.append([row[c] for c in range(nn) if c != d])
        A = B
    return p, q


def _signature_or_error(fn, G):
    try:
        return fn(G)
    except ValueError as e:
        return str(e)


def test_integer_signature_matches_the_fraction_reduction():
    rng = random.Random(12)
    vals = [F(0), F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 7)]
    seen = set()
    for trial in range(3000):
        n = rng.randint(1, 7)
        kind = trial % 5
        A = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                A[i][j] = A[j][i] = rng.choice(vals)
        if kind == 1:                   # zero diagonal: the paired-row step
            for i in range(n):
                A[i][i] = F(0)
        elif kind == 2 and n > 1:       # rank deficient: a row that is a multiple
            k = rng.choice([F(1), F(-2), F(1, 3)])
            for c in range(n):
                A[n - 1][c] = k * A[0][c]
            for r in range(n):
                A[r][n - 1] = k * A[r][0]
            A[n - 1][n - 1] = k * k * A[0][0]
        elif kind == 3 and n > 1:       # not symmetric
            i, j = rng.sample(range(n), 2)
            A[i][j] += 1
        elif kind == 4:                 # plain ints, and one float entry pair
            A = [[int(x * 6) for x in row] for row in A]
            i, j = rng.randrange(n), rng.randrange(n)
            A[i][j] = A[j][i] = 0.5
        want = _signature_or_error(_reference_signature, A)
        assert _signature_or_error(symmetric_signature, A) == want
        seen.add(want if isinstance(want, str) else "signature")
    assert seen == {"signature", "matrix is degenerate", "matrix not symmetric"}
    assert _signature_or_error(symmetric_signature, [[1, 2], [2]]) == "matrix not square"


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


# ---------------------------------------------------------------------------
# Fraction-free and prepared reductions against textbook references


def _rref_reference(M):
    """Gauss-Jordan on Fractions, pivots left to right: the textbook reduction."""
    A = [list(row) for row in M.data]
    nrows, ncols = M.rows, M.cols
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if A[i][c] != 0), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        f = A[r][c]
        A[r] = [x / f for x in A[r]]
        for i in range(nrows):
            if i != r and A[i][c] != 0:
                g = A[i][c]
                A[i] = [a - g * b for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return A, pivots


def _kernel_reference(M):
    R, pivots = _rref_reference(M)
    basis = []
    for fc in (c for c in range(M.cols) if c not in pivots):
        v = [F(0)] * M.cols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(tuple(v))
    return basis


def _solve_affine_reference(M, b):
    aug = MatQ(M.rows, M.cols + 1, tuple(row + (F(x),) for row, x in zip(M.data, b)))
    R, pivots = _rref_reference(aug)
    if M.cols in pivots:
        return None
    particular = [F(0)] * M.cols
    for r, pc in enumerate(pivots):
        particular[pc] = R[r][M.cols]
    return AffineSet(tuple(particular), tuple(_kernel_reference(M)))


def _f2_solve_all_reference(M2, e):
    """Reduce [M2 | e] afresh and enumerate the coset."""
    A = [list(row) + [x % 2] for row, x in zip(M2.data, e)]
    pivots = []
    r = 0
    for c in range(M2.cols + 1):
        p = next((i for i in range(r, M2.rows) if A[i][c]), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        for i in range(M2.rows):
            if i != r and A[i][c]:
                A[i] = [a ^ b for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == M2.rows:
            break
    if M2.cols in pivots:
        return []
    free = [c for c in range(M2.cols) if c not in pivots]
    sols = []
    for bits in product((0, 1), repeat=len(free)):
        x = [0] * M2.cols
        for fc, bit in zip(free, bits):
            x[fc] = bit
        for r, pc in enumerate(pivots):
            x[pc] = (A[r][M2.cols] + sum(A[r][fc] * x[fc] for fc in free)) % 2
        sols.append(tuple(x))
    return sorted(sols)


_small_q = st.one_of(st.just(F(0)), st.builds(F, st.integers(-5, 5), st.integers(1, 4)))


@st.composite
def _rational_matrices(draw):
    """Small rational matrices, 0 rows and zero columns included, often rank-deficient."""
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 6))
    rows = [draw(st.lists(_small_q, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    zero_cols = draw(st.sets(st.integers(0, 5)))
    rows = [[F(0) if j in zero_cols else x for j, x in enumerate(row)] for row in rows]
    if rows and draw(st.booleans()):
        # a combination of two rows: the rank drops below the row count
        s, t = draw(_small_q), draw(_small_q)
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        rows.append([s * x + t * y for x, y in zip(rows[i], rows[j])])
    return MatQ(len(rows), ncols, tuple(tuple(r) for r in rows))


@settings(max_examples=300, deadline=None)
@given(_rational_matrices(), st.data())
def test_fraction_free_reductions_match_rational_elimination(M, data):
    assert rref(M) == _rref_reference(M)
    assert kernel_basis(M) == _kernel_reference(M)
    b = data.draw(st.lists(_small_q, min_size=M.rows, max_size=M.rows))
    if data.draw(st.booleans()) and M.cols:
        # a consistent right-hand side: M x for a random x
        x = data.draw(st.lists(_small_q, min_size=M.cols, max_size=M.cols))
        b = M.mul_vec(x)
    assert solve_affine(M, b) == _solve_affine_reference(M, b)


def test_fraction_free_rref_edge_shapes():
    for M in (MatQ(0, 3, ()), MatQ.zero(3, 0), MatQ.zero(2, 3),
              MatQ.from_rows([[F(1, 2), F(1, 3)], [F(3), F(2)]])):
        assert rref(M) == _rref_reference(M)
        assert kernel_basis(M) == _kernel_reference(M)
    # inconsistent: x = 1 and x = 2
    assert solve_affine(MatQ.from_rows([[1], [1]]), [1, 2]) is None
    assert _solve_affine_reference(MatQ.from_rows([[1], [1]]), [1, 2]) is None


def test_transpose_of_a_matrix_without_rows_has_empty_rows():
    T = MatQ.zero(0, 3).transpose()
    assert (T.rows, T.cols, T.data) == (3, 0, ((), (), ()))
    assert T.transpose() == MatQ.zero(0, 3)
    # the K system of an abelian algebra: three rows that read 0 = k
    assert solve_affine(T, [0, 0, 0]) == AffineSet((), ())
    assert solve_affine(T, [1, 1, 1]) is None


@st.composite
def _f2_matrices(draw):
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 7))
    rows = [draw(st.lists(st.integers(0, 1), min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    return MatF2(nrows, ncols, tuple(tuple(r) for r in rows))


@settings(max_examples=200, deadline=None)
@given(_f2_matrices(), st.data())
def test_prepared_f2_reduction_matches_a_fresh_reduction(M2, data):
    red = F2Reduction(M2)
    assert len(red.checks) == M2.rows - red.rank
    for _ in range(4):
        e = data.draw(st.lists(st.integers(0, 1), min_size=M2.rows, max_size=M2.rows))
        expected = _f2_solve_all_reference(M2, e)
        assert red.solve_all(e) == expected
        assert f2_solve_all(M2, e) == expected
        # e is in the image iff every check has even overlap with it
        emask = sum(x << i for i, x in enumerate(e))
        assert bool(expected) == all((c & emask).bit_count() % 2 == 0 for c in red.checks)


def test_vec_q_keeps_fractions_and_converts_the_rest():
    half = F(1, 2)
    v = vec_q([half, 3, "2/3", 0.25])
    assert v == (F(1, 2), F(3), F(2, 3), F(1, 4))
    assert v[0] is half and all(type(x) is F for x in v)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_prepared_multiplicative_system_matches_fresh(nr, nc, data):
    M = [data.draw(st.lists(st.integers(-2, 2), min_size=nc, max_size=nc)) for _ in range(nr)]
    system = MultiplicativeSystem(M, nc)
    values = st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2), F(5, 3), F(-4, 9)])
    for _ in range(3):
        if data.draw(st.booleans()):
            # a solvable right-hand side: the monomials of a random g
            g = data.draw(st.lists(values, min_size=nc, max_size=nc))
            rhs = [F(1) for _ in range(nr)]
            for i, row in enumerate(M):
                for x, e in zip(g, row):
                    rhs[i] *= x ** e
        else:
            rhs = data.draw(st.lists(values, min_size=nr, max_size=nr))
        got = system.solve(rhs)
        assert got == solve_multiplicative(M, nc, rhs)
        if got is not None:
            for row, q in zip(M, rhs):
                prod = F(1)
                for x, e in zip(got, row):
                    prod *= x ** e
                assert prod == q


def _solve_multiplicative_reference(M, nc, rhs):
    """The per-prime solve: signs over GF(2), then one Smith solve per prime."""
    from sympy import factorint

    def _mat_vec_int(M, v):
        return [sum(a * b for a, b in zip(row, v)) for row in M]

    M = [[int(x) for x in row] for row in M]
    nr = len(M)
    signs = F2Reduction(MatF2(nr, nc, tuple(tuple(x % 2 for x in row) for row in M)))
    U, S, V = smith_normal_form(M, nc)
    diag = [S[i][i] for i in range(min(nr, nc))]
    r = sum(1 for d in diag if d != 0)
    rhs = [F(x) for x in rhs]
    if any(x == 0 for x in rhs):
        return None
    sign_sols = signs.solve_all([1 if x < 0 else 0 for x in rhs])
    if not sign_sols:
        return None
    delta = sign_sols[0]
    primes = set()
    vals = []
    for q in rhs:
        v = factorint(abs(q.numerator))
        for p, e in factorint(q.denominator).items():
            v[p] = v.get(p, 0) - e
        vals.append(v)
        primes.update(v)
    exps = [dict() for _ in range(nc)]
    for p in sorted(primes):
        b = [vals[i].get(p, 0) for i in range(nr)]
        c = _mat_vec_int(U, b)
        if any(c[i] != 0 for i in range(r, nr)):
            return None
        y = [0] * nc
        for i in range(r):
            if c[i] % diag[i] != 0:
                return None
            y[i] = c[i] // diag[i]
        a = _mat_vec_int(V, y)
        for j in range(nc):
            if a[j]:
                exps[j][p] = a[j]
    g = []
    for j in range(nc):
        val = F(-1 if delta[j] else 1)
        for p, e in exps[j].items():
            val *= F(p) ** e
        g.append(val)
    return tuple(g)


_signed_q = st.builds(F, st.integers(-12, 12).filter(bool), st.integers(1, 12))


@st.composite
def _integer_matrices(draw):
    """(rows, column count) of integer matrices up to 6 x 6, entries in -3..3,
    zero rows and dependent rows included."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if rows and draw(st.booleans()):
        s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        rows.append([s * x + t * y for x, y in zip(rows[i], rows[j])])
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(_integer_matrices(), st.data())
def test_smith_form_solve_matches_the_per_prime_reference(shape, data):
    # Both solves return g = V y with y = U e / d in exponents, so g grows
    # with the Smith transforms, whose entries reach 3 * 10^7 on these
    # matrices; past 100 one solve can take minutes, in the reference too.
    M, nc = shape
    U, _, V = smith_normal_form(M, nc)
    assume(max((abs(x) for T in (U, V) for row in T for x in row), default=0) <= 100)
    system = MultiplicativeSystem(M, nc)
    for _ in range(3):
        if data.draw(st.booleans()):
            # the monomials of a signed g, so perfect powers occur
            g = data.draw(st.lists(_signed_q, min_size=nc, max_size=nc))
            rhs = []
            for row in M:
                q = F(1)
                for x, e in zip(g, row):
                    q *= x ** e
                rhs.append(q)
        else:
            rhs = data.draw(st.lists(_signed_q, min_size=len(M), max_size=len(M)))
        got = system.solve(rhs)
        want = _solve_multiplicative_reference(M, nc, rhs)
        assert (got is None) == (want is None)
        if got is None:
            continue
        if all(q > 0 for q in rhs):
            assert got == want
        for row, q in zip(M, rhs):
            prod = F(1)
            for x, e in zip(got, row):
                prod *= x ** e
            assert prod == q


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(lambda a, b, k: (a * b) ** k, st.integers(1, 60),
                          st.integers(1, 10 ** 6), st.integers(1, 4)), max_size=6))
def test_coprime_base_generates_its_inputs(ns):
    from sympy import perfect_power

    base = _coprime_base(ns)
    assert all(b >= 2 and not perfect_power(b) for b in base)
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1:])
    for n in ns:
        for b in base:
            while n % b == 0:
                n //= b
        assert n == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 300), st.integers(1, 9))
def test_integer_root_is_the_floor_of_the_real_root(n, d):
    r = _iroot(n, d)
    assert r ** d <= n < (r + 1) ** d
    if d == 2:
        assert r == math.isqrt(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 1 << 80), st.integers(1, 1 << 80), st.integers(1, 9), st.booleans())
def test_rational_root_exists_exactly_for_perfect_powers(a, b, d, power):
    from sympy import integer_nthroot

    q = F(a, b) ** d if power else F(a, b)
    root = _rational_root(q, d)
    if integer_nthroot(q.numerator, d)[1] and integer_nthroot(q.denominator, d)[1]:
        assert root > 0 and root ** d == q
    else:
        assert root is None
