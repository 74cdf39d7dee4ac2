"""Tests for exact determinant, kernel, and LP routines."""
import math
import random
from fractions import Fraction

import pytest

from snakeflip.exact import adjugate, determinant, integer_kernel, lp_feasible


def det(matrix):
    return adjugate(matrix)[0]


def fraction_det(matrix):
    # reference: the determinant by Gaussian elimination over the rationals
    rows = [[Fraction(v) for v in row] for row in matrix]
    n = len(rows)
    value = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            value = -value
        value *= rows[k][k]
        for r in range(k + 1, n):
            factor = rows[r][k] / rows[k][k]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[k])]
    return value


def test_det_small_values():
    assert det([]) == 1
    assert det([[7]]) == 7
    assert det([[2, 1], [1, 3]]) == 5
    assert det([[3, 1, 0], [1, 2, 1], [0, 1, 3]]) == 12
    assert det([[1, 2], [2, 4]]) == 0


def test_det_sign_and_pivoting():
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det([[0, 2], [3, 5]]) == -6


def test_det_matches_fraction_elimination():
    matrix = [[3, -2, 5, 1], [7, 0, -1, 4], [2, 2, 2, 2], [-5, 3, 0, 6]]
    assert det(matrix) == fraction_det(matrix) == 826


def test_det_rejects_ragged():
    for ragged in ([[1, 2], [3]], [[1], [2, 3]], [[1, 2, 3], [4, 5, 6], [7, 8]]):
        with pytest.raises(ValueError):
            adjugate(ragged)


def integer_normal(rows):
    # oracle: the integer_kernel vector of a one-dimensional kernel, divided
    # by its content and with its first nonzero entry positive; None otherwise
    basis = integer_kernel(rows)
    if len(basis) != 1:
        return None
    (nu,) = basis
    g = math.gcd(*nu)
    if next(x for x in nu if x) < 0:
        g = -g
    return [x // g for x in nu]


def test_integer_normal_small_cases():
    assert integer_normal([]) == [1]
    assert integer_normal([[2, 4]]) == [2, -1]
    assert integer_normal([[0, 0, 3], [0, 5, 0]]) == [1, 0, 0]
    assert integer_normal([[1, 2, 3], [4, 5, 6]]) == [1, -2, 1]
    # rows of the matrix from test_det_matches_fraction_elimination, less one
    rows = [[3, -2, 5, 1], [7, 0, -1, 4], [2, 2, 2, 2]]
    nu = integer_normal(rows)
    assert all(sum(a * b for a, b in zip(nu, row)) == 0 for row in rows)
    assert integer_normal([[1, 2, 3], [2, 4, 6]]) is None
    assert integer_normal([[0, 0, 0], [0, 1, 0]]) is None
    assert integer_normal([[1, 2], [3, 4]]) is None
    assert integer_normal([[1, 1], [2, 2], [-3, -3]]) == [1, -1]
    assert integer_normal([[0, 2, 4]]) is None
    with pytest.raises(ValueError):
        integer_normal([[1, 2, 3], [4, 5]])


def test_integer_normal_is_the_primitive_cofactor_vector():
    rng = random.Random(7)
    for trial in range(300):
        k = trial % 7
        rows = [[rng.choice((-2, -1, 0, 0, 1, 1, 3)) for _ in range(k + 1)] for _ in range(k)]
        cofactors = [det(rows + [[int(i == j) for j in range(k + 1)]]) for i in range(k + 1)]
        nu = integer_normal(rows)
        if not any(cofactors):
            assert nu is None
            continue
        g = 0
        for x in cofactors:
            g = math.gcd(g, x)
        lead = next(x for x in cofactors if x)
        assert nu == [x // g if lead > 0 else -x // g for x in cofactors]


def fraction_kernel(rows):
    # reference: the Fraction Gauss-Jordan elimination that exact.kernel_vector
    # ran, on the matrix with these rows, returning one kernel vector per
    # column without a pivot, so its length is the nullity
    width = len(rows[0])
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = {}
    free = []
    for c in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            free.append(c)
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [a / inv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots[c] = r
    basis = []
    for f in free:
        vector = [Fraction(0)] * width
        vector[f] = Fraction(1)
        for c, r in pivots.items():
            vector[c] = -rows[r][f]
        basis.append(vector)
    return basis


def test_fraction_kernel_reference():
    assert fraction_kernel([[1, 0], [0, 1]]) == []
    assert fraction_kernel([[1, 0, 2], [0, 1, 3]]) == [[-2, -3, 1]]
    assert fraction_kernel([[1, 2], [1, 2]]) == [[-2, 1]]
    assert fraction_kernel([[0, 0, 0]]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _random_matrix(rng):
    k = rng.randint(1, 7)
    n = rng.randint(1, 7)
    rows = []
    for i in range(k):
        if i and rng.random() < 0.25:  # multiple of an earlier row
            f = rng.choice((-2, -1, 1, 3))
            rows.append([f * v for v in rows[rng.randrange(i)]])
        else:
            rows.append([rng.choice((-2, -1, 0, 0, 1, 1, 3)) for _ in range(n)])
    return rows


def test_integer_normal_matches_the_fraction_kernel():
    rng = random.Random(20261018)
    nullities = set()
    zero_rows = 0
    for _ in range(5000):
        rows = _random_matrix(rng)
        zero_rows += any(not any(row) for row in rows)
        basis = fraction_kernel(rows)
        kernel = integer_kernel(rows)
        assert all(sum(a * b for a, b in zip(v, row)) == 0 for v in kernel for row in rows), rows
        assert len(kernel) == len(basis), rows
        # independent: as rows, the vectors have rank len(kernel)
        assert not kernel or len(fraction_kernel(kernel)) == len(rows[0]) - len(kernel), rows
        nu = integer_normal(rows)
        nullities.add(min(len(basis), 2))
        if len(basis) != 1:
            assert nu is None, rows
            continue
        (lam,) = basis
        lead = next(i for i, x in enumerate(nu) if x)
        assert nu[lead] > 0 and math.gcd(*nu) == 1, rows
        assert [lam[lead] / nu[lead] * x for x in nu] == lam, rows
    assert nullities == {0, 1, 2} and zero_rows
    assert integer_kernel([]) == [[1]]
    with pytest.raises(ValueError):
        integer_kernel([[1, 2, 3], [4, 5]])


def fraction_inverse(matrix):
    # reference: Fraction Gauss-Jordan elimination of [matrix | I]; None when
    # the matrix is singular
    n = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = rows[c][c]
        rows[c] = [a / inv for a in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[c])]
    return [row[n:] for row in rows]


def test_adjugate_edge_cases():
    assert adjugate([]) == (1, [])
    assert adjugate([[7]]) == (7, [[1]])
    assert adjugate([[-2]]) == (-2, [[1]])
    assert adjugate([[0]]) == (0, None)
    assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    assert adjugate([[2, 1], [1, 3]]) == (5, [[3, -1], [-1, 2]])
    assert adjugate([[1, 2], [2, 4]]) == (0, None)
    with pytest.raises(ValueError):
        adjugate([[1, 2], [3]])
    with pytest.raises(ValueError):
        adjugate([[1, 2]])


def test_determinant_matches_the_adjugate():
    # the elimination of the matrix alone reads the determinant that the
    # elimination of [matrix | I] does, on random, singular and empty matrices
    rng = random.Random(20261021)
    assert determinant([]) == adjugate([])[0] == 1
    for rows in ([[0]], [[1, 2], [2, 4]], [[0, 0], [0, 0]], [[1, 0, 2], [0, 0, 0], [3, 1, 4]],
                 [[0, 1, 1], [0, 2, 5], [0, 7, -3]]):
        assert determinant(rows) == adjugate(rows)[0] == 0
    singular = 0
    for _ in range(3000):
        n = rng.randint(1, 7)
        scale = rng.choice((1, 1, 10 ** 30))
        rows = []
        for i in range(n):
            if i and rng.random() < 0.1:  # multiple of an earlier row
                f = rng.choice((-2, -1, 1, 3))
                rows.append([f * v for v in rows[rng.randrange(i)]])
            else:
                rows.append([scale * rng.choice((-2, -1, 0, 0, 1, 1, 3)) for _ in range(n)])
        value = determinant(rows)
        assert value == adjugate(rows)[0], rows
        singular += value == 0
    assert 300 < singular < 2700
    for ragged in ([[1, 2], [3]], [[1, 2]], [[1], [2]]):
        with pytest.raises(ValueError):
            determinant(ragged)


def test_adjugate_matches_the_fraction_inverse():
    rng = random.Random(20261019)
    singular = 0
    for _ in range(5000):
        n = rng.randint(1, 7)
        rows = []
        for i in range(n):
            if i and rng.random() < 0.1:  # multiple of an earlier row
                f = rng.choice((-2, -1, 1, 3))
                rows.append([f * v for v in rows[rng.randrange(i)]])
            else:
                rows.append([rng.choice((-2, -1, 0, 0, 1, 1, 3)) for _ in range(n)])
        det, adj = adjugate(rows)
        assert det == fraction_det(rows), rows
        inverse = fraction_inverse(rows)
        if det == 0:
            singular += 1
            assert adj is None and inverse is None, rows
            continue
        for i in range(n):
            for j in range(n):
                assert sum(adj[i][k] * rows[k][j] for k in range(n)) == det * (i == j), rows
        assert adj == [[det * x for x in row] for row in inverse], rows
    assert 500 < singular < 4500


def test_lp_feasible_points():
    # x + y + s = 1: phase 1 brings in the first column
    x = lp_feasible([[1, 1, 1]], [1], 3)
    assert x == [1, 0, 0]
    assert sum(x[:2]) == 1
    # x + s1 = 2, y + s2 = 3
    x = lp_feasible([[1, 0, 1, 0], [0, 1, 0, 1]], [2, 3], 4)
    assert x[0] == 2 and x[1] == 3


def test_lp_infeasible():
    assert lp_feasible([[1, 1], [1, 1]], [1, 2], 2) is None
    assert lp_feasible([[1, 1]], [-1], 2) is None
    assert lp_feasible([[1, -1]], [0], 2) == [0, 0]


def test_lp_exact_fractions():
    # 3y + s = 1 gives exactly y = 1/3
    x = lp_feasible([[3, 1]], [1], 2)
    assert x == [Fraction(1, 3), 0]
    assert all(isinstance(v, Fraction) for v in x)


def test_lp_redundant_rows():
    x = lp_feasible([[1, 1], [1, 1]], [1, 1], 2)
    assert x == [1, 0]


def test_lp_determinism():
    problem = ([[1, 2, 1, 0], [3, 1, 0, 1]], [4, 5], 4)
    assert lp_feasible(*problem) == lp_feasible(*problem)


def test_lp_all_rows_dead():
    assert lp_feasible([[0, 0]], [0], 2) == [0, 0]
    assert lp_feasible([[0, 0]], [1], 2) is None
    assert lp_feasible([[0]], [0], 1) == [0]
    assert lp_feasible([], [], 3) == [0, 0, 0]


def test_lp_rejects_fractional_data():
    with pytest.raises(ValueError):
        lp_feasible([[Fraction(1, 2), 1]], [1], 2)
    with pytest.raises(ValueError):
        lp_feasible([[1, 1]], [0.5], 2)


def test_lp_rejects_a_row_of_another_width():
    with pytest.raises(ValueError):
        lp_feasible([[1, 1]], [1], 3)
    with pytest.raises(ValueError):
        lp_feasible([[1, 1], [1, 0, 1]], [1, 1], 2)


def test_lp_rejects_a_right_hand_side_of_another_length():
    with pytest.raises(ValueError):
        lp_feasible([[1, 1]], [1, 5], 2)
    with pytest.raises(ValueError):
        lp_feasible([[1, 1], [1, 0]], [1], 2)


def fraction_lp_maximize(A, b, c):
    # reference: the two-phase Bland simplex in Fraction arithmetic that the
    # integer tableau replaced, with the phase-2 objective sized from the
    # original row count so that an all-dead tableau does not fail
    m = len(A)
    n = len(c)
    m0 = m
    rows = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    tableau = [rows[i] + [Fraction(int(i == j)) for j in range(m)] + [rhs[i]]
               for i in range(m)]
    basis = list(range(n, n + m))

    def pivot(row, col):
        piv = tableau[row][col]
        tableau[row] = [v / piv for v in tableau[row]]
        for r in range(m):
            if r != row and tableau[r][col]:
                factor = tableau[r][col]
                tableau[r] = [a - factor * p for a, p in zip(tableau[r], tableau[row])]
        basis[row] = col

    def run_phase(objective, allowed):
        while True:
            lam = [objective[basis[i]] for i in range(m)]
            entering = -1
            for j in range(allowed):
                if j in basis:
                    continue
                reduced = sum(lam[i] * tableau[i][j] for i in range(m)) - objective[j]
                if reduced < 0:
                    entering = j
                    break
            if entering < 0:
                return True
            leaving = -1
            best = None
            for i in range(m):
                if tableau[i][entering] > 0:
                    ratio = tableau[i][-1] / tableau[i][entering]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                        best = ratio
                        leaving = i
            if leaving < 0:
                return False
            pivot(leaving, entering)

    phase1 = [Fraction(0)] * n + [Fraction(-1)] * m
    run_phase(phase1, n + m)
    if sum(tableau[i][-1] for i in range(m) if basis[i] >= n) != 0:
        return 'infeasible', None, None
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tableau[i][j] != 0:
                    pivot(i, j)
                    break
    live = [i for i in range(m) if basis[i] < n or any(tableau[i][j] for j in range(n))]
    if len(live) < m:
        tableau[:] = [tableau[i] for i in live]
        basis[:] = [basis[i] for i in live]
        m = len(live)
    phase2 = [Fraction(v) for v in c] + [Fraction(0)] * m0
    if not run_phase(phase2, n):
        return 'unbounded', None, None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return 'optimal', value, x


def _random_lp(rng):
    m = rng.randint(1, 5)
    n = rng.randint(1, 7)
    A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    b = [rng.randint(-4, 4) for _ in range(m)]
    for i in range(m):
        shape = rng.random()
        if shape < 0.1:  # zero row, consistent or not
            A[i] = [0] * n
            b[i] = rng.choice((0, 0, 1))
        elif shape < 0.25 and i > 0:  # multiple of an earlier row
            k = rng.randrange(i)
            f = rng.choice((-2, -1, 1, 2))
            A[i] = [f * v for v in A[k]]
            b[i] = f * b[k] + rng.choice((0, 0, 0, 1))
    c = [rng.randint(-3, 3) for _ in range(n)]
    return A, b, c


def test_lp_matches_the_fraction_simplex():
    # _random_lp also draws an objective, which a feasibility program ignores
    rng = random.Random(20260418)
    seen = set()
    for _ in range(3000):
        A, b, c = _random_lp(rng)
        n = len(c)
        got = lp_feasible(A, b, n)
        status, _, want = fraction_lp_maximize(A, b, [0] * n)
        assert got == want and (got is None) == (status == 'infeasible'), (A, b)
        if got is not None:
            assert all(isinstance(v, Fraction) for v in got)
            assert all(sum(a * v for a, v in zip(row, got)) == bi for row, bi in zip(A, b))
        seen.add(got is None)
    assert seen == {True, False}
