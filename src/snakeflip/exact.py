"""Exact integer and rational linear algebra helpers."""
from __future__ import annotations

from fractions import Fraction


class BudgetError(RuntimeError):
    """Raised when an enumeration exceeds its state budget."""


def _pivot(rows, r, c, prev):
    """Pivot the integer rows in place on rows[r][c]; return the pivot p.

    Every other row becomes (p * row - f * rows[r]) // prev, where f is the
    row's entry in column c and prev the previous pivot, a division that is
    exact by Sylvester's identity (Bareiss 1968).
    """
    pivot_row = rows[r]
    p = pivot_row[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]
        elif p != prev:
            rows[i] = [p * a // prev for a in row]
    return p


def _gauss_jordan(m):
    """Reduce the integer rows m in place; return (pivot columns, D, swap sign).

    Fraction-free Gauss-Jordan (Bareiss 1968) elimination: column by column,
    until every row holds a pivot, the first row at or below the current
    rank with a nonzero entry becomes the pivot row, and _pivot clears its
    column in every other row, dividing by the previous pivot (1 at the
    start); every entry stays a minor of the original rows.  At the end the
    rows are D times the reduced row echelon form, with D the last pivot:
    the pivot columns read D * I and the rows below the rank are zero.  The
    swap sign is the sign of the row permutation.
    """
    width = len(m[0]) if m else 0
    pivots = []
    sign = 1
    prev = 1
    for c in range(width):
        r = len(pivots)
        if r == len(m):
            break
        for pivot in range(r, len(m)):
            if m[pivot][c]:
                break
        else:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        prev = _pivot(m, r, c, prev)
        pivots.append(c)
    return pivots, prev, sign


def determinant(matrix):
    """The determinant of a square integer matrix; 1 for the empty one.

    _gauss_jordan reduces the matrix alone: it is singular when some column
    holds no pivot, and otherwise its last pivot is the determinant of the
    row-swapped matrix, which the swap sign turns into det.
    """
    m = [[int(x) for x in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError('determinant needs a square matrix')
    pivots, d, sign = _gauss_jordan(m)
    if len(pivots) < n:
        return 0
    return sign * d


def adjugate(matrix):
    """(det, adj) of a square integer matrix, with adj . matrix = det * I.

    _gauss_jordan reduces [matrix | I].  The matrix is invertible exactly
    when the first n pivots are its n columns; then the left block ends as
    d * I and the right block as d * matrix^-1, where d is the determinant
    of the row-swapped matrix, and the swap sign turns d into det and the
    right block into adj.  Row k of adj vanishes on every column of the
    matrix but column k, so it is a normal of the facet opposite column k,
    and adj[k] . column_k = det.  Returns (0, None) when det is 0.
    """
    n = len(matrix)
    m = [[int(x) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(matrix)]
    if any(len(row) != 2 * n for row in m):
        raise ValueError('adjugate needs a square matrix')
    pivots, d, sign = _gauss_jordan(m)
    if pivots[:n] != list(range(n)):
        return 0, None
    if sign < 0:
        return -d, [[-x for x in row[n:]] for row in m]
    return d, [row[n:] for row in m]


def integer_kernel(rows):
    """Integer basis of the kernel of integer rows of one length n.

    Ragged rows raise ValueError, and [] counts as no rows of length 1.
    After _gauss_jordan the rows are D times the reduced row echelon form,
    so each column f without a pivot gives one kernel vector: D at f,
    -row_k[f] at the k-th pivot column and 0 elsewhere.  The vectors are
    independent, n - rank of them, and D times the rational basis that
    sets each free column to one in turn.
    """
    m = [[int(x) for x in row] for row in rows]
    n = len(m[0]) if m else 1
    if any(len(row) != n for row in m):
        raise ValueError('kernel needs rows of one length')
    pivots, d, _ = _gauss_jordan(m)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = d
        for row, c in zip(m, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis


def lp_feasible(A, b, n):
    """A basic point x >= 0 with A x = b, as Fractions, or None when there is none.

    A and b are integer, and n is the column count, which A with no rows does
    not give.  Phase 1 of the simplex with Bland's rule: one artificial per
    row starts as the basis, and pivots lower the sum of the artificials
    until no column has a positive reduced cost.  A x = b is feasible exactly
    when the sum ends at 0, and x is the basic point where phase 1 ends.

    The simplex is fraction-free: it keeps an integer tableau T and one
    common denominator D, so the rational tableau is T / D.  D starts at 1
    and is then the previous pivot, positive since the ratio test pivots
    only on positive entries.  Pivoting (_pivot) on entry p replaces every
    other row by (p * T[i][j] - T[i][c] * T[r][j]) // D, an exact division
    by Sylvester's identity (Bareiss 1968), since every entry is D times an
    entry of the rational tableau and so, up to sign, a minor of [A | I | b].
    With cost -1 on each artificial, column j has a positive reduced cost
    exactly when the T[i][j] of the rows with an artificial in the basis sum
    to more than 0, or to more than D for an artificial column; the ratio
    test compares T[i][-1] / T[i][j] by cross multiplication, with Bland's
    tie-break.  So every pivot is the one the rational simplex makes.  The
    sum is bounded below by 0, so every entering column has a leaving row.
    """
    m = len(A)
    if any(len(row) != n for row in A):
        raise ValueError('constraint rows need n entries')
    if len(b) != m:
        raise ValueError('right-hand side needs one entry per constraint row')
    tableau = []
    for i in range(m):
        row = [_as_int(v) for v in A[i]] + [int(i == j) for j in range(m)] + [_as_int(b[i])]
        if row[-1] < 0:
            row = [-v if k < n or k == n + m else v for k, v in enumerate(row)]
        tableau.append(row)
    basis = list(range(n, n + m))
    denom = 1
    while True:
        artificial = [t for i, t in enumerate(tableau) if basis[i] >= n]
        entering = next((j for j in range(n + m) if j not in basis
                         and sum(t[j] for t in artificial) > (denom if j >= n else 0)), None)
        if entering is None:
            break
        leaving = None
        for i, t in enumerate(tableau):
            a = t[entering]
            if a > 0:
                if leaving is None:
                    leaving = i
                    continue
                best = tableau[leaving]
                lhs, rhs = t[-1] * best[entering], best[-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        denom = _pivot(tableau, leaving, entering, denom)
        basis[leaving] = entering
    if any(t[-1] for i, t in enumerate(tableau) if basis[i] >= n):
        return None
    x = [Fraction(0)] * n
    for i, t in enumerate(tableau):
        if basis[i] < n:
            x[basis[i]] = Fraction(t[-1], denom)
    return x


def _as_int(v):
    iv = int(v)
    if iv != v:
        raise ValueError('linear program data must be integers, got %r' % (v,))
    return iv
