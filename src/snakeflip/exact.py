"""Exact integer and rational linear algebra helpers."""
from __future__ import annotations

from fractions import Fraction
from math import gcd


class BudgetError(RuntimeError):
    """Raised when an enumeration exceeds its state budget."""


def det_int(matrix):
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [[int(x) for x in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError('determinant needs a square matrix')
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def integer_normal(rows):
    """Primitive integer vector spanning the kernel of integer rows of one length.

    The rows may be any number of integer vectors of a common length n;
    ragged rows raise ValueError, and [] counts as no rows of length 1.
    Fraction-free (Bareiss) elimination to echelon form, whose divisions are
    exact, leaves the columns without a pivot; when exactly one is left, the
    kernel is one-dimensional and integer back-substitution solves for it
    with that column's entry set to one, scaling the vector whenever a pivot
    does not divide.  The result is divided by its content and its first
    nonzero entry is positive.  For k independent rows of length k + 1 it is
    proportional to the cofactor vector: det([rows..., x]) = c * (normal . x)
    for one nonzero integer c.  Returns None when the kernel is not
    one-dimensional.
    """
    m = [[int(x) for x in row] for row in rows]
    k = len(m)
    n = len(m[0]) if m else 1
    if any(len(row) != n for row in m):
        raise ValueError('normal needs rows of one length')
    prev = 1
    pivot_cols = []
    free = None
    for c in range(n):
        r = len(pivot_cols)
        pivot = next((i for i in range(r, k) if m[i][c] != 0), None)
        if pivot is None:
            if free is not None:
                return None
            free = c
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][c]
        tail = m[r][c + 1:]
        # entries left of column c are zero below row r and are never read again
        for i in range(r + 1, k):
            row = m[i]
            f = row[c]
            if f == 0 and p == prev:
                continue
            row[c + 1:] = [(p * a - f * b) // prev for a, b in zip(row[c + 1:], tail)]
        prev = p
        pivot_cols.append(c)
    if free is None:
        return None
    nu = [0] * n
    nu[free] = 1
    for r in range(len(pivot_cols) - 1, -1, -1):
        c = pivot_cols[r]
        row = m[r]
        s = sum(a * b for a, b in zip(row[c + 1:], nu[c + 1:]))
        g = gcd(s, row[c])
        if row[c] != g:
            nu = [x * (row[c] // g) for x in nu]
        nu[c] = -(s // g)
    g = 0
    for x in nu:
        g = gcd(g, x)
    if next(x for x in nu if x) < 0:
        g = -g
    return [x // g for x in nu]


def lp_maximize(A, b, c):
    """Maximize c.x subject to A x = b, x >= 0, for integer A, b and c.

    Two-phase simplex with Bland's rule. Returns (status, value, x) where
    status is 'optimal', 'infeasible', or 'unbounded'; value and x are set
    only when optimal, as Fractions.

    The simplex is fraction-free: it keeps an integer tableau T and one
    common denominator D > 0, so the rational tableau is T / D.  D starts at
    1 and is the absolute value of the previous pivot.  Pivoting on entry p
    replaces every other row by (p * T[i][j] - T[i][c] * T[r][j]) // D,
    an exact division by Sylvester's identity (Bareiss 1968), since every
    entry is D times an entry of the rational tableau and so, up to sign, a
    minor of [A | I | b].  The tableau is negated when p < 0 and D becomes
    |p|.  A reduced cost is negative exactly when sum(lam_i * T[i][j]) <
    c_j * D, and the ratio test compares T[i][-1] / T[i][j] by cross
    multiplication, with the same Bland tie-break; so every pivot is the one
    the rational simplex makes, and the result is the same.
    """
    m = len(A)
    n = len(c)
    if any(len(row) != n for row in A):
        raise ValueError('constraint rows must match the objective length')
    if len(b) != m:
        raise ValueError('right-hand side needs one entry per constraint row')
    tableau = []
    for i in range(m):
        row = [_as_int(v) for v in A[i]] + [int(i == j) for j in range(m)] + [_as_int(b[i])]
        if row[-1] < 0:
            row = [-v if k < n or k == n + m else v for k, v in enumerate(row)]
        tableau.append(row)
    objective = [_as_int(v) for v in c]
    basis = list(range(n, n + m))
    in_basis = set(basis)
    denom = 1

    def pivot(row, col):
        nonlocal denom
        prow = tableau[row]
        p = prow[col]
        for r, other in enumerate(tableau):
            if r == row:
                continue
            f = other[col]
            if f:
                tableau[r] = [(p * a - f * q) // denom for a, q in zip(other, prow)]
            elif p != denom:
                tableau[r] = [p * a // denom for a in other]
        if p < 0:
            tableau[:] = [[-v for v in t] for t in tableau]
            p = -p
        denom = p
        in_basis.discard(basis[row])
        basis[row] = col
        in_basis.add(col)

    def run_phase(costs, allowed):
        while True:
            weighted = [(costs[basis[i]], t) for i, t in enumerate(tableau) if costs[basis[i]]]
            entering = -1
            for j in range(allowed):
                if j not in in_basis and sum(w * t[j] for w, t in weighted) < costs[j] * denom:
                    entering = j
                    break
            if entering < 0:
                return True
            leaving = -1
            for i, t in enumerate(tableau):
                a = t[entering]
                if a > 0:
                    if leaving < 0:
                        leaving = i
                        continue
                    best = tableau[leaving]
                    lhs, rhs = t[-1] * best[entering], best[-1] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                        leaving = i
            if leaving < 0:
                return False
            pivot(leaving, entering)

    run_phase([0] * n + [-1] * m, n + m)
    if any(tableau[i][-1] for i in range(m) if basis[i] >= n):
        return 'infeasible', None, None
    for i in range(m):  # drive leftover zero-level artificials out of the basis
        if basis[i] >= n:
            for j in range(n):
                if tableau[i][j] != 0:
                    pivot(i, j)
                    break
    live = [i for i in range(m) if basis[i] < n or any(tableau[i][j] for j in range(n))]
    if len(live) < m:
        tableau[:] = [tableau[i] for i in live]
        basis[:] = [basis[i] for i in live]
        in_basis.intersection_update(basis)
    if not run_phase(objective + [0] * m, n):
        return 'unbounded', None, None
    x = [Fraction(0)] * n
    for i, t in enumerate(tableau):
        if basis[i] < n:
            x[basis[i]] = Fraction(t[-1], denom)
    value = sum(ci * xi for ci, xi in zip(objective, x))
    return 'optimal', value, x


def _as_int(v):
    iv = int(v)
    if iv != v:
        raise ValueError('linear program data must be integers, got %r' % (v,))
    return iv
