"""Exact integer and rational linear algebra helpers."""
from __future__ import annotations

from fractions import Fraction
from math import gcd


class BudgetError(RuntimeError):
    """Raised when an enumeration exceeds its state budget."""


RANK_PRIME = (1 << 61) - 1


def modular_rank_is_exact(columns) -> bool:
    """Whether every column subset is independent mod RANK_PRIME exactly when it is over Q.

    The columns are integer vectors of one height.  By Hadamard's bound an
    s x s minor with entries at most B in absolute value is at most
    (s B^2)^(s/2), so when (s B^2)^s < RANK_PRIME^2 for s = min(height,
    number of columns) no nonzero minor vanishes mod the prime.
    """
    height = len(columns[0]) if columns else 0
    largest = max((abs(v) for col in columns for v in col), default=0)
    s = min(height, len(columns))
    return not s or (s * max(largest, 1) ** 2) ** s < RANK_PRIME * RANK_PRIME


def adjugate(matrix):
    """(det, adj) of a square integer matrix, with adj . matrix = det * I.

    Fraction-free Gauss-Jordan (Bareiss) elimination of [matrix | I]: each
    step replaces every row but the pivot row by (p * row - f * pivot_row)
    // prev, an exact division since every entry is a minor of the augmented
    matrix.  At the end the left block is d * I and the right block is
    d * matrix^-1, where d is the determinant of the row-swapped matrix; the
    swap sign turns d into det and the right block into adj.  Row k of adj
    vanishes on every column of the matrix but column k, so it is a normal
    of the facet opposite column k, and adj[k] . column_k = det.  adj is
    None when det is 0.
    """
    n = len(matrix)
    m = [[int(x) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(matrix)]
    if any(len(row) != 2 * n for row in m):
        raise ValueError('adjugate needs a square matrix')
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            r = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if r is None:
                return 0, None
            m[k], m[r] = m[r], m[k]
            sign = -sign
        pivot_row = m[k]
        p = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            row = m[i]
            f = row[k]
            if f:
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]
            elif p != prev:
                m[i] = [p * a // prev for a in row]
        prev = p
    if sign < 0:
        return -prev, [[-x for x in row[n:]] for row in m]
    return prev, [row[n:] for row in m]


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
    one-dimensional.  Its only caller is circuits, for the kernel of a
    support's columns; determinants and wall normals come from adjugate.
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
    only on positive entries.  Pivoting on entry p replaces every other row
    by (p * T[i][j] - T[i][c] * T[r][j]) // D, an exact division by
    Sylvester's identity (Bareiss 1968), since every entry is D times an
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
        prow = tableau[leaving]
        p = prow[entering]
        for r, other in enumerate(tableau):
            if r == leaving:
                continue
            f = other[entering]
            if f:
                tableau[r] = [(p * a - f * q) // denom for a, q in zip(other, prow)]
            elif p != denom:
                tableau[r] = [p * a // denom for a in other]
        denom = p
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
