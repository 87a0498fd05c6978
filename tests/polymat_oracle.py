"""Test oracle: general matrices over F_p[y] by elimination.

The library never eliminates over F_p[y]: the cyclic cover's phi is
C·diag(y^e) and `isotypic.polymat` reads its determinant and Smith form
off that factorization.  These general routines, the fraction-free
(Bareiss) determinant and a Smith diagonalization with the Euclidean
degree function, both with deterministic pivoting, check that shortcut
and the cover's Molien denominators at small sizes.
"""

from __future__ import annotations

from isotypic.arith import Poly


def matmul(a: list[list[Poly]], b: list[list[Poly]]) -> list[list[Poly]]:
    p = a[0][0].p
    n, k, m = len(a), len(b), len(b[0])
    out = [[Poly(p) for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for l in range(k):
            e = a[i][l]
            if e.is_zero():
                continue
            for j in range(m):
                if not b[l][j].is_zero():
                    out[i][j] = out[i][j] + e * b[l][j]
    return out


def mat_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def bareiss_det(matrix: list[list[Poly]]) -> Poly:
    """Determinant by fraction-free Gaussian elimination.

    Intermediate entries are minors of the input, so every division is
    exact in F_p[y].  Rows are swapped onto zero pivots (first nonzero
    below), with the sign tracked.
    """
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return Poly.const(1 if not matrix else matrix[0][0].p, 1)
    p = m[0][0].p
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    sign = 1
    prev = Poly.const(p, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot_row is None:
                return Poly(p)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = Poly(p)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def smith_normal_form(matrix: list[list[Poly]]) -> list[Poly]:
    """Diagonal of the Smith normal form over F_p[y].

    Returns the monic invariant factors d_1 | d_2 | ... (zeros omitted).
    Pivots are chosen by minimum (degree, row, column).
    """
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0 or cols == 0:
        return []
    p = m[0][0].p
    divisors: list[Poly] = []
    k = 0
    while k < min(rows, cols):
        pivot = None
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if not m[i][j].is_zero():
                    key = (m[i][j].degree, i, j)
                    if best is None or key < best:
                        best = key
                        pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            m[k], m[pi] = m[pi], m[k]
        if pj != k:
            for row in m:
                row[k], row[pj] = row[pj], row[k]

        while True:
            # clear the pivot column
            dirty = False
            for i in range(k + 1, rows):
                if m[i][k].is_zero():
                    continue
                q = m[i][k] // m[k][k]
                for j in range(k, cols):
                    m[i][j] = m[i][j] - q * m[k][j]
                if not m[i][k].is_zero():  # remainder has smaller degree
                    m[k], m[i] = m[i], m[k]
                    dirty = True
            if dirty:
                continue
            # clear the pivot row
            for j in range(k + 1, cols):
                if m[k][j].is_zero():
                    continue
                q = m[k][j] // m[k][k]
                for i in range(k, rows):
                    m[i][j] = m[i][j] - q * m[i][k]
                if not m[k][j].is_zero():
                    for row in m:
                        row[k], row[j] = row[j], row[k]
                    dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the submatrix for the chain
            offender = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if not (m[i][j] % m[k][k]).is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(k, cols):
                m[k][j] = m[k][j] + m[offender][j]

        divisors.append(m[k][k].monic())
        k += 1

    for a, b in zip(divisors, divisors[1:]):
        if not (b % a).is_zero():
            raise AssertionError("invariant factors fail the divisibility chain")
    return divisors
