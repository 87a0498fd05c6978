"""Dense exact linear algebra over a prime field.

Matrices are numpy int64 arrays with entries reduced into [0, p).  All
eliminations use first-nonzero pivoting, so every derived basis (row
space, null space, image) is deterministic for a given input.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ModulusTooLarge, SingularMatrix, SplitFailure


def inv_mod(a: int, p: int) -> int:
    """Inverse of a nonzero residue mod the prime p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


def require_exact(n: int, p: int) -> None:
    """Raise unless a length-n dot product of residues mod p fits in int64."""
    if n * (p - 1) ** 2 >= 2**63:
        raise ModulusTooLarge(f"modulus {p} overflows int64 arithmetic on {n}-term sums")


def asmat(a, p: int) -> np.ndarray:
    """Coerce to an int64 array reduced mod p."""
    return np.asarray(a, dtype=np.int64) % p


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


FLOAT_EXACT = 2**53  # every integer of magnitude up to this is a float64
BLOCK_CELLS = 1 << 17  # float64 cells in one column block of the right operand (1 MB)
# Multiply-adds per BLAS call.  OpenBLAS runs calls this small on the calling
# thread; threaded calls gained nothing on a 2-vCPU machine, and the workers
# they wake spin after each call, which slowed verify-all by about 10%.
BLOCK_WORK = 1 << 19


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for int64 residues in [0, p), with numpy's matmul shapes.

    When k (p-1)^2 < 2^53, k the inner dimension, every partial sum of a
    dot product is an integer below 2^53, so float64 BLAS computes it
    exactly in any summation order (the FFLAS-FFPACK trick).  A product
    larger than one block fills a preallocated int64 output block by block,
    so the float temporaries stay at a few megabytes; the output is reduced
    in place.  Larger moduli take the int64 product, which `require_exact`
    keeps exact.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-1] * (p - 1) ** 2 >= FLOAT_EXACT:
        return (a @ b) % p
    if b.ndim > 2:  # a stack of right operands: one product per matrix
        batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        a, b = np.broadcast_to(a, batch + a.shape[-2:]), np.broadcast_to(b, batch + b.shape[-2:])
        out = np.empty(batch + a.shape[len(batch) : -1] + b.shape[-1:], dtype=np.int64)
        for idx in np.ndindex(batch):
            out[idx] = matmul(a[idx], b[idx], p)
        return out
    # rows of a times a matrix; vectors are one row or one column
    k, n = b.shape[0], b.shape[-1] if b.ndim == 2 else 1
    rows = math.prod(a.shape[:-1])
    a2, b2 = a.reshape(rows, k), b.reshape(k, n)
    if rows * k * max(n, 1) <= BLOCK_WORK and k * n <= BLOCK_CELLS:  # one block
        out = (a2.astype(np.float64) @ b2.astype(np.float64)).astype(np.int64)
    else:
        out = np.empty((rows, n), dtype=np.int64)
        _float_gemm(a2, b2, out)
    return np.remainder(out, p, out=out).reshape(a.shape[:-1] + b.shape[1:])


def _float_gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b through float64, over column blocks of b and row blocks of a."""
    (m, k), n = a.shape, b.shape[1]
    cols = max(1, min(n, BLOCK_CELLS // max(k, 1)))
    rows = max(1, BLOCK_WORK // max(k * cols, 1))
    for j in range(0, n, cols):
        bf = b[:, j : j + cols].astype(np.float64)
        for i in range(0, m, rows):
            out[i : i + rows, j : j + cols] = a[i : i + rows].astype(np.float64) @ bf


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row-echelon form.

    Returns (R, pivot_columns).  Pivots are normalized to 1 and chosen as
    the first nonzero entry in each column, scanning columns left to right.
    """
    r = asmat(a, p).copy()
    m, n = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        r[row] = (r[row] * inv_mod(int(r[row, col]), p)) % p
        other = np.nonzero(r[:, col])[0]
        other = other[other != row]
        if other.size:
            r[other] = (r[other] - np.outer(r[other, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, tuple(pivots)


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def row_space(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical (RREF) basis of the row space, one vector per row."""
    r, pivots = rref(a, p)
    return r[: len(pivots)].copy()


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of the right null space, one vector per row.

    Basis vectors carry a 1 in their free column, listed in ascending
    free-column order.
    """
    a = asmat(a, p)
    m, n = a.shape
    r, pivots = rref(a, p)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-r[i, fc]) % p
    return basis


def coordinates(basis: np.ndarray, vectors: np.ndarray, p: int) -> np.ndarray:
    """Coordinates c with c @ basis = vectors, for a row basis.

    One elimination of [basis | I]: its pivots P all fall in the basis
    columns exactly when the rows are independent, and then the right-hand
    block is the inverse of basis[:, P], so c = vectors[:, P] @ inverse.
    Multiplying back must give the vectors.  Dependent rows and a vector
    outside the span both raise SingularMatrix.
    """
    basis, vectors = asmat(basis, p), asmat(vectors, p)
    k, n = basis.shape
    r, pivots = rref(np.concatenate([basis, identity(k)], axis=1), p)
    if len(pivots) < k or (k and pivots[-1] >= n):
        raise SingularMatrix("basis rows are linearly dependent")
    c = matmul(vectors[..., list(pivots)], r[:, n:], p)
    if not np.array_equal(matmul(c, basis, p), vectors):
        raise SingularMatrix("a vector lies outside the span of the basis")
    return c


def inverse(a: np.ndarray, p: int) -> np.ndarray:
    a = asmat(a, p)
    n = a.shape[0]
    if a.shape != (n, n):
        raise SingularMatrix("only square matrices are invertible")
    return coordinates(a, identity(n), p)


def det(a: np.ndarray, p: int) -> int:
    """Determinant of a square matrix by elimination with first-nonzero pivots."""
    m = asmat(a, p).copy()
    n = m.shape[0]
    d = 1
    for col in range(n):
        nz = np.nonzero(m[col:, col])[0]
        if nz.size == 0:
            return 0
        piv = col + int(nz[0])
        if piv != col:
            m[[col, piv]] = m[[piv, col]]
            d = -d
        d = d * int(m[col, col]) % p
        c = m[col + 1 :, col] * inv_mod(int(m[col, col]), p) % p
        m[col + 1 :, col + 1 :] = (m[col + 1 :, col + 1 :] - np.outer(c, m[col, col + 1 :])) % p
    return d % p


def perm_sign(perm) -> int:
    """Sign (+1 or -1) of a permutation of range(n): (-1)^(n - cycles)."""
    perm = [int(k) for k in perm]
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
    return -1 if (len(perm) - cycles) % 2 else 1


def block_det(a: np.ndarray, blocks, p: int) -> int:
    """det(a) for a square matrix that is block diagonal up to a row and a
    column permutation.

    `blocks` lists the (rows, cols) index lists of the square diagonal
    blocks; the rows of all blocks, in order, are a permutation of the row
    indices, and likewise the columns.  det(a) is the sign of those two
    permutations times the product of the block determinants.  The caller
    checks that a is zero outside the blocks.
    """
    a = asmat(a, p)
    d = perm_sign(np.concatenate([r for r, _ in blocks])) * perm_sign(np.concatenate([c for _, c in blocks]))
    for rows, cols in blocks:
        d = d * det(a[np.ix_(rows, cols)], p) % p
    return d % p


def charpoly(a: np.ndarray, p: int) -> list[int]:
    """Coefficients (low to high, monic) of det(xI - a) over F_p.

    A similarity reduction to upper Hessenberg form h (first-nonzero
    pivots), then the recurrence on its leading principal minors:
    f_m = (x - h[m-1, m-1]) f_{m-1}
          - sum_i h[m-1-i, m-1] * h[m-1, m-2] ... h[m-i, m-1-i] * f_{m-1-i}.
    """
    h = asmat(a, p).copy()
    n = h.shape[0]
    for j in range(n - 2):
        nz = np.nonzero(h[j + 1 :, j])[0]
        if nz.size == 0:
            continue
        piv = j + 1 + int(nz[0])
        if piv != j + 1:
            h[[j + 1, piv]] = h[[piv, j + 1]]
            h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        c = h[j + 2 :, j] * inv_mod(int(h[j + 1, j]), p) % p
        h[j + 2 :] = (h[j + 2 :] - np.outer(c, h[j + 1])) % p
        h[:, j + 1] = (h[:, j + 1] + matmul(h[:, j + 2 :], c, p)) % p
    f = np.zeros((n + 1, n + 1), dtype=np.int64)  # row m: coefficients of f_m
    f[0, 0] = 1
    for m in range(1, n + 1):
        # coef[i] multiplies f_{m-1-i}: h[m-1-i, m-1] times the subdiagonal run
        coef = np.zeros(m, dtype=np.int64)
        coef[0] = h[m - 1, m - 1]
        run = 1
        for i in range(1, m):
            run = run * int(h[m - i, m - 1 - i]) % p
            if run == 0:
                break
            coef[i] = int(h[m - 1 - i, m - 1]) * run % p
        f[m, 1:] = f[m - 1, :-1]
        f[m] = (f[m] - matmul(coef, f[m - 1 :: -1], p)) % p
    return f[n].tolist()


def eigenspaces(a: np.ndarray, p: int, complete: bool = True) -> list[np.ndarray]:
    """`nullspace(a - lam I)` for each eigenvalue lam of a in F_p, ascending.

    The eigenvalues are the roots of the characteristic polynomial in F_p,
    so the cost does not grow with p.  With `complete`, the eigenspaces
    must fill the space (a diagonalizable over F_p), else SplitFailure.
    """
    from .arith import Poly, poly_roots  # arith imports this module

    a = asmat(a, p)
    n = a.shape[0]
    roots = poly_roots(Poly(p, charpoly(a, p)))
    spaces = [nullspace((a - lam * identity(n)) % p, p) for lam in roots]
    if complete and sum(s.shape[0] for s in spaces) != n:
        raise SplitFailure("matrix is not diagonalizable over F_p")
    return spaces


def split(basis: np.ndarray, mat: np.ndarray, p: int, complete: bool) -> list[np.ndarray]:
    """Eigenspaces of mat on an invariant row space, as ambient row bases.

    The row space of basis must be invariant under mat acting on column
    vectors, v -> v @ mat.T, else SingularMatrix.  The operator on
    coordinates is the transpose of `coordinates(basis, basis @ mat.T)`;
    each of its eigenspaces maps back through the basis.  `complete` is as
    in `eigenspaces`.
    """
    coords = coordinates(basis, matmul(basis, mat.T, p), p)
    return [matmul(null, basis, p) for null in eigenspaces(coords.T, p, complete)]
