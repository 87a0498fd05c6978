"""Dense exact linear algebra over a prime field.

Matrices are numpy int64 arrays with entries reduced into [0, p).  One
row elimination, `_eliminate`, with first-nonzero pivoting, gives `rref`,
`rank`, `row_space`, `nullspace` and `det`, so every derived basis (row
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
    """Coerce to a new C-ordered int64 array reduced mod p, so an
    elimination walks rows in memory order whatever the layout of `a` (the
    transpose of a projector is column-major)."""
    return residues(np.array(a, dtype=np.int64, order="C"), p)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


FLOAT_EXACT = 2**53  # every integer of magnitude up to this is a float64
BLOCK_CELLS = 1 << 17  # float64 cells in one column block of the right operand (1 MB)
# Multiply-adds per BLAS call.  OpenBLAS runs calls this small on the calling
# thread; threaded calls gained nothing on a 2-vCPU machine, and the workers
# they wake spin after each call, which slowed verify-all by about 10%.
BLOCK_WORK = 1 << 19
# Cells from which `residues` reduces by floor division.  At best, in the
# micro benchmark, `np.remainder` takes 4.8 us on 10^3 cells and 390 us on
# 10^5, floor division 3.5 and 140 us; below about 700 cells the
# remainder's single pass is the cheaper (2.6 against 3.1 us at 400).
RESIDUE_CELLS = 800


def residues(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce the int64 array x mod p in place, into [0, p), and return x.

    `%` divides once per cell in hardware; `x // p` by a scalar divides by
    multiplying with a precomputed reciprocal (Granlund and Montgomery,
    PLDI 1994), so x - (x // p) * p is several times cheaper on large
    arrays.  It is exact for every int64 x and p >= 2: the true value of
    x - (x // p) * p lies in [0, p), so the products that wrap around
    2^64 wrap back.
    """
    if x.size < RESIDUE_CELLS:
        return np.remainder(x, p, out=x)
    q = x // p
    q *= p
    x -= q
    return x


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for int64 residues in [0, p), with numpy's matmul shapes,
    for a right operand that is a matrix or a vector.

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
        return residues(a @ b, p)
    # rows of a times a matrix; vectors are one row or one column
    k, n = b.shape[0], b.shape[-1] if b.ndim == 2 else 1
    rows = math.prod(a.shape[:-1])
    a2, b2 = a.reshape(rows, k), b.reshape(k, n)
    if rows * k * max(n, 1) <= BLOCK_WORK and k * n <= BLOCK_CELLS:  # one block
        out = (a2.astype(np.float64) @ b2.astype(np.float64)).astype(np.int64)
    else:
        out = np.empty((rows, n), dtype=np.int64)
        _float_gemm(a2, b2, out)
    return residues(out, p).reshape(a.shape[:-1] + b.shape[1:])


def _float_gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b through float64, over column blocks of b and row blocks of a."""
    (m, k), n = a.shape, b.shape[1]
    cols = max(1, min(n, BLOCK_CELLS // max(k, 1)))
    rows = max(1, BLOCK_WORK // max(k * cols, 1))
    for j in range(0, n, cols):
        bf = b[:, j : j + cols].astype(np.float64)
        for i in range(0, m, rows):
            out[i : i + rows, j : j + cols] = a[i : i + rows].astype(np.float64) @ bf


def _eliminate(a, p: int) -> tuple[np.ndarray, tuple[int, ...], int]:
    """The one row elimination: (R, pivot_columns, d).

    R is the reduced row-echelon form of a, with pivots normalized to 1 and
    chosen as the first nonzero entry in each column, scanning columns left
    to right.  d is the product of the pivots before scaling times the sign
    of the row swaps, mod p: the determinant of a square a of full rank,
    since clearing the other rows of a pivot column keeps the determinant.
    """
    r = asmat(a, p)  # a new array, which the elimination overwrites
    m, n = r.shape
    pivots: list[int] = []
    d = 1
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
            d = -d
        lead = int(r[row, col])
        d = d * lead % p
        r[row] *= inv_mod(lead, p)
        residues(r[row], p)
        other = np.nonzero(r[:, col])[0]
        other = other[other != row]
        if other.size:
            block = r[other]
            block -= block[:, col, None] * r[row]
            r[other] = residues(block, p)
        pivots.append(col)
        row += 1
    return r, tuple(pivots), d


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row-echelon form: (R, pivot_columns), as `_eliminate` makes them."""
    return _eliminate(a, p)[:2]


def rank(a: np.ndarray, p: int) -> int:
    return len(rref(a, p)[1])


def row_space(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical (RREF) basis of the row space, one vector per row."""
    r, pivots = rref(a, p)
    return r[: len(pivots)].copy()


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of the right null space, one vector per row.

    Basis vectors carry a 1 in their free column, listed in ascending
    free-column order; their pivot entries are the negated free columns of
    the reduced rows.
    """
    r, pivots = rref(a, p)
    n = r.shape[1]
    free = np.delete(np.arange(n), pivots)
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, list(pivots)] = -r[: len(pivots), free].T % p
    return basis


def pivot_inverse(basis: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """The pivot columns P of a row basis and the inverse of basis[:, P].

    One elimination of [basis | I]: its pivots all fall in the basis
    columns exactly when the rows are independent (else SingularMatrix),
    and then the right-hand block is the inverse of basis[:, P], so a
    vector v in the span has the coordinates v[P] @ inverse.
    """
    k, n = np.shape(basis)
    r, pivots = rref(np.concatenate([basis, identity(k)], axis=1), p)
    if len(pivots) < k or (k and pivots[-1] >= n):
        raise SingularMatrix("basis rows are linearly dependent")
    return list(pivots), r[:, n:]


def check_span(coords: np.ndarray, basis: np.ndarray, vectors: np.ndarray, p: int) -> None:
    """Raise SingularMatrix unless coords @ basis = vectors, which fails
    for the coordinates `pivot_inverse` reads off a vector outside the span."""
    if not np.array_equal(matmul(coords, basis, p), vectors):
        raise SingularMatrix("a vector lies outside the span of the basis")


def coordinates(basis: np.ndarray, vectors: np.ndarray, p: int) -> np.ndarray:
    """Coordinates c with c @ basis = vectors, for a row basis: the one
    change of basis.  `pivot_inverse` solves, c = vectors[:, P] @ inverse,
    and `check_span` multiplies back.  Dependent rows and a vector outside
    the span both raise SingularMatrix.
    """
    basis, vectors = asmat(basis, p), asmat(vectors, p)
    pivots, inverse = pivot_inverse(basis, p)
    c = matmul(vectors[..., pivots], inverse, p)
    check_span(c, basis, vectors, p)
    return c


def det(a: np.ndarray, p: int) -> int:
    """Determinant of a square matrix: `_eliminate`'s pivot product, 0
    below full rank (1 for an empty matrix)."""
    n = len(a)
    _, pivots, d = _eliminate(np.reshape(a, (n, n)), p)
    return d if len(pivots) == n else 0


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
    h = asmat(a, p)
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
        h[j + 2 :] -= np.outer(c, h[j + 1])
        residues(h[j + 2 :], p)
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

    The eigenvalues are the roots of the characteristic polynomial f in
    F_p, so the cost does not grow with p.  The eigenvectors of all simple
    roots come from one Krylov product (Keller-Gehrig, Theor. Comput. Sci.
    36 (1985)): with K = [e_0, a e_0, ..., a^(n-1) e_0] and q_lam the
    coefficients of f(x)/(x - lam), Cayley-Hamilton gives
    (a - lam) K q_lam = f(a) e_0 = 0.  lam is simple exactly when
    q_lam(lam) != 0; its eigenspace is then a line, and K q_lam scaled to
    a last nonzero entry of 1 is the vector `nullspace` returns.  Repeated
    roots, and simple roots whose K q_lam is 0 (e_0 has no component on
    that line), take `nullspace`.  One product a W = W diag(lam) checks
    every Krylov vector; a failure means f is wrong and raises
    SplitFailure.  With `complete`, the eigenspaces must fill the space
    (a diagonalizable over F_p), else SplitFailure.
    """
    from .arith import Poly, poly_roots  # arith imports this module

    a = asmat(a, p)
    n = a.shape[0]
    f = charpoly(a, p)
    roots = poly_roots(Poly(p, f))
    spaces = _simple_eigenvectors(a, f, roots, p) if roots else {}
    for lam in roots:
        if lam not in spaces:
            spaces[lam] = nullspace((a - lam * identity(n)) % p, p)
    if complete and sum(s.shape[0] for s in spaces.values()) != n:
        raise SplitFailure("matrix is not diagonalizable over F_p")
    return [spaces[lam] for lam in roots]


def _simple_eigenvectors(a: np.ndarray, f: list[int], roots: list[int], p: int) -> dict:
    """{lam: 1 x n eigenvector} for the simple roots lam of f = charpoly(a)
    whose Krylov vector K q_lam is nonzero, as `eigenspaces` describes."""
    n = a.shape[0]
    lams = np.array(roots, dtype=np.int64)
    # column r of q: f(x)/(x - roots[r]) by synthetic division, high to low,
    # with its value at roots[r] by Horner alongside
    q = np.zeros((n, len(roots)), dtype=np.int64)
    q[n - 1] = 1
    value = np.ones(len(roots), dtype=np.int64)
    for j in range(n - 1, 0, -1):
        q[j - 1] = (f[j] + lams * q[j]) % p
        value = (value * lams + q[j - 1]) % p
    simple = np.nonzero(value)[0]
    if simple.size == 0:
        return {}
    krylov = np.zeros((n, n), dtype=np.int64)  # row j: a^j e_0
    krylov[0, 0] = 1
    for j in range(1, n):
        krylov[j] = matmul(a, krylov[j - 1], p)
    w = matmul(krylov.T, q[:, simple], p)  # column r: q_r(a) e_0
    wrong = np.any(matmul(a, w, p) != w * lams[simple] % p, axis=0)
    if wrong.any():
        lam = roots[simple[np.argmax(wrong)]]
        raise SplitFailure(f"{lam} is a root of the characteristic polynomial but not an eigenvalue")
    out = {}
    for r, col in zip(simple, w.T):
        nz = np.nonzero(col)[0]
        if nz.size:  # else e_0 has no component on this line
            out[roots[r]] = (col * inv_mod(int(col[nz[-1]]), p) % p)[None, :]
    return out


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
