"""The exact F_p product `linalg.matmul` against a Python-int oracle, and
`linalg.rank`, `rref`, `nullspace`, `coordinates` and `inverse` against sympy."""

from __future__ import annotations

import random

import numpy as np
import pytest
import sympy
from sympy.combinatorics import Permutation
from sympy.polys.matrices import DomainMatrix

import isotypic as iso
from isotypic import cover, linalg
from isotypic.arith import MAX_MODULUS
from isotypic.errors import SingularMatrix


def oracle(a, b, p):
    """(sum a*b) mod p in Python integers, with numpy's matmul shapes."""
    return np.asarray(np.asarray(a).astype(object) @ np.asarray(b).astype(object) % p, dtype=np.int64)


def residues(rng, shape, p):
    return rng.integers(0, p, size=shape, dtype=np.int64)


@pytest.fixture
def float_calls(monkeypatch):
    """Send every float64 product through the blocked loop and count its calls,
    to tell which path ran."""
    monkeypatch.setattr(linalg, "BLOCK_WORK", 0)
    calls = []
    gemm = linalg._float_gemm

    def spy(a, b, out):
        calls.append(a.shape)
        gemm(a, b, out)

    monkeypatch.setattr(linalg, "_float_gemm", spy)
    return calls


@pytest.mark.parametrize("k, path", [(7, "float"), (8, "int64")])
def test_matmul_at_the_float_bound(k, path, float_calls):
    # p - 1 = 2^25, so k (p-1)^2 is 7 * 2^50 (below 2^53) or exactly 2^53
    p = 2**25 + 1
    assert (k * (p - 1) ** 2 < linalg.FLOAT_EXACT) == (path == "float")
    rng = np.random.default_rng(k)
    a = residues(rng, (5, k), p)
    b = residues(rng, (k, 6), p)
    a[0], b[:, 0] = p - 1, p - 1  # one entry is the largest possible sum
    got = linalg.matmul(a, b, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, oracle(a, b, p))
    assert int(got[0, 0]) == k * (p - 1) ** 2 % p
    assert bool(float_calls) == (path == "float")


def test_matmul_int64_path_where_float_rounds(float_calls):
    # at the largest modulus a 5-term sum exceeds 2^53 and float64 would round
    p = MAX_MODULUS
    rng = np.random.default_rng(5)
    # entries near p - 1, so the sums pass 2^53, where float64 steps by 2
    a, b = p - 1 - residues(rng, (4, 5), 1000), p - 1 - residues(rng, (5, 3), 1000)
    assert not np.array_equal((a.astype(float) @ b.astype(float)).astype(np.int64) % p, oracle(a, b, p))
    assert np.array_equal(linalg.matmul(a, b, p), oracle(a, b, p))
    assert not float_calls


@pytest.mark.parametrize(
    "ashape, bshape",
    [((3, 0), (0, 4)), ((0, 5), (5, 3)), ((3, 5), (5, 0)), ((2, 0, 3), (3, 4)),
     ((2, 3, 0), (0, 4)), ((0,), (0, 2)), ((4, 0), (0,)), ((0, 2, 2), (2, 2))],
)
def test_matmul_zero_size(ashape, bshape):
    p = 10009
    rng = np.random.default_rng(0)
    a, b = residues(rng, ashape, p), residues(rng, bshape, p)
    got = linalg.matmul(a, b, p)
    assert got.shape == (a @ b).shape
    assert not got.any()


def test_matmul_stacked_and_transposed():
    p = 10009
    rng = np.random.default_rng(1)
    stack = residues(rng, (4, 5, 6), p)
    mat = residues(rng, (6, 5), p)
    cases = [
        (stack, mat),  # stacked left operand
        (mat, stack),  # stacked right operand
        (stack, stack.transpose(0, 2, 1)),  # stacked on both sides
        (stack.transpose(0, 2, 1), mat.T),  # non-contiguous operands
        (mat.T[::2], stack[1:, ::-1].transpose(0, 2, 1)),  # strided and reversed views
        (residues(rng, (1, 4, 6), p), stack.transpose(0, 2, 1)),  # broadcast batch
        (stack[0, 0], mat),  # vector times matrix
        (stack, mat[:, 0]),  # matrix times vector
        (mat[:, 0], stack[0, 0]),  # two vectors
    ]
    for a, b in cases:
        want = oracle(a, b, p)
        got = linalg.matmul(a, b, p)
        assert got.shape == want.shape and got.dtype == np.int64
        assert np.array_equal(got, want)


def test_matmul_spans_several_blocks(monkeypatch):
    p = 10009
    rng = np.random.default_rng(2)
    # at the default sizes: blocks of BLOCK_WORK / (k n) rows, three and a tail
    a, b = residues(rng, (3 * linalg.BLOCK_WORK // 64 + 5, 8), p), residues(rng, (8, 8), p)
    assert np.array_equal(linalg.matmul(a, b, p), oracle(a, b, p))
    # tiny blocks split both the rows of a and the columns of b, with ragged tails
    monkeypatch.setattr(linalg, "BLOCK_CELLS", 50)
    monkeypatch.setattr(linalg, "BLOCK_WORK", 200)
    a, b = residues(rng, (37, 9), p), residues(rng, (9, 23), p)
    assert np.array_equal(linalg.matmul(a, b, p), oracle(a, b, p))
    coef, mats = residues(rng, 24, p), residues(rng, (24, 7, 7), p)
    assert np.array_equal(linalg.matmul(coef, mats.reshape(24, 49), p), oracle(coef, mats.reshape(24, 49), p))


def test_matrix_rep_copies_only_validated_input(ctx):
    c = ctx("S3")
    perm = iso.permutation_rep(c.group, c.p).mats
    unreduced = perm + c.p  # the same representation, every entry shifted by p
    before = unreduced.copy()
    rep = iso.MatrixRep(c.group, c.p, unreduced)
    assert np.array_equal(unreduced, before)
    assert np.array_equal(rep.mats, perm)
    # without validation the representation owns the array and reduces it in place
    owned = iso.MatrixRep(c.group, c.p, unreduced, validate=False)
    assert np.array_equal(owned.mats, perm)
    assert np.shares_memory(owned.mats, unreduced)


def test_piece_projectors_built_once_per_degree_and_irreducible(ctx, monkeypatch):
    c = ctx("S3")
    action = iso.perm_action(c.group, c.p)
    built = []
    projector = cover.isotypic_projector

    def spy(rep, l, table):
        built.append((rep.dim, l))
        return projector(rep, l, table)

    monkeypatch.setattr(cover, "isotypic_projector", spy)
    for i in range(c.table.num_irreps):
        for j in range(c.table.num_irreps):
            for a in (1, 2):
                for b in range(a, 3):
                    assert iso.product_structure_check(action, i, j, a, b, c.table).ok
    assert len(built) == len(set(built))
    assert set(action._projectors) <= {(d, l) for d in (2, 3, 4) for l in range(3)}
    assert all(
        np.array_equal(p_dl, iso.isotypic_projector(action.piece(d).rep, l, c.table))
        for (d, l), p_dl in action._projectors.items()
    )


def gf(a, p):
    """A sympy DomainMatrix over GF(p), zero-size shapes included."""
    a = np.asarray(a)
    field = sympy.GF(p)
    return DomainMatrix([[field(int(x)) for x in row] for row in a.tolist()], a.shape, field)


def from_gf(m, p):
    """The int64 array of residues in [0, p) of a DomainMatrix over GF(p)."""
    return np.array([[int(x) % p for x in row] for row in m.to_Matrix().tolist()], dtype=np.int64).reshape(m.shape)


def seeded_matrices(rng, p):
    """Zero-size and zero matrices, then random m x n matrices, half of them
    products of m x k and k x n factors (rank at most k < min(m, n))."""
    out = [np.zeros(shape, dtype=np.int64) for shape in ((0, 0), (0, 3), (3, 0), (2, 3))]
    for _ in range(30):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        k = rng.randint(0, min(m, n) - 1)
        left = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(m)], dtype=np.int64).reshape(m, k)
        right = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(k)], dtype=np.int64).reshape(k, n)
        out.append(left @ right % p)
        out.append(np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)], dtype=np.int64))
    return out


@pytest.mark.parametrize("p", (7, 10009))
def test_rank_rref_nullspace_match_sympy(p):
    rng = random.Random(p)
    deficient = 0
    for a in seeded_matrices(rng, p):
        want = gf(a, p)
        r, pivots = linalg.rref(a, p)
        want_r, want_pivots = want.rref()
        assert linalg.rank(a, p) == want.rank()
        assert np.array_equal(r, from_gf(want_r, p)) and pivots == tuple(want_pivots)
        # divide_last scales each sympy basis vector to end in 1: its free column
        assert np.array_equal(linalg.nullspace(a, p), from_gf(want.nullspace(divide_last=True), p))
        deficient += want.rank() < min(a.shape)
    assert deficient >= 30


def sympy_coordinates(basis, vectors, p):
    """c with c @ basis = vectors: sympy's LU solve of basis^T c^T = vectors^T over GF(p)."""
    x = gf(basis.T, p).lu_solve(gf(vectors.T, p)).to_Matrix()
    return np.array([[int(v) % p for v in row] for row in x.T.tolist()], dtype=np.int64)


def test_coordinates_match_sympy():
    rng = random.Random(41)
    for _ in range(60):
        p = rng.choice((2, 3, 7, 13, 10009))
        n = rng.randint(1, 7)
        k, m = rng.randint(1, n), rng.randint(1, 6)
        while True:
            basis = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(k)], dtype=np.int64)
            if gf(basis, p).rank() == k:
                break
        c = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(m)], dtype=np.int64)
        vectors = c @ basis % p
        got = linalg.coordinates(basis, vectors, p)
        want = sympy_coordinates(basis, vectors, p)
        assert got.dtype == np.int64 and np.array_equal(got, want) and np.array_equal(got, c)


def test_coordinates_rejects_dependent_rows_and_vectors_outside_the_span():
    p = 7
    basis = np.array([[1, 2, 0, 3], [0, 1, 1, 0]], dtype=np.int64)
    dependent = np.concatenate([basis, (basis[:1] + 3 * basis[1:]) % p])
    with pytest.raises(SingularMatrix, match="dependent"):
        linalg.coordinates(dependent, basis, p)
    # a*row0 + b*row1 = (a, 2a + b, b, 3a) never equals (1, 0, 0, 0)
    vectors = np.array([[1, 3, 1, 3], [1, 0, 0, 0]], dtype=np.int64)
    with pytest.raises(SingularMatrix, match="outside"):
        linalg.coordinates(basis, vectors, p)
    assert linalg.coordinates(basis, vectors[:1], p).tolist() == [[1, 1]]


def test_inverse_matches_sympy_inv_mod():
    rng = random.Random(43)
    inverted = 0
    for _ in range(60):
        p = rng.choice((2, 3, 7, 13, 10009))
        n = rng.randint(1, 6)
        a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        m = sympy.Matrix(a.tolist())
        if m.det() % p == 0:
            with pytest.raises(SingularMatrix):
                linalg.inverse(a, p)
            continue
        want = np.array(m.inv_mod(p).tolist(), dtype=np.int64) % p
        assert np.array_equal(linalg.inverse(a, p), want)
        inverted += 1
    assert inverted >= 30
    with pytest.raises(SingularMatrix):
        linalg.inverse(np.array([[1, 2], [3, 6]], dtype=np.int64), 7)


def test_perm_sign_matches_sympy():
    rng = random.Random(47)
    for n in range(0, 9):
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            want = Permutation(perm).signature() if n else 1
            assert linalg.perm_sign(perm) == want


def test_block_det_matches_the_whole_determinant():
    # random square blocks placed on shuffled rows and columns
    rng = random.Random(53)
    p = 10009
    for _ in range(40):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        n = sum(sizes)
        rows, cols = list(range(n)), list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        a = np.zeros((n, n), dtype=np.int64)
        blocks, start = [], 0
        for k in sizes:
            r, c = np.array(rows[start : start + k]), np.array(cols[start : start + k])
            singular = rng.random() < 0.2
            a[np.ix_(r, c)] = [[0 if singular and j == 0 else rng.randrange(p) for j in range(k)] for _ in range(k)]
            blocks.append((r, c))
            start += k
        assert linalg.block_det(a, blocks, p) == linalg.det(a, p)
