"""The exact F_p product `linalg.matmul` against a Python-int oracle, the
reduction `linalg.residues` against `np.remainder`, `linalg.rank`, `rref`,
`nullspace`, `coordinates`, `det` and the test-side matrix inverse against
sympy, and `nullspace` against the loops it replaced."""

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

from conftest import forbid, matrix_inverse


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
        (stack.transpose(0, 2, 1), mat.T),  # non-contiguous operands
        (stack[1:, ::-1].transpose(0, 2, 1), mat.T[:, ::2]),  # strided and reversed views
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


INT64 = np.iinfo(np.int64)
# from the smallest modulus to the largest that `linalg` keeps exact
RESIDUE_PRIMES = (2, 3, 10009, MAX_MODULUS)
# both sides of the cell count from which `linalg.residues` divides by floor
RESIDUE_SIZES = (0, 1, linalg.RESIDUE_CELLS - 1, linalg.RESIDUE_CELLS, linalg.RESIDUE_CELLS + 1, 10**5)
VIEWS = {
    "transposed": lambda a: a.T,
    "column-sliced": lambda a: a[:, 3:-3],
    "reversed": lambda a: a[::-1, ::-1],
}


def int64_cells(rng, shape):
    """Seeded int64 cells: the extremes -2^63 and +-(2^63 - 1) first, then
    a mix of the whole range and of small values of either sign."""
    wide = rng.integers(INT64.min, INT64.max, size=shape, endpoint=True)
    x = np.where(rng.random(shape) < 0.5, wide, rng.integers(-(10**9), 10**9, size=shape))
    flat = x.reshape(-1)
    flat[:3] = [INT64.min, INT64.max, -INT64.max][: flat.size]
    return x


class UfuncLog(np.ndarray):
    """An int64 array that logs the ufuncs applied to it, so a test can tell
    which branch of `linalg.residues` ran."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        self.log.append(ufunc.__name__)
        if out:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        result = getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)
        return out[0] if len(out) == 1 else result


@pytest.mark.parametrize("p", RESIDUE_PRIMES)
@pytest.mark.parametrize("size", RESIDUE_SIZES)
def test_residues_match_np_remainder(size, p):
    x = int64_cells(np.random.default_rng([size, p]), size)
    want = np.remainder(x, p)
    assert linalg.residues(x, p) is x
    assert np.array_equal(x, want)


@pytest.mark.parametrize("p", RESIDUE_PRIMES)
@pytest.mark.parametrize("rows", [12, 60])  # views below and above the crossover
@pytest.mark.parametrize("view", VIEWS)
def test_residues_reduce_a_view_in_place(view, rows, p):
    base = int64_cells(np.random.default_rng([rows, p]), (rows, 40))
    before = base.copy()
    x = VIEWS[view](base)
    want = np.remainder(x, p)
    assert linalg.residues(x, p) is x
    assert np.array_equal(x, want)
    outside = np.ones(base.shape, dtype=bool)
    VIEWS[view](outside)[...] = False
    assert np.array_equal(base[outside], before[outside])


@pytest.mark.parametrize(
    "size, branch",
    [(linalg.RESIDUE_CELLS - 1, ["remainder"]), (linalg.RESIDUE_CELLS, ["floor_divide", "subtract"])],
)
def test_residues_divide_by_floor_from_the_crossover(size, branch):
    x = np.arange(-size, 0, dtype=np.int64).view(UfuncLog)
    x.log = []
    assert linalg.residues(x, 10009) is x
    assert x.log == branch
    assert np.array_equal(np.asarray(x), np.arange(-size, 0) % 10009)


def test_asmat_returns_a_new_reduced_array():
    a = np.array([[-1, 7], [12, 3]], dtype=np.int64)
    m = linalg.asmat(a, 5)
    assert not np.shares_memory(m, a)
    assert m.tolist() == [[4, 2], [2, 3]] and a[0, 0] == -1


def test_matrix_rep_holds_a_reduced_copy_of_its_input(ctx):
    c = ctx("S3")
    perm = iso.permutation_rep(c.group, c.p).mats
    unreduced = perm + c.p  # the same representation, every entry shifted by p
    before = unreduced.copy()
    rep = iso.MatrixRep(c.group, c.p, unreduced)
    assert np.array_equal(unreduced, before)
    assert np.array_equal(rep.mats, perm)
    assert not np.shares_memory(rep.mats, unreduced)


def test_product_check_builds_one_projector_until_it_fails(ctx, monkeypatch):
    # a passing check with forbidden components builds P_F, one group sum on
    # B_{a+b}, the first time it meets its (a + b, forbidden set) and none
    # after, and no P_l; with nothing forbidden or an empty factor it builds
    # nothing; a failing one builds P_l for the forbidden l up to its witness
    c = ctx("S3")
    action = iso.perm_action(c.group, c.p)
    sums, built = [], []
    group_sum, projector = cover._group_sum, cover.isotypic_projector

    def sum_spy(rep, elems, coef):
        sums.append(rep)
        return group_sum(rep, elems, coef)

    def projector_spy(rep, l, table):
        built.append((rep.dim, l))
        return projector(rep, l, table)

    monkeypatch.setattr(cover, "_group_sum", sum_spy)
    monkeypatch.setattr(cover, "isotypic_projector", projector_spy)
    tens = iso.tensor_multiplicities(c.table)
    seen, forbidden_sets = set(), set()
    for i in range(3):
        for j in range(3):
            for a in (1, 2):
                for b in range(a, 3):
                    sums.clear()
                    assert iso.product_structure_check(action, i, j, a, b, c.table) is None
                    decomps = [action.piece_decomposition(d, c.table) for d in (a, b)]
                    if tens[i, j].all():
                        kind = "nothing forbidden"
                    elif not (decomps[0].multiplicities[i] and decomps[1].multiplicities[j]):
                        kind = "empty factor"
                    else:
                        key = (a + b, tuple(np.nonzero(tens[i, j] == 0)[0]))
                        kind = "reused P_F" if key in forbidden_sets else "one group sum"
                        forbidden_sets.add(key)
                    assert [rep is action.piece(a + b) for rep in sums] == (
                        [True] if kind == "one group sum" else []
                    ), (i, j, a, b)
                    seen.add(kind)
    assert built == [] and len(seen) == 4
    # (x_0 + x_1 + x_2)^2, the square of the trivial component of B_1, is
    # invariant: with everything forbidden, only P_0 is built
    forbid(monkeypatch, 3, 0, 0, 0, 1, 2)
    assert iso.product_structure_check(action, 0, 0, 1, 1, c.table)["component"] == 0
    assert built == [(6, 0)]
    # the standard component times an invariant is standard: P_1 vanishes on
    # it, P_2 is the witness, and P_0 is not forbidden
    built.clear()
    forbid(monkeypatch, 3, 2, 0, 1, 2)
    assert iso.product_structure_check(action, 2, 0, 1, 1, c.table)["component"] == 2
    assert built == [(6, 1), (6, 2)]


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


def nullspace_by_loops(a, p):
    """The null space basis as `nullspace` built it before its scatter: one
    Python loop over free columns, one over pivot columns."""
    a = linalg.asmat(a, p)
    m, n = a.shape
    r, pivots = linalg.rref(a, p)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-r[i, fc]) % p
    return basis


def matrices_of_rank(rng, m, n, k, p):
    """A seeded m x n matrix of rank at most k: a product of m x k and k x n factors."""
    left = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(m)], dtype=np.int64).reshape(m, k)
    right = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(k)], dtype=np.int64).reshape(k, n)
    return linalg.matmul(left, right, p)


@pytest.mark.parametrize("p", (2, 7, 10009, 42949657))
def test_nullspace_scatter_matches_the_double_loop(p):
    rng = random.Random(p)
    sizes = (0, 1, 2, 3, 7, 16, 33, 60)
    ranks = set()
    for m in sizes:
        for n in sizes:
            for k in sorted({0, 1, min(m, n) // 2, min(m, n)}):
                a = matrices_of_rank(rng, m, n, min(k, m, n), p)
                got, want = linalg.nullspace(a, p), nullspace_by_loops(a, p)
                assert got.dtype == want.dtype and np.array_equal(got, want), (m, n, k)
                assert not linalg.matmul(a, got.T, p).any()
                ranks.add(n - got.shape[0])
    # ranks 0, 1, half and full on each shape; over F_2 a product of
    # random factors often falls a little short of its bound
    assert {0, 1, 2, 3, 7, 8, 16, 30, 33} <= ranks and max(ranks) >= 59


def test_det_matches_sympy_up_to_40():
    rng = random.Random(59)
    zero_lead = 0
    for p in (2, 7, 10009, 42949657):
        for n in (1, 2, 4, 9, 17, 25, 40):
            for case in ("random", "zero lead", "singular"):
                a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
                if case == "zero lead":
                    a[0, 0] = 0  # the first pivot comes from a swap
                    zero_lead += n > 1 and a[1:, 0].any()
                elif case == "singular" and n > 1:
                    a[:, n - 1] = a[:, 0] * rng.randrange(p) % p
                want = int(gf(a, p).det()) % p
                assert linalg.det(a, p) == want, (p, n, case)
                if case == "singular" and n > 1:
                    assert want == 0
    assert zero_lead >= 20


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
                matrix_inverse(a, p)
            continue
        want = np.array(m.inv_mod(p).tolist(), dtype=np.int64) % p
        assert np.array_equal(matrix_inverse(a, p), want)
        inverted += 1
    assert inverted >= 30
    with pytest.raises(SingularMatrix):
        matrix_inverse(np.array([[1, 2], [3, 6]], dtype=np.int64), 7)


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
