"""Eigenspace splitting over F_p: characteristic polynomial, roots, null spaces."""

from __future__ import annotations

import random

import numpy as np
import pytest
import sympy

import isotypic as iso
from isotypic import linalg
from isotypic.arith import MAX_MODULUS, Poly, is_prime, poly_roots
from isotypic.errors import ModulusTooLarge, SingularMatrix, SplitFailure

from conftest import matrix_inverse


def scan_eigenspaces(a, p):
    """Oracle: try every lam in F_p and keep the nonzero null spaces."""
    n = a.shape[0]
    spaces = [linalg.nullspace((a - lam * np.eye(n, dtype=np.int64)) % p, p) for lam in range(p)]
    return [s for s in spaces if s.shape[0]]


def random_invertible(n, p, rng):
    while True:
        m = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if linalg.rank(m, p) == n:
            return m


def conjugate(q, block, p):
    """q block q^-1, and the coordinates q^-1 e_0 of e_0 in the basis of q's columns."""
    q_inv = matrix_inverse(q, p)
    return linalg.matmul(linalg.matmul(q, block, p), q_inv, p), q_inv[:, 0]


def similar_diagonal(diag, p, rng):
    """P D P^-1 for a seeded random invertible P."""
    q = random_invertible(len(diag), p, rng)
    return conjugate(q, np.diag(np.array(diag, dtype=np.int64)), p)[0]


def assert_same_spaces(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


DIAGONAL_CASES = [
    (7, [3]),  # 1 x 1
    (7, [0]),  # 1 x 1, zero eigenvalue
    (7, [4, 4, 4]),  # scalar
    (7, [3, 3, 0, 5]),  # repeated and zero
    (13, [1, 1, 2, 2, 12]),
    (13, [0, 0, 0, 9, 9, 1]),
    (2, [0, 1, 1]),
    (3, [2, 2, 0, 1]),
    (101, [100, 5, 5, 0, 42]),
]


@pytest.mark.parametrize("p, diag", DIAGONAL_CASES)
def test_eigenspaces_match_scan_on_diagonalizable(p, diag):
    rng = random.Random(len(diag) * 1000 + p)
    a = similar_diagonal(diag, p, rng)
    got = linalg.eigenspaces(a, p)
    assert_same_spaces(got, scan_eigenspaces(a, p))
    assert [s.shape[0] for s in got] == [diag.count(lam) for lam in sorted(set(diag))]


@pytest.mark.parametrize("complete", [True, False])
@pytest.mark.parametrize("p, diag", DIAGONAL_CASES)
def test_split_of_the_whole_space_is_eigenspaces(p, diag, complete):
    rng = random.Random(len(diag) * 1000 + p)
    a = similar_diagonal(diag, p, rng)
    got = linalg.split(linalg.identity(len(diag)), a, p, complete)
    assert_same_spaces(got, linalg.eigenspaces(a, p, complete))


def test_split_of_an_invariant_subspace():
    # the sum of two eigenspaces, in a random basis, splits back into them
    rng = random.Random(17)
    p, diag = 13, [1, 1, 2, 2, 12]
    a = similar_diagonal(diag, p, rng)
    spaces = linalg.eigenspaces(a, p)
    span = np.concatenate([spaces[0], spaces[2]])
    basis = random_invertible(3, p, rng) @ span % p
    got = linalg.split(basis, a, p, True)
    assert [linalg.row_space(s, p).tolist() for s in got] == [
        linalg.row_space(s, p).tolist() for s in (spaces[0], spaces[2])
    ]


def test_split_rejects_a_non_invariant_basis():
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)  # e0 <-> e1
    for complete in (True, False):
        with pytest.raises(SingularMatrix):
            linalg.split(np.array([[1, 0]], dtype=np.int64), swap, 7, complete)


def test_eigenspaces_match_scan_seeded():
    rng = random.Random(20260)
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7, 11, 13, 31))
        n = rng.randint(1, 7)
        diag = [rng.randrange(p) for _ in range(n)]
        a = similar_diagonal(diag, p, rng)
        assert_same_spaces(linalg.eigenspaces(a, p), scan_eigenspaces(a, p))


def test_incomplete_eigenspaces_match_scan():
    # random matrices are rarely diagonalizable; without `complete` every
    # eigenspace that exists is still returned, as the scan finds it
    rng = random.Random(5)
    for _ in range(60):
        p = rng.choice((3, 5, 7, 13))
        n = rng.randint(1, 6)
        a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        assert_same_spaces(linalg.eigenspaces(a, p, complete=False), scan_eigenspaces(a, p))


def test_jordan_block_raises():
    jordan = np.array([[2, 1], [0, 2]], dtype=np.int64)
    with pytest.raises(SplitFailure):
        linalg.eigenspaces(jordan, 7)
    assert_same_spaces(linalg.eigenspaces(jordan, 7, complete=False), scan_eigenspaces(jordan, 7))
    rotation = np.array([[0, 6], [1, 0]], dtype=np.int64)  # x^2 + 1 has no root mod 7
    with pytest.raises(SplitFailure):
        linalg.eigenspaces(rotation, 7)
    assert linalg.eigenspaces(rotation, 7, complete=False) == []



# -- eigenvectors of simple roots from one Krylov product -----------------------


def root_oracle(a, p, roots):
    """Oracle: one `nullspace(a - lam I)` per root."""
    n = a.shape[0]
    return [linalg.nullspace((a - lam * np.eye(n, dtype=np.int64)) % p, p) for lam in roots]


def count_nullspace(monkeypatch):
    """Record the argument of every `linalg.nullspace` call."""
    seen = []
    nullspace = linalg.nullspace

    def spy(m, p):
        seen.append(m.copy())
        return nullspace(m, p)

    monkeypatch.setattr(linalg, "nullspace", spy)
    return seen


@pytest.mark.parametrize("p", [101, 10009, 42949657])
@pytest.mark.parametrize("n", [20, 60])
def test_distinct_spectrum_matches_root_oracle(monkeypatch, p, n):
    # 42949657 takes the int64 path of `matmul`
    rng = random.Random(n * p)
    diag = rng.sample(range(p), n)
    a, e0 = conjugate(random_invertible(n, p, rng), np.diag(np.array(diag, dtype=np.int64)), p)
    want = root_oracle(a, p, sorted(diag))
    seen = count_nullspace(monkeypatch)
    assert_same_spaces(linalg.eigenspaces(a, p), want)
    # only a line that e_0 has no component on takes `nullspace`
    assert len(seen) == np.count_nonzero(e0 == 0)


def test_eigenline_of_e0_leaves_every_other_root_to_nullspace(monkeypatch):
    # a = [0] + b: e_0 spans the 0-line, so K q_lam = q_lam(0) e_0 = 0 for lam != 0
    p, rng = 10009, random.Random(8)
    diag = rng.sample(range(1, p), 12)
    a = np.zeros((13, 13), dtype=np.int64)
    a[1:, 1:] = similar_diagonal(diag, p, rng)
    want = root_oracle(a, p, sorted(diag + [0]))
    seen = count_nullspace(monkeypatch)
    assert_same_spaces(linalg.eigenspaces(a, p), want)
    assert len(seen) == 12
    assert np.array_equal(want[0], [[1] + [0] * 12])


def test_simple_and_repeated_roots_on_a_non_diagonalizable_matrix(monkeypatch):
    # a Jordan block J_2(3), and 3, 5, 7, 7, 9 on the diagonal
    p, rng = 13, random.Random(21)
    block = np.diag(np.array([3, 3, 3, 5, 7, 7, 9], dtype=np.int64))
    block[0, 1] = 1
    a, e0 = conjugate(random_invertible(7, p, rng), block, p)
    with pytest.raises(SplitFailure, match="not diagonalizable"):
        linalg.eigenspaces(a, p)
    want = root_oracle(a, p, [3, 5, 7, 9])
    assert_same_spaces(want, scan_eigenspaces(a, p))
    seen = count_nullspace(monkeypatch)
    got = linalg.eigenspaces(a, p, complete=False)
    assert_same_spaces(got, want)
    assert [s.shape[0] for s in got] == [2, 1, 2, 1]
    # the repeated roots 3 and 7, and a simple root only where e_0 misses its line
    assert len(seen) == 2 + np.count_nonzero(e0[[3, 6]] == 0)


def test_roots_that_are_not_eigenvalues_raise(monkeypatch):
    p, rng = 13, random.Random(2)
    a = similar_diagonal([1, 2, 3, 4], p, rng)
    wrong = Poly.const(p, 1)
    for mu in (5, 6, 7, 8):
        wrong = wrong * Poly(p, (-mu, 1))
    monkeypatch.setattr(linalg, "charpoly", lambda a, p: list(wrong.coeffs))
    for complete in (True, False):
        with pytest.raises(SplitFailure, match="^5 is a root of the characteristic polynomial but not an"):
            linalg.eigenspaces(a, p, complete)


def test_d100_table_takes_nullspace_for_its_two_repeated_roots(monkeypatch):
    # the rotation class sum has 51 roots on the 53 classes; only +-2, on the
    # four linear characters, are repeated
    group = iso.group_from_name("D100")
    classes = iso.conjugacy_classes(group)
    p = iso.choose_prime(group)
    a1 = iso.class_matrix(group, classes, 1) % p
    seen = count_nullspace(monkeypatch)
    iso.character_table(group, classes, p)
    assert len(seen) == 2
    for lam, m in zip((2, p - 2), seen):
        assert np.array_equal((a1 - m) % p, lam * np.eye(53, dtype=np.int64))


def test_charpoly_matches_sympy():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice((2, 3, 7, 13, 10009))
        n = rng.randint(1, 8)
        a = np.array(
            [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)],
            dtype=np.int64,
        )
        want = [int(c) % p for c in reversed(sympy.Matrix(a.tolist()).charpoly().all_coeffs())]
        assert linalg.charpoly(a, p) == want


def sympy_roots(coeffs, p):
    """Distinct roots of the polynomial in F_p, mapped from sympy's symmetric residues."""
    x = sympy.symbols("x")
    poly = sympy.Poly(list(reversed(coeffs)), x, modulus=p)
    return sorted(int(r) % p for r in poly.ground_roots())


def test_poly_roots_match_sympy():
    rng = random.Random(3)
    for _ in range(80):
        p = rng.choice((3, 5, 7, 13, 101, 10009, 1000033))
        # a product of random linear factors and a random cofactor
        f = Poly.const(p, rng.randrange(1, p))
        for _ in range(rng.randint(0, 5)):
            f = f * Poly(p, (rng.randrange(p), 1))
        f = f * Poly(p, [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [1])
        assert poly_roots(f) == sympy_roots(f.coeffs, p)


def test_poly_roots_small_fields():
    assert poly_roots(Poly(2, (0, 1, 1))) == [0, 1]
    assert poly_roots(Poly(2, (1, 1, 1))) == []
    assert poly_roots(Poly(3, (0, 2, 0, 1))) == [0, 1, 2]  # x^3 - x
    assert poly_roots(Poly(7, (1,))) == []


LARGEST_PRIME = next(q for q in range(MAX_MODULUS - 1, 0, -1) if is_prime(q))


def irreducible_cofactor(p, rng):
    """A random monic irreducible polynomial of degree 2 to 4, by sympy."""
    x = sympy.symbols("x")
    while True:
        coeffs = [rng.randrange(p) for _ in range(rng.randint(2, 4))] + [1]
        if sympy.Poly(list(reversed(coeffs)), x, modulus=p).is_irreducible:
            return Poly(p, coeffs)


@pytest.mark.parametrize("p", [3, 5, 7, 101, 10009, LARGEST_PRIME])
def test_poly_roots_of_linear_factors_with_repeats_times_an_irreducible(p):
    # the roots are those of the linear factors, by construction; sympy
    # certifies the cofactor irreducible, and finds the roots itself where
    # its factorization is fast
    assert LARGEST_PRIME == 42949657
    rng = random.Random(p)
    for degree in (2, 9, 40, 256):
        pool = [rng.randrange(p) for _ in range(max(1, degree // 3))]
        linear = [rng.choice(pool) for _ in range(degree)]
        f = irreducible_cofactor(p, rng)
        for r in linear:
            f = f * Poly(p, (-r, 1))
        got = poly_roots(f.scale(rng.randrange(1, p)))
        assert got == sorted(set(linear))
        if degree <= 40:
            assert got == sympy_roots(f.coeffs, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_poly_roots_of_x_to_the_p_minus_x(p):
    # every element is a root, so every draw a hits the root -a
    f = Poly.monomial(p, 1, p) - Poly.monomial(p, 1, 1)
    assert poly_roots(f) == list(range(p))
    assert poly_roots(f * irreducible_cofactor(p, random.Random(p))) == list(range(p))


@pytest.mark.parametrize("name", ["D100", "D250"])
def test_poly_roots_of_class_matrix_characteristic_polynomials(name):
    group = iso.group_from_name(name)
    classes = iso.conjugacy_classes(group)
    p = iso.choose_prime(group)
    for c in (1, classes.num_classes - 1):
        f = linalg.charpoly(iso.class_matrix(group, classes, c) % p, p)
        assert poly_roots(Poly(p, f)) == sympy_roots(f, p)


def test_poly_roots_refuses_a_modulus_that_overflows_int64():
    # a length-n sum of products below (p-1)^2 must stay below 2^63
    with pytest.raises(ModulusTooLarge):
        poly_roots(Poly(2**31 - 1, (1, 0, 1)))
    n = next(n for n in range(4990, 5010) if n * (LARGEST_PRIME - 1) ** 2 >= 2**63)
    with pytest.raises(ModulusTooLarge):
        poly_roots(Poly.monomial(LARGEST_PRIME, 1, n - 1) + Poly.const(LARGEST_PRIME, 1))
    assert poly_roots(Poly(LARGEST_PRIME, (-4, 0, 1))) == [2, LARGEST_PRIME - 2]


def test_composite_modulus_raises():
    # splitting needs a field; a composite modulus must fail, not spin
    for q in (25, 9, 15, 1001, 3 * 10009):
        with pytest.raises(SplitFailure):
            poly_roots(Poly(q, (1, 0, 1)))
        with pytest.raises(SplitFailure):
            poly_roots(Poly(q, (-1, 0, 1)))
    group = iso.group_from_name("S3")
    with pytest.raises(SplitFailure):
        iso.character_table(group, iso.conjugacy_classes(group), 1001)


def test_det_matches_sympy():
    rng = random.Random(23)
    # 42949657 is the largest prime below MAX_MODULUS: p^2 fits in int64, p^3 does not
    for p in (2, 7, 181, 10009, 42949657):
        for n in (0, 1, 2, 3, 5, 8):
            for singular in (False, True):
                m = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
                if singular and n >= 2:
                    m[n - 1] = (m[0] * rng.randrange(p)) % p  # a dependent row
                want = int(sympy.Matrix(m.tolist()).det()) % p if n else 1
                assert linalg.det(m, p) == want
