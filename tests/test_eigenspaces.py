"""Eigenspace splitting over F_p: characteristic polynomial, roots, null spaces."""

from __future__ import annotations

import random

import numpy as np
import pytest
import sympy

import isotypic as iso
from isotypic import linalg
from isotypic.arith import Poly, poly_roots
from isotypic.errors import SingularMatrix, SplitFailure


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


def similar_diagonal(diag, p, rng):
    """P D P^-1 for a seeded random invertible P."""
    n = len(diag)
    q = random_invertible(n, p, rng)
    d = np.diag(np.array(diag, dtype=np.int64))
    return q @ d % p @ linalg.inverse(q, p) % p


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


def test_composite_modulus_raises():
    # splitting needs a field; a composite modulus must fail, not spin
    with pytest.raises(SplitFailure):
        poly_roots(Poly(25, (1, 0, 1)))
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
