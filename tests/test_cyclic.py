"""Explicit cyclic covers: weights, phi matrix, divisors, normal bases."""

from __future__ import annotations

import pytest
import sympy

import isotypic as iso
from isotypic.arith import Poly
from isotypic.cyclic import phi_matrix
from isotypic.polymat import as_unit_times_power


def berkowitz_det(matrix):
    """Independent determinant oracle: sympy's division-free Berkowitz
    determinant over ZZ[y], reduced mod p afterwards."""
    p = matrix[0][0].p
    y = sympy.symbols("y")
    lifted = sympy.Matrix(
        [[sum(c * y**k for k, c in enumerate(e.coeffs)) for e in row] for row in matrix]
    )
    det = sympy.Poly(lifted.det(method="berkowitz"), y)
    return Poly(p, reversed(det.all_coeffs()))


def test_build_cyclic_examples():
    m2 = iso.build_cyclic(2)
    assert (m2.p, m2.zeta) == (3, 2)
    m3 = iso.build_cyclic(3)
    assert (m3.p, m3.zeta) == (7, 2)
    m1 = iso.build_cyclic(1)
    assert m1.n == 1 and iso.phi_det(m1) == Poly.const(m1.p, 1)
    with pytest.raises(ValueError):
        iso.build_cyclic(0)
    with pytest.raises(ValueError):
        iso.build_cyclic(2, "projective")


def test_zeta_order():
    for n in (2, 3, 4, 6, 5):
        m = iso.build_cyclic(n)
        assert pow(m.zeta, n, m.p) == 1
        assert all(pow(m.zeta, k, m.p) != 1 for k in range(1, n))


def test_decompose_pushforward_weights():
    m2 = iso.build_cyclic(2)
    assert iso.decompose_pushforward(m2) == [0, 1]
    assert m2.weight(0) == 1 and m2.weight(1) == m2.p - 1
    m1 = iso.build_cyclic(1)
    assert iso.decompose_pushforward(m1) == [0]
    m3 = iso.build_cyclic(3)
    powers = iso.decompose_pushforward(m3)
    gen_class = m3.classes.class_of[1]
    for k, j in enumerate(powers):
        assert m3.table.values[k][gen_class] == m3.weight(j)


def test_components_exhaust_low_degrees():
    # x^m has weight zeta^m; the component split by residue mod n covers
    # every x-degree <= 4n with pairwise distinct characters
    for n in (2, 3, 4):
        m = iso.build_cyclic(n)
        powers = iso.decompose_pushforward(m)
        assert sorted(powers) == list(range(n))
        for deg in range(4 * n + 1):
            weight = m.weight(deg)
            k = powers.index(deg % n)
            gen_class = m.classes.class_of[1] if n > 1 else 0
            assert m.table.values[k][gen_class] == weight


def test_intermediate_fixed_ring():
    m4 = iso.build_cyclic(4)
    assert iso.intermediate_fixed_ring(m4, 2) == (0, 2)
    assert iso.intermediate_fixed_ring(m4, 4) == (0, 1, 2, 3)  # trivial subgroup
    assert iso.intermediate_fixed_ring(m4, 1) == (0,)  # full group
    m6 = iso.build_cyclic(6)
    assert iso.intermediate_fixed_ring(m6, 3) == (0, 2, 4)
    with pytest.raises(ValueError):
        iso.intermediate_fixed_ring(m6, 4)


def test_phi_matrix_n2_frozen():
    m = iso.build_cyclic(2)
    entries = phi_matrix(m).entries
    p = m.p
    one, y = Poly.const(p, 1), Poly.x(p)
    minus = Poly.const(p, p - 1)
    # columns: 1(x)1, 1(x)x, x(x)1, x(x)x; rows: (e,1), (e,x), (g,1), (g,x)
    expected = [
        [one, Poly(p), Poly(p), y],
        [Poly(p), one, one, Poly(p)],
        [one, Poly(p), Poly(p), minus * y],
        [Poly(p), minus, one, Poly(p)],
    ]
    assert entries == expected


def test_phi_det_matches_berkowitz_oracle():
    for n in (2, 3):
        m = iso.build_cyclic(n)
        assert iso.phi_det(m) == berkowitz_det(phi_matrix(m).entries)


def test_phi_det_n2_value():
    # hand expansion gives det = +-4y; the sign depends only on row order
    m = iso.build_cyclic(2)
    det = iso.phi_det(m)
    unit, k = as_unit_times_power(det)
    assert k == 1
    assert unit % m.p in (4 % m.p, (-4) % m.p)


def test_phi_det_contract():
    for n in (2, 3, 4, 6):
        m_poly = iso.build_cyclic(n, "polynomial")
        det = iso.phi_det(m_poly)
        mono = as_unit_times_power(det)
        assert mono is not None
        unit, k = mono
        assert unit != 0 and k >= 1
        # the y-power counts basis products x^i x^j overflowing x^n
        assert k == n * (n - 1) // 2
        # the Laurent model shares the matrix; y is invertible there
        m_laurent = iso.build_cyclic(n, "laurent")
        assert iso.phi_det(m_laurent) == det


def test_phi_elementary_divisors():
    for n in (2, 3, 4, 6):
        m = iso.build_cyclic(n)
        divisors = iso.phi_elementary_divisors(m)
        assert len(divisors) == n * n  # full rank: phi is injective
        total = 0
        for d in divisors:
            mono = as_unit_times_power(d)
            assert mono is not None and mono[0] == 1  # monic power of y
            total += mono[1]
        assert total == n * (n - 1) // 2


def test_phi_equivariance():
    for n in (1, 2, 3, 4):
        assert iso.phi_equivariance_check(iso.build_cyclic(n))


def test_normal_basis_witnesses():
    m2 = iso.build_cyclic(2)
    w2 = iso.normal_basis_element(m2)
    assert [list(c.coeffs) for c in w2.coeffs] == [[1], [1]]  # 1 + x
    assert w2.determinant == Poly.const(3, 1)  # det [[1,1],[1,-1]] = -2 = 1 mod 3
    m1 = iso.build_cyclic(1)
    assert [list(c.coeffs) for c in iso.normal_basis_element(m1).coeffs] == [[1]]
    m3 = iso.build_cyclic(3)
    w3 = iso.normal_basis_element(m3)
    assert [list(c.coeffs) for c in w3.coeffs] == [[1], [1], [1]]  # 1 + x + x^2
    assert not w3.determinant.is_zero()
    for n in (4, 6):
        w = iso.normal_basis_element(iso.build_cyclic(n))
        assert not w.determinant.is_zero()


def test_normal_basis_translate_determinant_is_vandermonde():
    # for constant all-ones coefficients the translate matrix is the
    # vandermonde matrix in the powers of zeta
    m = iso.build_cyclic(4)
    w = iso.normal_basis_element(m)
    prod = 1
    pts = [pow(m.zeta, i, m.p) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            prod = prod * (pts[j] - pts[i]) % m.p
    unit, _ = as_unit_times_power(w.determinant)
    assert unit % m.p == prod % m.p or (-unit) % m.p == prod % m.p


def test_phi_entry_degree_bound():
    for n in (2, 3, 4, 6):
        for row in phi_matrix(iso.build_cyclic(n)).entries:
            for e in row:
                assert e.degree <= 1
