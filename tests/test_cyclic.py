"""Explicit cyclic covers: weights, phi matrix, divisors, normal bases."""

from __future__ import annotations

import pytest
import sympy

import isotypic as iso
from isotypic.arith import Poly
from isotypic.cli import cyclic_report
from isotypic.cyclic import PhiMatrix, phi_matrix
from isotypic.errors import SingularMatrix
from isotypic.polymat import as_unit_times_power, factored_det, factored_invariant_factors
from polymat_oracle import bareiss_det, mat_equal, matmul, smith_normal_form


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


def oracle_equivariance(model, entries):
    """phi S = T phi as products of matrices over F_p[y]."""
    n, p = model.n, model.p
    size = n * n

    def diag(scale_of_col):
        return [
            [Poly.const(p, scale_of_col(c)) if r == c else Poly(p) for c in range(size)]
            for r in range(size)
        ]

    s_right = diag(lambda c: model.weight(c % n))
    s_left = diag(lambda c: model.weight(c // n))
    t_translate = [[Poly(p) for _ in range(size)] for _ in range(size)]
    t_twist = [[Poly(p) for _ in range(size)] for _ in range(size)]
    for u in range(n):
        for v in range(n):
            col = u * n + v
            t_translate[((u + 1) % n) * n + v][col] = Poly.const(p, 1)
            t_twist[((u - 1) % n) * n + v][col] = Poly.const(p, model.weight(v))
    return mat_equal(matmul(entries, s_right), matmul(t_translate, entries)) and mat_equal(
        matmul(entries, s_left), matmul(t_twist, entries)
    )


@pytest.mark.parametrize("variant", iso.cyclic.VARIANTS)
@pytest.mark.parametrize("n", range(1, 9))
def test_factored_phi_matches_elimination_oracle(n, variant):
    # determinant, invariant factors, equivariance and the normal-basis
    # certificate against elimination over F_p[y] on the Poly entries
    model = iso.build_cyclic(n, variant)
    p = model.p
    phi = phi_matrix(model)
    entries = phi.entries
    det = iso.phi_det(model, phi)
    assert det == bareiss_det(entries)
    divisors = iso.phi_elementary_divisors(model, phi, det)
    assert divisors == [Poly.const(p, 1)] * (n * (n + 1) // 2) + [Poly.x(p)] * (n * (n - 1) // 2)
    if n <= 6:
        assert divisors == smith_normal_form(entries)
    assert iso.phi_equivariance_check(model, phi)
    assert oracle_equivariance(model, entries)
    witness = iso.normal_basis_element(model)
    translates = [
        [c * Poly.const(p, pow(model.zeta, i * j, p)) for j in range(n)]
        for i, c in enumerate(witness.coeffs)
    ]
    assert witness.determinant == bareiss_det(translates)


@pytest.mark.parametrize("corruption", ("entry", "swap"))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_equivariance_check_rejects_a_corrupted_phi(n, corruption):
    model = iso.build_cyclic(n)
    phi = phi_matrix(model)
    const = phi.const.copy()
    if corruption == "entry":
        const[0, 0] = (const[0, 0] + 1) % model.p
    else:
        # swapping the columns of 1 (x) 1 and x (x) 1 keeps 1 (x) h
        # equivariance (both have weight 1 there) and breaks h (x) 1
        const[:, [0, n]] = const[:, [n, 0]]
    bad = PhiMatrix(n, model.p, const, phi.powers)
    assert not oracle_equivariance(model, bad.entries)
    assert not iso.phi_equivariance_check(model, bad)


def singular_phi(model):
    # column 0 repeated in column 1: C is singular, e is unchanged
    phi = phi_matrix(model)
    const = phi.const.copy()
    const[:, 1] = const[:, 0]
    return PhiMatrix(model.n, model.p, const, phi.powers)


def test_singular_const_has_no_invariant_factors():
    model = iso.build_cyclic(3)
    phi = singular_phi(model)
    det = factored_det(phi.const, phi.powers, model.p)
    assert det.is_zero() and bareiss_det(phi.entries).is_zero()
    # the ones-and-y pattern would be wrong: the true Smith form has rank < 9
    assert len(smith_normal_form(phi.entries)) < 9
    with pytest.raises(SingularMatrix):
        factored_invariant_factors(det, phi.powers)
    with pytest.raises(SingularMatrix):
        iso.phi_elementary_divisors(model, phi)


@pytest.mark.parametrize("variant", iso.cyclic.VARIANTS)
def test_cyclic_report_fails_on_singular_const(monkeypatch, variant):
    model = iso.build_cyclic(3, variant)
    monkeypatch.setattr(iso.cyclic, "phi_matrix", singular_phi)
    doc = cyclic_report(model)
    by_check = {o["check"]: o for o in doc["outcomes"]}
    assert doc["pass"] is False
    assert by_check["cyclic.phi_det"]["pass"] is False
    assert by_check["cyclic.phi_det"]["witness"] == {"det": []}
    divisors = by_check["cyclic.elementary_divisors"]
    assert divisors["pass"] is False
    assert divisors["witness"]["error"] == "SingularMatrix" and divisors["witness"]["det"] == []
    assert doc["elementary_divisors"] is None
