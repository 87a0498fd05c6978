"""Explicit cyclic covers: weights, phi matrix, divisors, normal bases."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest
import sympy

import isotypic as iso
from isotypic import linalg
from isotypic.arith import Poly
from isotypic.cyclic import PhiMatrix, cyclic_report, phi_matrix
from isotypic.errors import SingularMatrix
from isotypic.polymat import as_unit_times_power, factored_invariant_factors
from polymat_oracle import bareiss_det, mat_equal, matmul, poly_grid, smith_normal_form


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
    assert m1.n == 1 and iso.phi_det(phi_matrix(m1)) == Poly.const(m1.p, 1)
    with pytest.raises(ValueError):
        iso.build_cyclic(0)
    with pytest.raises(ValueError):
        iso.build_cyclic(2, "projective")
    with pytest.raises(ValueError, match="variant must be one of"):
        iso.CyclicCoverModel("projective", m2.table)


def _table(group):
    return iso.character_table(group, iso.conjugacy_classes(group), iso.choose_prime(group))


def test_cyclic_model_needs_a_cyclic_group_generated_by_element_1():
    s3 = iso.group_from_name("S3")
    with pytest.raises(ValueError, match="table of S3 is not that of a cyclic group"):
        iso.CyclicCoverModel("polynomial", iso.character_table(s3, iso.conjugacy_classes(s3), 7))
    # C6 again, but element 1 is the first generator, of order 3
    c6_by_parts = iso.group_from_text("(0 2 4)(1 3 5)\n(0 3)(1 4)(2 5)")
    assert c6_by_parts.order == 6 and c6_by_parts.element_order(1) == 3
    with pytest.raises(ValueError, match="generated by element 1"):
        iso.CyclicCoverModel("laurent", _table(c6_by_parts))
    # a C6 that was not built by name reports as the builtin one
    c6 = iso.group_from_text("(0 1 2 3 4 5)")
    for variant in ("polynomial", "laurent"):
        report = cyclic_report(iso.CyclicCoverModel(variant, _table(c6)))
        assert report.passed
        assert report.to_dict() == cyclic_report(iso.build_cyclic(6, variant)).to_dict()


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


def test_phi_matrix_n2_frozen():
    m = iso.build_cyclic(2)
    entries = poly_grid(phi_matrix(m))
    p = m.p
    one, y = Poly.const(p, 1), Poly.monomial(p, 1, 1)
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
        phi = phi_matrix(iso.build_cyclic(n))
        assert iso.phi_det(phi) == berkowitz_det(poly_grid(phi))


@pytest.mark.parametrize("variant", iso.cyclic.VARIANTS)
def test_phi_det_blocks_match_the_whole_determinant(variant):
    for n in range(2, 13):
        model = iso.build_cyclic(n, variant)
        phi = phi_matrix(model)
        assert iso.cyclic.off_block_entry(phi) is None
        whole = Poly.monomial(model.p, linalg.det(phi.const, model.p), int(phi.powers.sum()))
        assert iso.phi_det(phi) == whole, n


def test_phi_det_n2_value():
    # hand expansion gives det = +-4y; the sign depends only on row order
    m = iso.build_cyclic(2)
    det = iso.phi_det(phi_matrix(m))
    unit, k = as_unit_times_power(det)
    assert k == 1
    assert unit % m.p in (4 % m.p, (-4) % m.p)


def test_phi_det_contract():
    for n in (2, 3, 4, 6):
        m_poly = iso.build_cyclic(n, "polynomial")
        det = iso.phi_det(phi_matrix(m_poly))
        mono = as_unit_times_power(det)
        assert mono is not None
        unit, k = mono
        assert unit != 0 and k >= 1
        # the y-power counts basis products x^i x^j overflowing x^n
        assert k == n * (n - 1) // 2
        # the Laurent model shares the matrix; y is invertible there
        m_laurent = iso.build_cyclic(n, "laurent")
        assert iso.phi_det(phi_matrix(m_laurent)) == det


def test_phi_elementary_divisors():
    for n in (2, 3, 4, 6):
        phi = phi_matrix(iso.build_cyclic(n))
        divisors = factored_invariant_factors(iso.phi_det(phi), phi.powers)
        assert len(divisors) == n * n  # full rank: phi is injective
        total = 0
        for d in divisors:
            mono = as_unit_times_power(d)
            assert mono is not None and mono[0] == 1  # monic power of y
            total += mono[1]
        assert total == n * (n - 1) // 2


def test_phi_equivariance():
    for n in (1, 2, 3, 4):
        model = iso.build_cyclic(n)
        assert iso.phi_equivariance_check(model, phi_matrix(model)) is None


def test_normal_basis_witnesses():
    m2 = iso.build_cyclic(2)
    assert cyclic_report(m2).data["normal_basis"]["coeffs"] == [[1], [1]]  # 1 + x
    assert iso.normal_basis_certificate(m2) == Poly.const(3, 1)  # det [[1,1],[1,-1]] = -2 = 1 mod 3
    m1 = iso.build_cyclic(1)
    assert cyclic_report(m1).data["normal_basis"]["coeffs"] == [[1]]
    m3 = iso.build_cyclic(3)
    assert cyclic_report(m3).data["normal_basis"]["coeffs"] == [[1], [1], [1]]  # 1 + x + x^2
    assert not iso.normal_basis_certificate(m3).is_zero()
    for n in (4, 6):
        assert not iso.normal_basis_certificate(iso.build_cyclic(n)).is_zero()


def test_normal_basis_translate_determinant_is_vandermonde():
    # for constant all-ones coefficients the translate matrix is the
    # vandermonde matrix in the powers of zeta
    m = iso.build_cyclic(4)
    prod = 1
    pts = [pow(m.zeta, i, m.p) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            prod = prod * (pts[j] - pts[i]) % m.p
    unit, _ = as_unit_times_power(iso.normal_basis_certificate(m))
    assert unit % m.p == prod % m.p or (-unit) % m.p == prod % m.p


@pytest.mark.parametrize("n", (2, 3, 4, 6))
def test_translate_determinant_is_coefficient_product_times_vandermonde(n):
    # det(diag(c)·[zeta^(ij)]) = prod(c_i)·det[zeta^(ij)] against the
    # Bareiss oracle, for seeded coefficients with and without zeros
    model = iso.build_cyclic(n)
    p = model.p
    vandermonde = iso.normal_basis_certificate(model)
    rng = random.Random(n)
    for trial in range(8):
        c = [rng.randrange(1, p) for _ in range(n)]
        if trial % 2:
            c[rng.randrange(n)] = 0
        translates = [
            [Poly.const(p, c[i] * pow(model.zeta, i * j, p)) for j in range(n)] for i in range(n)
        ]
        assert bareiss_det(translates) == Poly.const(p, math.prod(c)) * vandermonde


def test_normal_basis_certificate_vanishes_for_a_short_zeta(monkeypatch):
    # zeta^2 has order 2 < 4: the translates of every element are dependent,
    # the certificate is returned as 0 and the report's outcome fails on it
    model = iso.build_cyclic(4)
    short = replace(model)
    short.zeta = pow(model.zeta, 2, model.p)
    certificate = iso.normal_basis_certificate(short)
    assert certificate.is_zero()
    monkeypatch.setattr(iso.cyclic, "normal_basis_certificate", lambda m: certificate)
    doc = cyclic_report(model).to_dict()
    by_check = {o["check"]: o for o in doc["outcomes"]}
    assert doc["normal_basis"] == {"coeffs": [[1]] * 4, "determinant": []}
    assert doc["pass"] is False
    assert by_check["cyclic.normal_basis"]["pass"] is False
    assert by_check["cyclic.normal_basis"]["witness"] == {"determinant": []}
    assert all(o["pass"] for o in doc["outcomes"] if o["check"] != "cyclic.normal_basis")


def test_phi_entry_degree_bound():
    for n in (2, 3, 4, 6):
        for row in poly_grid(phi_matrix(iso.build_cyclic(n))):
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
    entries = poly_grid(phi)
    det = iso.phi_det(phi)
    assert det == bareiss_det(entries)
    divisors = factored_invariant_factors(det, phi.powers)
    assert divisors == [Poly.const(p, 1)] * (n * (n + 1) // 2) + [Poly.monomial(p, 1, 1)] * (n * (n - 1) // 2)
    if n <= 6:
        assert divisors == smith_normal_form(entries)
    assert iso.phi_equivariance_check(model, phi) is None
    assert oracle_equivariance(model, entries)
    translates = [
        [Poly(p, c) * Poly.const(p, pow(model.zeta, i * j, p)) for j in range(n)]
        for i, c in enumerate(cyclic_report(model).data["normal_basis"]["coeffs"])
    ]
    assert iso.normal_basis_certificate(model) == bareiss_det(translates)


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
    assert not oracle_equivariance(model, poly_grid(bad))
    witness = iso.phi_equivariance_check(model, bad)
    assert witness == dense_equivariance_witness(model, const)
    if corruption == "swap":
        assert witness["action"] == "twisted"


def dense_equivariance_witness(model, const):
    """The first entry, translation action first, where C S and T C differ,
    with S and T built as dense n^2 x n^2 matrices over F_p and multiplied
    by `linalg.matmul`; None when both agree."""
    n, p = model.n, model.p
    size = n * n
    weights = np.array([model.weight(k) for k in range(n)], dtype=np.int64)
    cols = np.arange(size)
    u, v = np.divmod(cols, n)
    t_translate = np.zeros((size, size), dtype=np.int64)
    t_translate[(u + 1) % n * n + v, cols] = 1
    t_twist = np.zeros((size, size), dtype=np.int64)
    t_twist[(u - 1) % n * n + v, cols] = weights[v]
    for action, s, t in (("translation", weights[v], t_translate), ("twisted", weights[u], t_twist)):
        differ = np.argwhere(linalg.matmul(const, np.diag(s), p) != linalg.matmul(t, const, p))
        if differ.size:
            return {"action": action, "row": int(differ[0, 0]), "column": int(differ[0, 1])}
    return None


def corruptions(const, p, rng):
    """Seeded edits of C: one entry, a column swap, a row swap, a column
    scaled, a row slot rolled, C scaled, and a random matrix."""
    size = const.shape[0]
    n = math.isqrt(size)
    a, b = rng.sample(range(size), 2)
    out = [const.copy() for _ in range(5)]
    out[0][rng.randrange(size), rng.randrange(size)] += rng.randrange(1, p)
    out[1][:, [a, b]] = out[1][:, [b, a]]
    out[2][[a, b]] = out[2][[b, a]]
    out[3][:, a] *= rng.randrange(2, p)
    out[4] = np.roll(out[4].reshape(n, n, size), 1, axis=1).reshape(size, size)
    out.append(const * rng.randrange(2, p))
    out.append(np.array([[rng.randrange(p) for _ in range(size)] for _ in range(size)], dtype=np.int64))
    return [c % p for c in out]


@pytest.mark.parametrize("variant", iso.cyclic.VARIANTS)
def test_equivariance_check_matches_the_dense_products(variant):
    # the column scaling and row-slot roll against the dense products over
    # F_p (and, for n <= 4, over F_p[y]), on the intact C and on seeded
    # corruptions of it
    for n in range(2, 17):
        model = iso.build_cyclic(n, variant)
        phi = phi_matrix(model)
        assert iso.phi_equivariance_check(model, phi) is None
        assert dense_equivariance_witness(model, phi.const) is None
        # C is compared over F_p, so unreduced residues are the same C
        unreduced = phi.const + model.p
        assert iso.phi_equivariance_check(model, replace(phi, const=unreduced)) is None
        assert dense_equivariance_witness(model, unreduced) is None
        verdicts = []
        for const in corruptions(phi.const, model.p, random.Random(n)):
            witness = dense_equivariance_witness(model, const)
            assert iso.phi_equivariance_check(model, replace(phi, const=const)) == witness, n
            dense = witness is None
            if n <= 4:
                assert oracle_equivariance(model, poly_grid(replace(phi, const=const))) == dense, n
            verdicts.append(dense)
        assert not all(verdicts), n


@pytest.mark.parametrize("variant", iso.cyclic.VARIANTS)
def test_coeff_lists_match_the_poly_grid(variant):
    # the report's entry lists against the Poly oracle, on C and, for n >= 2,
    # on its seeded corruptions (the last is a random matrix)
    for n in range(1, 9):
        model = iso.build_cyclic(n, variant)
        phi = phi_matrix(model)
        edits = corruptions(phi.const, model.p, random.Random(n)) if n > 1 else []
        for const in (phi.const, *edits):
            other = replace(phi, const=const)
            assert other.coeff_lists() == [[list(e.coeffs) for e in row] for row in poly_grid(other)]


def singular_phi(model):
    # column 0 repeated in column 1: C is singular, e is unchanged
    phi = phi_matrix(model)
    const = phi.const.copy()
    const[:, 1] = const[:, 0]
    return PhiMatrix(model.n, model.p, const, phi.powers)


def test_singular_const_has_no_invariant_factors():
    model = iso.build_cyclic(3)
    phi = singular_phi(model)
    # column 1 is zero in the rows of its block, so the block product is 0
    det = iso.phi_det(phi)
    whole = bareiss_det(poly_grid(phi))
    assert det.is_zero() and whole.is_zero()
    # the ones-and-y pattern would be wrong: the true Smith form has rank < 9
    assert len(smith_normal_form(poly_grid(phi))) < 9
    with pytest.raises(SingularMatrix):
        factored_invariant_factors(det, phi.powers)
    with pytest.raises(SingularMatrix):
        factored_invariant_factors(whole, phi.powers)


@pytest.mark.parametrize("variant", iso.cyclic.VARIANTS)
def test_cyclic_report_fails_on_singular_const(monkeypatch, variant):
    model = iso.build_cyclic(3, variant)
    monkeypatch.setattr(iso.cyclic, "phi_matrix", singular_phi)
    doc = cyclic_report(model).to_dict()
    by_check = {o["check"]: o for o in doc["outcomes"]}
    assert doc["pass"] is False
    assert by_check["cyclic.phi_det"]["pass"] is False
    assert by_check["cyclic.phi_det"]["witness"] == {"det": []}
    divisors = by_check["cyclic.elementary_divisors"]
    assert divisors["pass"] is False
    assert divisors["witness"]["error"] == "SingularMatrix" and divisors["witness"]["det"] == []
    assert doc["elementary_divisors"] is None


def stray_phi(model):
    # column x^0 (x) x^0 (block 0) added to column x^0 (x) x^1 (block 1):
    # det(C) is unchanged, but C has nonzero entries off its blocks
    phi = phi_matrix(model)
    const = phi.const.copy()
    const[:, 1] = (const[:, 1] + const[:, 0]) % model.p
    return PhiMatrix(model.n, model.p, const, phi.powers)


@pytest.mark.parametrize("variant", iso.cyclic.VARIANTS)
def test_cyclic_report_fails_on_an_entry_off_the_blocks(monkeypatch, variant):
    model = iso.build_cyclic(3, variant)
    good = iso.phi_det(phi_matrix(model))
    bad = stray_phi(model)
    assert iso.cyclic.off_block_entry(bad) == (0, 1)
    # no block changes, so the block product is still det(C), as elimination
    # over F_p[y] confirms; only the entry off the blocks fails the check
    assert iso.phi_det(bad) == good == bareiss_det(poly_grid(bad))
    monkeypatch.setattr(iso.cyclic, "phi_matrix", stray_phi)
    doc = cyclic_report(model).to_dict()
    by_check = {o["check"]: o for o in doc["outcomes"]}
    assert doc["pass"] is False and doc["phi_det"] == list(good.coeffs)
    assert by_check["cyclic.phi_det"]["pass"] is False
    assert by_check["cyclic.phi_det"]["witness"] == {"off_block_entry": [0, 1]}
    assert by_check["cyclic.elementary_divisors"]["pass"] is True
