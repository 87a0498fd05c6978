"""Graded cover model: degree pieces, multiplicity series, structure checks."""

from __future__ import annotations

import numpy as np
import pytest

import isotypic as iso
from isotypic import linalg
from isotypic.arith import Poly, RatFunc
from isotypic.cover import _inverse_dets, builtin_action, cyclic_subgroups
from isotypic import reps
from isotypic.errors import NotFaithful, OrientationMismatch, SystemTooLarge
from isotypic.scenarios import COVER_SCENARIOS
from polymat_oracle import bareiss_det


def scalar_ctx(ctx, n):
    c = ctx(f"C{n}")
    return c, iso.scalar_action(c.group, c.p)


def test_validate_action_perm_s3(ctx):
    c = ctx("S3")
    action = iso.perm_action(c.group, c.p)
    assert action.n == 3


def test_validate_action_trivial_group(ctx):
    c = ctx("C1")
    action = iso.validate_action(c.group, [], c.p)
    assert action.n == 1


def test_validate_action_rejects_non_faithful(ctx):
    c = ctx("C2")
    with pytest.raises(NotFaithful):
        iso.validate_action(c.group, [np.eye(1, dtype=np.int64)], c.p)


def test_oversized_piece_and_multiplication_map_raise(ctx, monkeypatch):
    # C2 acting by -1 on three variables, under a 500-cell limit: the
    # degree-4 piece (2 x 15 x 15) fits, the degree-5 piece and the
    # 36 x 15 map of degrees 2 + 2 do not
    c = ctx("C2")
    action = iso.validate_action(c.group, [np.eye(3, dtype=np.int64) * (c.p - 1)], c.p)
    monkeypatch.setattr(reps, "MAX_SYSTEM_CELLS", 500)
    assert action.piece(4).dim == 15
    assert action.multiplication_map(1, 3).shape == (30, 15)
    with pytest.raises(SystemTooLarge, match=r"the degree-5 piece is 2 x 21 x 21 \(882 cells\)"):
        action.piece(5)
    with pytest.raises(SystemTooLarge, match=r"multiplication map of degrees 2 and 2 is 36 x 15 \(540 cells\)"):
        action.multiplication_map(2, 2)
    assert 5 not in action._pieces and (2, 2) not in action._mul_maps


def test_degree_piece_basics(ctx):
    c, action = scalar_ctx(ctx, 2)
    piece0 = action.piece(0)
    assert piece0.dim == 1 and piece0.rep.mats[0].tolist() == [[1]]
    # sigma x = -x, so degree 3 picks up (-1)^3
    piece3 = action.piece(3)
    assert piece3.rep.mats[1].tolist() == [[c.p - 1]]


def test_negative_degree_piece_is_rejected(ctx):
    _, action = scalar_ctx(ctx, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        action.piece(-1)
    assert action.piece(2).dim == 1


@pytest.mark.parametrize("name", ["S3", "S4", "A4", "Q8", "D4"])
def test_perm_action_matches_generator_words(ctx, name):
    # the defining permutation matrices of the generators, extended along words
    c = ctx(name)
    deg = c.group.degree
    gen_mats = []
    for g in c.group.generators:
        m = np.zeros((deg, deg), dtype=np.int64)
        m[np.array(g.images), np.arange(deg)] = 1
        gen_mats.append(m)
    action = iso.perm_action(c.group, c.p)
    assert action.name == f"perm{deg}"
    assert np.array_equal(action.rep.mats, iso.validate_action(c.group, gen_mats, c.p).rep.mats)


@pytest.mark.parametrize(
    ("name", "kind", "variables"),
    [("D3", "reflection", 2), ("D6", "reflection2", 2), ("C5", "scalar1", 1), ("C6", "scalar", 1)],
)
def test_builtin_action_orders_from_the_group(ctx, name, kind, variables):
    # the first generator (rotation) acts with order |G|/2 (dihedral) or |G|
    # (cyclic), the order of the root of unity taken from the group
    c = ctx(name)
    action = builtin_action(c.group, c.p, kind)
    assert action.n == variables
    rot = action.rep.mats[c.group.generator_indices[0]]
    powers = [linalg.identity(variables)]
    while len(powers) == 1 or not np.array_equal(powers[-1], powers[0]):
        powers.append(linalg.matmul(powers[-1], rot, c.p))
    assert len(powers) - 1 == (c.group.order // 2 if name[0] == "D" else c.group.order)


@pytest.mark.parametrize(
    ("name", "kind", "message"),
    [
        ("S3", "twist", "unknown builtin action 'twist'"),
        ("S3", "perm4", "action perm4 does not match the group degree 3"),
        ("S3", "reflection", "reflection actions are defined for dihedral groups D<n>"),
        ("D4", "reflection3", "reflection actions are two-dimensional"),
        ("D4", "scalar", "scalar actions are defined for cyclic groups C<n>"),
        ("C4", "scalar2", "scalar actions are one-dimensional"),
    ],
)
def test_builtin_action_rejects_names_that_do_not_fit(ctx, name, kind, message):
    c = ctx(name)
    with pytest.raises(ValueError, match=message):
        builtin_action(c.group, c.p, kind)


def test_degree_piece_characters_s3(ctx):
    c = ctx("S3")
    action = iso.perm_action(c.group, c.p)
    piece = action.piece(2)
    assert piece.dim == 6
    assert iso.character_of(piece.rep, c.classes) == (6, 2, 0)
    # degree one carries the dual of the defining matrices
    one = action.piece(1)
    dual = iso.dual_rep(action.rep)
    assert iso.character_of(one.rep, c.classes) == iso.character_of(dual, c.classes)


def test_degree_pieces_are_homomorphisms(ctx):
    c = ctx("S3")
    action = iso.perm_action(c.group, c.p)
    for d in range(5):
        action.piece(d).rep._validate()


def test_monomial_order_graded_lex(ctx):
    c = ctx("S3")
    action = iso.perm_action(c.group, c.p)
    assert action.piece(2).monomials == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    )


def test_molien_series_c2(ctx):
    c, action = scalar_ctx(ctx, 2)
    p = c.p
    one, t = Poly.const(p, 1), Poly.x(p)
    assert iso.molien_multiplicity_series(action, 0, c.table) == RatFunc(one, one - t * t)
    assert iso.molien_multiplicity_series(action, 1, c.table) == RatFunc(t, one - t * t)


def test_molien_series_trivial_group(ctx):
    c = ctx("C1")
    action = iso.validate_action(c.group, [], c.p)
    one, t = Poly.const(c.p, 1), Poly.x(c.p)
    assert iso.molien_multiplicity_series(action, 0, c.table) == RatFunc(one, one - t)


def test_molien_series_c3(ctx):
    c, action = scalar_ctx(ctx, 3)
    one, t = Poly.const(c.p, 1), Poly.x(c.p)
    assert iso.molien_multiplicity_series(action, 0, c.table) == RatFunc(one, one - t ** 3)


def test_molien_rejects_swapped_projector_multiplicities(ctx, monkeypatch):
    # the conjugate orientation sum chi_i(g) / det(1 - t rho(g)^-1) would fit
    # these swapped multiplicities; the series must not fall back to it
    c, action = scalar_ctx(ctx, 3)
    real = action.piece_decomposition

    def swapped(d, table):
        decomp, mults = real(d, table)
        return decomp, (mults[0], mults[2], mults[1])

    monkeypatch.setattr(action, "piece_decomposition", swapped)
    for i in (1, 2):
        with pytest.raises(OrientationMismatch):
            iso.molien_multiplicity_series(action, i, c.table)


def test_molien_matches_projectors_everywhere(ctx):
    from isotypic.arith import series_prefix

    cases = [
        ("S3", lambda c: iso.perm_action(c.group, c.p)),
        ("D4", lambda c: iso.reflection_action(c.group, c.p)),
        ("C4", lambda c: iso.scalar_action(c.group, c.p)),
    ]
    for name, make in cases:
        c = ctx(name)
        action = make(c)
        for i in range(c.table.num_irreps):
            series = iso.molien_multiplicity_series(action, i, c.table)
            coeffs = series_prefix(series, 12)
            for d in range(13):
                mult = action.piece_decomposition(d, c.table)[1][i]
                assert coeffs[d] == mult % c.p
            # the constant coefficient picks out the trivial piece only
            assert coeffs[0] == (1 if i == 0 else 0)


def test_generic_multiplicity_examples(ctx):
    c2, action2 = scalar_ctx(ctx, 2)
    assert iso.generic_multiplicity(action2, 1, c2.table) == 1
    assert iso.generic_multiplicity(action2, 0, c2.table) == 1
    s3 = ctx("S3")
    action = iso.perm_action(s3.group, s3.p)
    assert [iso.generic_multiplicity(action, i, s3.table) for i in range(3)] == [1, 1, 2]


def test_generic_multiplicity_equals_degrees(ctx):
    cases = [
        ("S3", lambda c: iso.perm_action(c.group, c.p)),
        ("D4", lambda c: iso.reflection_action(c.group, c.p)),
        ("C2", lambda c: iso.scalar_action(c.group, c.p)),
        ("C3", lambda c: iso.scalar_action(c.group, c.p)),
        ("C4", lambda c: iso.scalar_action(c.group, c.p)),
    ]
    for name, make in cases:
        c = ctx(name)
        action = make(c)
        got = [iso.generic_multiplicity(action, i, c.table) for i in range(c.table.num_irreps)]
        assert got == list(c.table.degrees)


def test_invariants_series_check_s3(ctx):
    c = ctx("S3")
    action = iso.perm_action(c.group, c.p)
    a3 = iso.subgroup_closure(c.group, [2])
    rows = iso.invariants_series_check(action, a3, 12, c.table)
    assert all(row.ok for row in rows)
    # H = 1: both sides are the full dimension of the graded piece
    triv = iso.subgroup_closure(c.group, [])
    rows = iso.invariants_series_check(action, triv, 8, c.table)
    for row in rows:
        assert row.ok and row.fixed_dim == action.piece(row.d).dim
    # H = G: the fixed dimensions are the invariant-ring coefficients
    whole = iso.subgroup_closure(c.group, [1, 2])
    from isotypic.arith import series_prefix

    inv_coeffs = series_prefix(iso.molien_multiplicity_series(action, 0, c.table), 8)
    rows = iso.invariants_series_check(action, whole, 8, c.table)
    for row in rows:
        assert row.ok and row.fixed_dim % c.p == inv_coeffs[row.d]


def test_invariants_series_check_all_subgroups(ctx):
    for name, make in (
        ("D4", lambda c: iso.reflection_action(c.group, c.p)),
        ("C4", lambda c: iso.scalar_action(c.group, c.p)),
    ):
        c = ctx(name)
        action = make(c)
        for sub in iso.all_subgroups(c.group):
            assert all(row.ok for row in iso.invariants_series_check(action, sub, 8, c.table))


def test_product_structure_sign_times_sign(ctx):
    c = ctx("S3")
    action = iso.perm_action(c.group, c.p)
    # sign-isotypic vectors first appear in degree 3; their squares are invariant
    res = iso.product_structure_check(action, 1, 1, 3, 3, c.table)
    assert res.ok
    assert res.required_zero == (1, 2)
    assert res.observed_ranks[0] > 0


def test_product_structure_trivial_factor(ctx):
    c = ctx("S3")
    action = iso.perm_action(c.group, c.p)
    for j in range(3):
        for a, b in ((1, 2), (2, 3)):
            res = iso.product_structure_check(action, 0, j, a, b, c.table)
            assert res.ok
            for l, r in enumerate(res.observed_ranks):
                if l != j:
                    assert r == 0


def test_product_structure_c2_odd_times_odd(ctx):
    c, action = scalar_ctx(ctx, 2)
    res = iso.product_structure_check(action, 1, 1, 1, 1, c.table)
    assert res.ok and res.required_zero == (1,) and res.observed_ranks == (1, 0)


def test_product_structure_all_pairs_small(ctx):
    c = ctx("D4")
    action = iso.reflection_action(c.group, c.p)
    for i in range(5):
        for j in range(5):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    assert iso.product_structure_check(action, i, j, a, b, c.table).ok


def test_pushforward_report_s3(ctx):
    c = ctx("S3")
    report = iso.pushforward_report(iso.perm_action(c.group, c.p), 12, c.table)
    assert report.passed
    assert report.data["generic_multiplicities"] == [1, 1, 2]
    assert report.data["multiplicities_by_degree"][0] == [1, 0, 0]
    doc = report.to_dict()
    assert doc["pass"] and len(doc["multiplicities_by_degree"]) == 13


def test_pushforward_report_trivial_group(ctx):
    c = ctx("C1")
    action = iso.validate_action(c.group, [], c.p)
    report = iso.pushforward_report(action, 6, c.table)
    assert report.passed and report.data["generic_multiplicities"] == [1]


def test_pushforward_report_d4(ctx):
    c = ctx("D4")
    report = iso.pushforward_report(iso.reflection_action(c.group, c.p), 12, c.table)
    assert report.passed
    assert report.data["generic_multiplicities"] == [1, 1, 1, 1, 2]


def test_cyclic_subgroups_s3(ctx):
    c = ctx("S3")
    subs = cyclic_subgroups(c.group)
    assert [s.order for s in subs] == [1, 2, 2, 2, 3]


def test_b1_dual_convention(ctx):
    # the degree-1 matrices are inverse transposes of the defining ones
    c = ctx("D4")
    action = iso.reflection_action(c.group, c.p)
    one = action.piece(1)
    for g in range(c.group.order):
        expected = linalg.inverse(action.rep.mats[g], c.p).T % c.p
        assert np.array_equal(one.rep.mats[g], expected)


def test_inverse_dets_match_bareiss_oracle(ctx):
    # det(I - t rho(g)^-1) by Bareiss elimination over F_p[t]
    for name, kind in (*COVER_SCENARIOS, ("S4", "perm")):
        group = iso.group_from_name(name)
        p = iso.choose_prime(group)
        action = builtin_action(group, p, kind)
        dets = _inverse_dets(action)
        for g in range(group.order):
            inv = linalg.inverse(action.rep.mats[g], p)
            mat = [
                [Poly(p, (int(i == j), -int(inv[i, j]))) for j in range(action.n)]
                for i in range(action.n)
            ]
            assert dets[g] == bareiss_det(mat)
