"""Graded cover model: degree pieces, multiplicity series, structure checks."""

from __future__ import annotations

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy
from sympy.polys.fields import field
from sympy.polys.matrices import DomainMatrix

import isotypic as iso
from isotypic import linalg
from isotypic.arith import Poly, RatFunc
from isotypic.cli import _parse_matrix_file
from isotypic.cover import _inverse_dets, _products, builtin_action, cyclic_subgroups
from isotypic import cover, reps
from isotypic.errors import NotFaithful, SystemTooLarge
from isotypic.scenarios import COVER_SCENARIOS
from conftest import (
    TEST_GROUPS,
    all_subgroups,
    cycles,
    exponents,
    forbid,
    full_component_product_failures,
    generators,
    matrix_inverse,
    subgroup_closure,
)
from polymat_oracle import bareiss_det


GOLDEN = Path(__file__).resolve().parent / "golden"
# (group, action, prime) of the Molien oracle: verify-all's five cover
# actions and more, and the two matrix-file actions of the golden reports.
# A prime of None is `choose_prime`'s; 42949657 is the largest prime
# = 1 mod 24 below MAX_MODULUS.
MOLIEN_ORACLE_CASES = [
    ("S3", "perm", None), ("A4", "perm", None), ("S4", "perm", None), ("S5", "perm", None),
    ("D4", "reflection", None), ("D6", "reflection", None), ("C4", "scalar", None),
    ("C2", "scalar", None), ("C3", "scalar", None), ("D12", "reflection", None), ("Q8", "perm", None),
    ("Q8", "action_Q8_model2.txt", None), ("A4", "action_A4_model3.txt", None), ("S4", "perm", 42949657),
]


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
    # 36 x 15 map of degrees 2 + 2 do not; a map is stored as its 36
    # target columns, but the guard counts the 0/1 matrix they stand for
    c = ctx("C2")
    action = iso.validate_action(c.group, [np.eye(3, dtype=np.int64) * (c.p - 1)], c.p)
    monkeypatch.setattr(reps, "MAX_SYSTEM_CELLS", 500)
    assert action.piece(4).dim == 15
    assert action.multiplication_map(1, 3).shape == (30,)
    with pytest.raises(SystemTooLarge, match=r"the degree-5 piece is 2 x 21 x 21 \(882 cells\)"):
        action.piece(5)
    with pytest.raises(SystemTooLarge, match=r"multiplication map of degrees 2 and 2 is 36 x 15 \(540 cells\)"):
        action.multiplication_map(2, 2)
    assert 5 not in action._pieces and (2, 2) not in action._mul_maps


def test_degree_piece_basics(ctx):
    c, action = scalar_ctx(ctx, 2)
    piece0 = action.piece(0)
    assert piece0.dim == 1 and piece0.mats[0].tolist() == [[1]]
    # sigma x = -x, so degree 3 picks up (-1)^3
    piece3 = action.piece(3)
    assert piece3.mats[1].tolist() == [[c.p - 1]]


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
    for g in generators(c.group):
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
    assert iso.character_of(piece, c.classes) == (6, 2, 0)
    # degree one carries the dual of the defining matrices
    one = action.piece(1)
    dual = iso.dual_rep(action.rep)
    assert iso.character_of(one, c.classes) == iso.character_of(dual, c.classes)


def test_degree_pieces_are_homomorphisms(ctx):
    # MatrixRep validates each piece as it is built: NotAHomomorphism otherwise
    c = ctx("S3")
    action = iso.perm_action(c.group, c.p)
    for d in range(5):
        assert action.piece(d).dim == math.comb(action.n + d - 1, d)


def test_monomial_order_graded_lex():
    # x_i x_j for i, j in 0..2, in the order x0^2, x0x1, x0x2, x1^2, x1x2,
    # x2^2 of B_2
    assert _products(3, 1, 1).tolist() == [0, 1, 2, 1, 3, 4, 2, 4, 5]


@pytest.mark.parametrize("n", range(1, 6))
def test_products_match_the_exponent_oracle(n):
    # every a + b <= 8, a = 0 and b = 0 included, against exponent tuples
    # added and looked up in a dict of the graded-lex basis
    for a in range(9):
        for b in range(9 - a):
            index = {m: k for k, m in enumerate(exponents(n, a + b))}
            expected = [
                index[tuple(x + y for x, y in zip(alpha, beta))]
                for alpha in exponents(n, a)
                for beta in exponents(n, b)
            ]
            assert _products(n, a, b).tolist() == expected, (a, b)


@pytest.mark.parametrize(("n", "a", "b"), [(60, 1, 1), (40, 2, 0), (2, 70, 3)])
def test_products_of_wide_and_deep_bases(n, a, b):
    # a mixed-radix code of the exponent vectors, base a + b + 1, would pass
    # 2^63 on the first two; the third has one exponent above 64
    index = {m: k for k, m in enumerate(exponents(n, a + b))}
    expected = [index[tuple(x + y for x, y in zip(alpha, beta))] for alpha in exponents(n, a) for beta in exponents(n, b)]
    assert _products(n, a, b).tolist() == expected


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
    # these swapped multiplicities; the report must fail its series outcome
    # on them, at max_degree 0 too, since it compares through CHECK_DEGREE
    for max_degree in (0, 3):
        c, action = scalar_ctx(ctx, 3)
        real = action.piece_decomposition

        def swapped(d, table, real=real):
            decomp = real(d, table)
            m = decomp.multiplicities
            return reps.IsotypicDecomposition(decomp.components, (m[0], m[2], m[1]))

        monkeypatch.setattr(action, "piece_decomposition", swapped)
        report = iso.pushforward_report(action, max_degree, c.table)
        outcome = next(o for o in report.outcomes if o.check == "cover.series_vs_projectors")
        assert not outcome.passed and outcome.witness == {"degree": 1, "irrep": 1}
        assert len(report.data["multiplicities_by_degree"]) == max_degree + 1


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
            coeffs = series_prefix(series.num, series.den, 12)
            for d in range(13):
                mult = action.piece_decomposition(d, c.table).multiplicities[i]
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
    a3 = subgroup_closure(c.group, [2])
    assert iso.invariants_series_check(action, a3, 12, c.table) is None
    # H = 1: both sides are the full dimension of the graded piece
    triv = subgroup_closure(c.group, [])
    assert iso.invariants_series_check(action, triv, 8, c.table) is None
    for d in range(9):
        assert iso.fixed_dim(action.piece(d), triv) == action.piece(d).dim
    # H = G: the fixed dimensions are the invariant-ring coefficients
    whole = subgroup_closure(c.group, [1, 2])
    from isotypic.arith import series_prefix

    invariants = iso.molien_multiplicity_series(action, 0, c.table)
    inv_coeffs = series_prefix(invariants.num, invariants.den, 8)
    assert iso.invariants_series_check(action, whole, 8, c.table) is None
    for d in range(9):
        assert iso.fixed_dim(action.piece(d), whole) % c.p == inv_coeffs[d]


def test_invariants_series_check_witnesses_the_first_failing_degree(ctx, monkeypatch):
    # one fixed dimension too many from degree 3 on: the witness names the
    # subgroup and degree 3, and the report's outcome carries it
    c = ctx("S3")
    action = iso.perm_action(c.group, c.p)
    a3 = subgroup_closure(c.group, [2])
    real = cover.fixed_dim
    monkeypatch.setattr(cover, "fixed_dim", lambda rep, h: real(rep, h) + (rep.dim >= 10))
    witness = {"subgroup": list(a3.element_indices), "degree": 3}
    assert iso.invariants_series_check(action, a3, 12, c.table) == witness
    assert iso.invariants_series_check(action, a3, 2, c.table) is None
    report = iso.pushforward_report(action, 4, c.table)
    outcome = next(o for o in report.outcomes if o.check == "cover.invariants")
    trivial = cyclic_subgroups(c.group)[0]
    assert outcome.witness == {"subgroup": list(trivial.element_indices), "degree": 3}


def test_invariants_series_check_all_subgroups(ctx):
    for name, make in (
        ("D4", lambda c: iso.reflection_action(c.group, c.p)),
        ("C4", lambda c: iso.scalar_action(c.group, c.p)),
    ):
        c = ctx(name)
        action = make(c)
        for sub in all_subgroups(c.group):
            assert iso.invariants_series_check(action, sub, 8, c.table) is None


def builtin_actions(c):
    """Every builtin action that fits the group of `c`: perm always, and
    reflection or scalar where they apply."""
    actions = []
    for kind in ("perm", "reflection", "scalar"):
        try:
            actions.append(builtin_action(c.group, c.p, kind))
        except ValueError:
            continue
    return actions


def subgroup_conjugacy_classes(group, subgroups):
    """`subgroups`, a conjugation-closed list, grouped into conjugacy
    classes by conjugating with every element on the multiplication table;
    the classes in the order of their first member, each in list order."""
    mult, inv = group.mult, group.inv
    classes, seen = [], set()
    for h in subgroups:
        if h.element_indices in seen:
            continue
        conj = {
            tuple(sorted(int(mult[mult[g, x], inv[g]]) for x in h.element_indices)) for g in range(group.order)
        }
        seen |= conj
        classes.append([s for s in subgroups if s.element_indices in conj])
    return classes


@pytest.mark.parametrize("name", TEST_GROUPS + ("S4", "D6"))
def test_conjugate_cyclic_subgroups_pass_the_fixed_ring_check_alike(ctx, monkeypatch, name):
    # the report checks the first subgroup of each conjugacy class only: the
    # fixed dimensions of every member agree degree by degree, and so does
    # the check's result on the true series and with one irreducible's
    # degree-2 coefficient made wrong (a failure that depends on the class)
    c = ctx(name)
    subgroups = cyclic_subgroups(c.group)
    classes = subgroup_conjugacy_classes(c.group, subgroups)
    assert cover._class_representatives(subgroups, c.classes) == [members[0] for members in classes]
    real_prefixes, outcomes = cover._series_prefixes, set()
    for action in builtin_actions(c):
        top = 8 if action.n <= 4 else 4
        for members in classes:
            dims = {tuple(iso.fixed_dim(action.piece(d), h) for d in range(top + 1)) for h in members}
            assert len(dims) == 1, (action.name, members[0].element_indices)
        for wrong in [None, *range(c.table.num_irreps)]:
            monkeypatch.undo()
            if wrong is not None:

                def prefixes(action, terms, table, wrong=wrong):
                    out = real_prefixes(action, terms, table)
                    out[wrong][2] = (out[wrong][2] + 1) % table.p
                    return out

                monkeypatch.setattr(cover, "_series_prefixes", prefixes)
            for members in classes:
                results = [iso.invariants_series_check(action, h, top, c.table) for h in members]
                degrees = {None if w is None else w["degree"] for w in results}
                assert len(degrees) == 1, (action.name, wrong, members[0].element_indices)
                assert all(w is None or w["subgroup"] == list(h.element_indices) for w, h in zip(results, members))
                outcomes |= degrees
    assert None in outcomes and (name == "C1" or 2 in outcomes)


def test_a_wrong_fixed_dimension_on_some_classes_is_witnessed_at_the_first_failing_subgroup(ctx, monkeypatch):
    # fixed_dim one too large from degree 2 on, on every member of one or
    # two conjugacy classes of S4's cyclic subgroups: the report's witness
    # is the first failing subgroup of the loop over every cyclic subgroup
    c = ctx("S4")
    action = builtin_action(c.group, c.p, "perm4")
    subgroups = cyclic_subgroups(c.group)
    classes = subgroup_conjugacy_classes(c.group, subgroups)
    assert (len(subgroups), len(classes)) == (17, 5)
    real = cover.fixed_dim
    chosen = [[k] for k in range(5)] + [[k, l] for k in range(5) for l in range(k + 1, 5)]
    for picks in chosen:
        wrong = {h.element_indices for k in picks for h in classes[k]}
        monkeypatch.setattr(
            cover, "fixed_dim", lambda rep, h, wrong=wrong: real(rep, h) + (rep.dim >= 10 and h.element_indices in wrong)
        )
        report = iso.pushforward_report(action, 4, c.table)
        outcome = next(o for o in report.outcomes if o.check == "cover.invariants")
        first = next(w for h in subgroups if (w := iso.invariants_series_check(action, h, 4, c.table)))
        assert outcome.witness == first, picks
        assert first == {"subgroup": list(classes[min(picks)][0].element_indices), "degree": 2}


def test_product_structure_sign_times_sign(ctx, monkeypatch):
    c = ctx("S3")
    action = iso.perm_action(c.group, c.p)
    # sign-isotypic vectors first appear in degree 3; their squares are invariant
    assert iso.product_structure_check(action, 1, 1, 3, 3, c.table) is None
    assert np.flatnonzero(iso.tensor_multiplicities(c.table)[1, 1] == 0).tolist() == [1, 2]
    forbid(monkeypatch, 3, 1, 1, 0)
    witness = iso.product_structure_check(action, 1, 1, 3, 3, c.table)
    assert witness["component"] == 0 and witness["degree"] == 6


def test_product_structure_trivial_factor(ctx, monkeypatch):
    c = ctx("S3")
    action = iso.perm_action(c.group, c.p)
    for j in range(3):
        for a, b in ((1, 2), (2, 3)):
            monkeypatch.undo()
            assert iso.product_structure_check(action, 0, j, a, b, c.table) is None
            # an invariant times the j-component lies in the j-component ...
            forbid(monkeypatch, 3, 0, j, *(l for l in range(3) if l != j))
            assert iso.product_structure_check(action, 0, j, a, b, c.table) is None
            # ... and is nonzero there when that component is (F_p[x] has no zero divisors)
            forbid(monkeypatch, 3, 0, j, j)
            witness = iso.product_structure_check(action, 0, j, a, b, c.table)
            assert (witness is None) == (action.piece_decomposition(b, c.table).multiplicities[j] == 0)


def test_product_structure_c2_odd_times_odd(ctx, monkeypatch):
    c, action = scalar_ctx(ctx, 2)
    assert iso.product_structure_check(action, 1, 1, 1, 1, c.table) is None
    assert np.flatnonzero(iso.tensor_multiplicities(c.table)[1, 1] == 0).tolist() == [1]
    forbid(monkeypatch, 2, 1, 1, 0)
    witness = iso.product_structure_check(action, 1, 1, 1, 1, c.table)
    assert witness == {"component": 0, "degree": 2, "vector": [1]}  # x * x = x^2


def test_product_structure_all_pairs_small(ctx):
    c = ctx("D4")
    action = iso.reflection_action(c.group, c.p)
    for i in range(5):
        for j in range(5):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    assert iso.product_structure_check(action, i, j, a, b, c.table) is None


def per_tuple_product_outcome(action, table):
    """The product outcome as a loop over every (i, j, a, b), one
    `product_structure_check` each: the first failing tuple with its
    witness, or None."""
    r, top = table.num_irreps, cover.PRODUCT_DEGREE
    return next(
        (
            {"i": i, "j": j, "a": a, "b": b, "detail": w}
            for i in range(r)
            for j in range(r)
            for a in range(1, top + 1)
            for b in range(a, top + 1)
            if (w := iso.product_structure_check(action, i, j, a, b, table)) is not None
        ),
        None,
    )


def report_product_witness(action, table):
    report = iso.pushforward_report(action, 1, table)
    return next(o.witness for o in report.outcomes if o.check == "cover.product_pattern")


def test_the_report_product_pass_finds_the_per_tuple_witness(ctx, monkeypatch):
    # patched tensors forbid components at chosen (i, j), i > j among them,
    # so the pass's unordered pairs at a == b meet forbidden sets of (i, j)
    # and (j, i) that differ; the report's witness is the loop's first one
    seen = []
    for name, kind in [("S3", "perm3"), ("C2", "scalar"), ("C4", "scalar"), ("D4", "reflection2"), ("S4", "perm4")]:
        c = ctx(name)
        action = builtin_action(c.group, c.p, kind)
        r = c.table.num_irreps
        monkeypatch.undo()
        assert report_product_witness(action, c.table) is None
        assert per_tuple_product_outcome(action, c.table) is None
        patches = [(r - 1, 0, *range(r)), (r - 1, r - 1, 0), (0, r - 1, r - 1), (r - 1, 0, r - 1), (r - 1, 0, 0)]
        for i, j, *forbidden in patches:
            monkeypatch.undo()
            forbid(monkeypatch, r, i, j, *forbidden)
            want = per_tuple_product_outcome(action, c.table)
            assert report_product_witness(action, c.table) == want, (name, i, j, forbidden)
            seen.append(want)
        # (i, j) and (j, i) both forbidden, with other sets
        tens = iso.tensor_multiplicities(c.table).copy()
        tens[r - 1, 0, :] = tens[0, r - 1, :] = 1
        tens[r - 1, 0, 0] = tens[0, r - 1, r - 1] = 0
        monkeypatch.undo()
        monkeypatch.setattr(cover, "_tensor_mults", lambda action, table: tens)
        want = per_tuple_product_outcome(action, c.table)
        assert report_product_witness(action, c.table) == want, name
        seen.append(want)
    assert any(w is None for w in seen) and any(w is not None for w in seen)
    assert any(w is not None and w["i"] > w["j"] and w["a"] == w["b"] for w in seen)


def per_pair_forbidden(action, table):
    """The forbidden set of every ordered pair, each a scan of one row of
    the tensor multiplicities."""
    tens, r = cover._tensor_mults(action, table), table.num_irreps
    return {(i, j): tuple(l for l in range(r) if tens[i, j, l] == 0) for i in range(r) for j in range(r)}


@pytest.mark.parametrize("name", TEST_GROUPS + ("D100",))
def test_the_forbidden_sets_are_the_per_pair_scans(ctx, monkeypatch, name):
    # on the table's own tensor multiplicities and on a seeded 0/1 tensor
    c = ctx(name)
    action = iso.perm_action(c.group, c.p)
    r = c.table.num_irreps
    want = per_pair_forbidden(action, c.table)
    got = cover._forbidden_sets(action, c.table)
    assert list(got) == list(want) and got == want
    assert any(want.values()) or r == 1
    tens = np.random.default_rng(r).integers(0, 2, (r, r, r))
    monkeypatch.setattr(cover, "_tensor_mults", lambda action, table: tens)
    assert cover._forbidden_sets(action, c.table) == per_pair_forbidden(action, c.table)


def assert_the_full_component_failures(monkeypatch, action, table):
    """`cover._product_failures` fails at the tuples of the full-component
    pass: on the table's tensor multiplicities, with each component
    forbidden alone and all of them at once at each (i, j) (`forbid`), and
    with the last component of each true V_i (x) V_j forbidden as well.
    Returns how many of those failure sets were not empty."""
    r = table.num_irreps
    monkeypatch.undo()
    try:
        want = full_component_product_failures(action, table)
    except SystemTooLarge:
        with pytest.raises(SystemTooLarge):
            cover._product_failures(action, table)
        return 0
    assert sorted(cover._product_failures(action, table)) == want == []
    true = iso.tensor_multiplicities(table)
    patches = []
    for i in range(r):
        for j in range(r):
            patches += [(r, i, j, l) for l in range(r)] + [(r, i, j, *range(r))]
    nonempty = 0
    for patch in patches:
        monkeypatch.undo()
        forbid(monkeypatch, *patch)
        want = full_component_product_failures(action, table)
        assert sorted(cover._product_failures(action, table)) == want, (action.name, patch)
        nonempty += bool(want)
    for i in range(r):
        for j in range(r):
            tens = true.copy()
            tens[i, j, np.flatnonzero(tens[i, j])[-1]] = 0
            monkeypatch.undo()
            monkeypatch.setattr(cover, "_tensor_mults", lambda action, table, tens=tens: tens)
            want = full_component_product_failures(action, table)
            assert sorted(cover._product_failures(action, table)) == want, (action.name, i, j)
            nonempty += bool(want)
    return nonempty


@pytest.mark.parametrize("name", TEST_GROUPS + ("S4",))
def test_the_product_pass_on_generators_fails_where_the_full_components_do(ctx, monkeypatch, name):
    # every builtin action; C6 and Q8 `perm` raise SystemTooLarge on both sides
    c = ctx(name)
    nonempty = [assert_the_full_component_failures(monkeypatch, action, c.table) for action in builtin_actions(c)]
    assert all(nonempty) or name in ("C1", "C6", "Q8")


@pytest.mark.parametrize(
    "name, kind", [("D6", "reflection2"), ("Q8", "action_Q8_model2.txt"), ("A4", "action_A4_model3.txt")]
)
def test_the_product_pass_on_dense_pieces_fails_where_the_full_components_do(ctx, monkeypatch, name, kind):
    # dense pieces keep the component rows: the golden matrix-file actions
    c = ctx(name)
    if kind.endswith(".txt"):
        p, mats = _parse_matrix_file(str(GOLDEN / kind))
        action = iso.validate_action(c.group, mats, p)
    else:
        action = builtin_action(c.group, c.p, kind)
    assert action.piece(1).images is None
    assert assert_the_full_component_failures(monkeypatch, action, c.table)


@pytest.mark.parametrize("name", TEST_GROUPS + ("S4", "D6"))
def test_generator_rows_span_each_component_as_a_g_module(ctx, name):
    # the translates of the rows of irreducible i span its component of B_a
    # (the component's reduced rows, which are unique); monomial pieces take
    # one column of P_i per orbit when those are fewer, as S4 `perm4` does
    c = ctx(name)
    fewer = 0
    for action in builtin_actions(c):
        for a in range(1, cover.PRODUCT_DEGREE + 1):
            rep = action.piece(a)
            comps = action.piece_decomposition(a, c.table).components
            for rows, comp in zip(cover._generator_rows(action, a, c.table), comps):
                translates = reps._act(rep, slice(None), rows.T).transpose(0, 2, 1).reshape(-1, rep.dim)
                assert np.array_equal(linalg.row_space(translates, c.p), comp), (action.name, a)
                assert rows.shape[0] <= comp.shape[0]
                fewer += rows.shape[0] < comp.shape[0]
                if rep.images is None:
                    assert rows is comp
    assert fewer or name != "S4"


def test_the_product_pass_builds_one_shifted_array_per_kernel(ctx, monkeypatch):
    # one `_shifted` and one matrix product per (j, a, b) with work, one
    # projector test per unordered pair {i, j} at a == b (the table is real),
    # and one `np.bincount` per degree a for the generator rows besides one
    # per forbidden projector built; the tests take 1230 product rows, the
    # largest 90, where the full components took 2701 and 324
    c = ctx("S4")
    action = builtin_action(c.group, c.p, "perm4")
    table, r, top = c.table, c.table.num_irreps, cover.PRODUCT_DEGREE
    counts = {"builds": {}, "matmul": 0, "tests": [], "bincount": 0}
    inside, key = [False], [None]
    real_pass, real_products = cover._product_failures, cover._component_products
    real_shifted, real_hits, real_matmul = cover._shifted, cover._hits_forbidden, linalg.matmul
    real_bincount = np.bincount

    def product_pass(*args):
        inside[0] = True
        try:
            return real_pass(*args)
        finally:
            inside[0] = False

    def products(action, j, a, b, table, factors):
        key[0] = (j, a, b)
        return real_products(action, j, a, b, table, factors)

    def shifted(*args):
        counts["builds"][key[0]] = counts["builds"].get(key[0], 0) + 1
        return real_shifted(*args)

    def hits(action, prods, *args):
        counts["tests"].append(prods.shape[0])
        return real_hits(action, prods, *args)

    def matmul(*args):
        counts["matmul"] += inside[0]
        return real_matmul(*args)

    def bincount(*args, **kwargs):
        counts["bincount"] += inside[0]
        return real_bincount(*args, **kwargs)

    for name, wrapper in [
        ("_product_failures", product_pass),
        ("_component_products", products),
        ("_shifted", shifted),
        ("_hits_forbidden", hits),
    ]:
        monkeypatch.setattr(cover, name, wrapper)
    monkeypatch.setattr(linalg, "matmul", matmul)
    monkeypatch.setattr(np, "bincount", bincount)
    assert iso.pushforward_report(action, 12, table).passed
    # the (j, a, b) with work, and the unordered pairs with work, from the components
    tens = iso.tensor_multiplicities(table)
    dims = [action.piece_decomposition(d, table).dims() for d in range(top + 1)]
    work = {
        (i, j, a, b)
        for i in range(r)
        for j in range(r)
        for a in range(1, top + 1)
        for b in range(a, top + 1)
        if (a < b or i <= j) and dims[a][i] and dims[b][j] and (tens[i, j] == 0).any()
    }
    kernels = {(j, a, b) for _, j, a, b in work}
    assert counts["builds"] == dict.fromkeys(kernels, 1)
    assert counts["matmul"] == len(kernels) + len(work)
    assert counts["bincount"] == top + len(action._forbidden_projectors)
    gens = [len(rows) for a in range(top + 1) for rows in cover._generator_rows(action, a, table)]
    gens = np.reshape(gens, (top + 1, r))
    assert sorted(counts["tests"]) == sorted(gens[a][i] * dims[b][j] for i, j, a, b in work)
    assert (sum(counts["tests"]), max(counts["tests"]), len(work)) == (1230, 90, 91)
    full = [dims[a][i] * dims[b][j] for i, j, a, b in work]
    assert (sum(full), max(full)) == (2701, 324)


def test_the_cover_report_expands_each_molien_series_once(ctx, monkeypatch):
    # one memo of the Molien sums per action; the invariants check of every
    # cyclic subgroup slices the prefixes the series check expanded through
    # max(12, CHECK_DEGREE), one per irreducible
    c = ctx("S4")
    action = builtin_action(c.group, c.p, "perm4")
    builds, calls, real, real_dets = [], [], cover.series_prefix, cover._inverse_dets

    def spy(num, den, terms):
        calls.append(terms)
        return real(num, den, terms)

    def spy_dets(*args):
        builds.append(args)
        return real_dets(*args)

    monkeypatch.setattr(cover, "series_prefix", spy)
    monkeypatch.setattr(cover, "_inverse_dets", spy_dets)
    assert iso.pushforward_report(action, 12, c.table).passed
    assert len(builds) == 1 and calls == [12] * 5
    # a longer prefix is one pass anew over every irreducible, and a shorter
    # one is its slice
    series = iso.molien_multiplicity_series(action, 1, c.table)
    assert cover._series_prefixes(action, 20, c.table)[1] == real(series.num, series.den, 20)
    assert cover._series_prefixes(action, 3, c.table)[1] == real(series.num, series.den, 3)
    assert len(builds) == 1 and calls == [12] * 5 + [20] * 5


def former_fixed_dim(rep, h):
    """`fixed_dim` on a monomial rep as an orbit count with two `np.unique`."""
    elems = list(h.element_indices)
    images, scalars = rep.images[elems], rep.scalars[elems]
    label = images.min(axis=0)
    twisted = ((images == np.arange(rep.dim)) & (scalars != 1)).any(axis=0)
    return len(np.unique(label)) - len(np.unique(label[twisted]))


def test_fixed_dim_counts_orbit_minima_as_the_unique_labels_did(ctx):
    # twisted monomial pieces: C4 scaling x by a 4th root, S4 signed permutations
    c4, s4 = ctx("C4"), ctx("S4")
    for action, c in ((iso.scalar_action(c4.group, c4.p), c4), (signed_perm_action(s4), s4)):
        twisted = 0
        for d in range(9):
            rep = action.piece(d)
            assert rep.images is not None
            for h in all_subgroups(c.group):
                got = iso.fixed_dim(rep, h)
                assert got == former_fixed_dim(rep, h), (action.name, d, h.element_indices)
                twisted += got < len(np.unique(rep.images[list(h.element_indices)].min(axis=0)))
        assert twisted, action.name


@pytest.mark.parametrize(("name", "kind"), [("S4", "perm4"), ("D6", "reflection2")])
def test_cover_report_builds_no_dense_inverse(ctx, monkeypatch, name, kind):
    # the product check tests one projector, with no change of basis: S4
    # perm4 has monomial pieces, D6 reflection2 dense ones
    c = ctx(name)
    action = builtin_action(c.group, c.p, kind)

    def refuse(*args):
        raise AssertionError("a cover report inverts no matrix")

    monkeypatch.setattr(linalg, "coordinates", refuse)  # every inverse in src/ goes through it
    assert iso.pushforward_report(action, 8, c.table).passed


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


@pytest.mark.parametrize("name", ("C1", "C6", "S3", "D4", "Q8", "A4", "S4"))
def test_cyclic_subgroups_are_the_closures_of_single_elements(ctx, name):
    group = ctx(name).group
    closures = {subgroup_closure(group, [g]) for g in range(group.order)}
    want = sorted(closures, key=lambda s: (s.order, s.element_indices))
    assert cyclic_subgroups(group) == want


def test_b1_dual_convention(ctx):
    # the degree-1 matrices are inverse transposes of the defining ones
    c = ctx("D4")
    action = iso.reflection_action(c.group, c.p)
    one = action.piece(1)
    for g in range(c.group.order):
        expected = matrix_inverse(action.rep.mats[g], c.p).T % c.p
        assert np.array_equal(one.mats[g], expected)


def test_inverse_dets_match_bareiss_oracle(ctx):
    # det(I - t rho(g)^-1) by Bareiss elimination over F_p[t], for every
    # element: the Molien sums take one per class, so it must be a class
    # function
    for name, kind in (*COVER_SCENARIOS, ("S4", "perm")):
        c = ctx(name)
        action = builtin_action(c.group, c.p, kind)
        dets = _inverse_dets(action, c.classes)
        assert len(dets) == c.classes.num_classes
        for g in range(c.group.order):
            inv = matrix_inverse(action.rep.mats[g], c.p)
            mat = [
                [Poly(c.p, (int(i == j), -int(inv[i, j]))) for j in range(action.n)]
                for i in range(action.n)
            ]
            assert dets[c.classes.class_of[g]] == bareiss_det(mat)


def sympy_molien(action, table):
    """Per irreducible i, (1/|G|) sum over every element g of
    chi_i(g^-1) / det(1 - t rho(g)^-1) in sympy's GF(p)(t): rho(g)^-1 is
    inverted by sympy, and det(1 - tA) is the characteristic polynomial of
    A with its coefficients reversed."""
    group, classes, p = table.group, table.classes, table.p
    F = sympy.GF(p)
    K, t = field("t", F)
    terms = []
    for g in range(group.order):
        inv = DomainMatrix([[F(int(x)) for x in row] for row in action.rep.mats[g]], (action.n,) * 2, F).inv()
        det = sum((int(c) * t**k for k, c in enumerate(inv.charpoly())), K.zero)
        terms.append((classes.inverse_class[classes.class_of[g]], K.one / det))
    out = []
    for chi in table.values:
        acc = K.zero
        for c, term in terms:
            acc += chi[c] * term
        out.append(acc * pow(group.order, -1, p))
    return out


def monic_pair(f, p):
    """The coefficients, low to high, of f's reduced numerator and monic
    denominator."""
    lead = pow(int(f.denom.LC), -1, p)
    return [[int(c) * lead % p for c in reversed(poly.to_dense())] for poly in (f.numer, f.denom)]


@pytest.mark.parametrize(
    "name, kind, prime",
    MOLIEN_ORACLE_CASES,
    ids=["-".join(str(x) for x in case if x is not None) for case in MOLIEN_ORACLE_CASES],
)
def test_molien_class_sum_matches_the_element_sum(ctx, name, kind, prime):
    # the series, their prefixes through degree 12 and the generic
    # multiplicities, against the sum over every element in sympy's GF(p)(t)
    c = ctx(name)
    table = c.table if prime is None else iso.character_table(c.group, c.classes, prime)
    if kind.endswith(".txt"):
        p, mats = _parse_matrix_file(str(GOLDEN / kind))
        assert p == table.p
        action = iso.validate_action(c.group, mats, p)
    else:
        action = builtin_action(c.group, table.p, kind)
    want = sympy_molien(action, table)
    prefixes = cover._series_prefixes(action, 12, table)
    t = want[0].field.gens[0]
    for i, f in enumerate(want):
        series = iso.molien_multiplicity_series(action, i, table)
        assert [list(series.num.coeffs), list(series.den.coeffs)] == monic_pair(f, table.p)
        # den * prefix = num through degree 12 fixes the prefix, as den(0) != 0
        prefix = sum((c * t**k for k, c in enumerate(prefixes[i])), t.field.zero)
        cleared = (f.denom * prefix.numer - f.numer).to_dense()[::-1]
        assert all(int(x) == 0 for x in cleared[:13])
        ratio = f / want[0]
        generic = int(ratio.numer(1)) * pow(int(ratio.denom(1)), -1, table.p) % table.p
        assert iso.generic_multiplicity(action, i, table) == generic


def test_a_foreign_table_is_refused_after_the_memos_are_built(ctx):
    # S3 and C6 both split at p = 7; the memos built from the S3 table would
    # otherwise answer for C6 (generic multiplicity 1) or index past them
    s3, c6 = ctx("S3"), ctx("C6")
    assert s3.p == c6.p == 7
    action = iso.perm_action(s3.group, s3.p)
    assert iso.pushforward_report(action, 4, s3.table).passed
    for call in (iso.generic_multiplicity, lambda a, i, t: iso.pushforward_report(a, 4, t)):
        with pytest.raises(ValueError, match="C6 at p = 7 .* S3 at p = 7"):
            call(action, 1, c6.table)


def signed_perm_action(c):
    """A matrix-file action with scalars -1: each generator's permutation
    matrix times its sign, so rho = perm (x) sign, which is faithful."""
    perm = iso.permutation_rep(c.group, c.p).mats
    gens = []
    for g, g_perm in zip(c.group.generator_indices, generators(c.group)):
        sign = (-1) ** (c.group.degree - len(cycles(g_perm)))
        gens.append(perm[g] * sign % c.p)
    return cover.validate_action(c.group, gens, c.p, name="signed")


def orbit_type_actions(ctx):
    """(action, table, top degree) for the monomial actions of the orbit-type tests."""
    s4, s3, c4 = ctx("S4"), ctx("S3"), ctx("C4")
    return [
        (builtin_action(s4.group, s4.p, "perm4"), s4.table, 12),
        (builtin_action(s3.group, s3.p, "perm3"), s3.table, 12),
        (builtin_action(c4.group, c4.p, "scalar"), c4.table, 12),
        (signed_perm_action(s4), s4.table, 8),
    ]


def test_orbit_type_components_are_the_dense_projector_row_spaces(ctx):
    # every piece is decomposed through the table's one memo of orbit-block
    # reductions, shared across degrees, and matches the dense projector
    for action, table, top in orbit_type_actions(ctx):
        assert action.piece(1).images is not None
        assert (action.piece(1).scalars != 1).any() == (action.name in ("scalar1", "signed")), action.name
        for d in range(top + 1):
            components = action.piece_decomposition(d, table).components
            for i, got in enumerate(components):
                want = linalg.row_space(iso.isotypic_projector(action.piece(d), i, table).T, table.p)
                assert got.dtype == want.dtype and np.array_equal(got, want), (action.name, d, i)


def fresh_table(table):
    """A table rebuilt by `character_table`, its orbit-block memo empty."""
    return iso.character_table(table.group, table.classes, table.p)


def test_a_shared_orbit_memo_gives_the_arrays_of_a_fresh_one(ctx):
    # the session's tables are warm across degrees and actions; a table
    # rebuilt for each piece reduces every block of it cold
    for action, table, top in orbit_type_actions(ctx):
        for d in range(top + 1):
            piece = action.piece(d)
            cold = fresh_table(table)
            with_shared = reps.decompose(piece, table).components
            with_fresh = reps.decompose(piece, cold).components
            assert cold._orbit_blocks and cold._orbit_blocks is not table._orbit_blocks
            for a, b in zip(with_shared, with_fresh):
                assert np.array_equal(a, b), (action.name, d)
        assert table._orbit_blocks


def test_orbit_types_with_equal_index_maps_and_other_scalars_are_apart(ctx):
    # C4 acts on x by a primitive 4th root: every piece B_d is one line,
    # with the same index maps and scalars that repeat with period 4 in d,
    # so degrees 0..7 make four orbit types, each reduced once per irreducible
    c = ctx("C4")
    table = fresh_table(c.table)
    action = iso.scalar_action(c.group, c.p)
    for d in range(8):
        assert np.array_equal(action.piece(d).images, action.piece(0).images)
        decomp = action.piece_decomposition(d, table)
        for i, got in enumerate(decomp.components):
            want = linalg.row_space(iso.isotypic_projector(action.piece(d), i, table).T, c.p)
            assert np.array_equal(got, want), (d, i)
    assert len(table._orbit_blocks) == 4 * table.num_irreps


def test_an_orbit_memo_belongs_to_one_table(ctx):
    # two actions with one table share its blocks, reduced once; a second
    # table starts empty and reduces the same orbit types for itself
    c = ctx("S3")
    table, other = fresh_table(c.table), fresh_table(c.table)
    first, second = iso.perm_action(c.group, c.p), iso.perm_action(c.group, c.p)
    first.piece_decomposition(4, table)
    blocks = dict(table._orbit_blocks)
    assert blocks and other._orbit_blocks == {}
    second.piece_decomposition(4, table)
    assert table._orbit_blocks.keys() == blocks.keys()
    assert all(table._orbit_blocks[key] is blocks[key] for key in blocks)
    reps.decompose(second.piece(4), other)
    assert other._orbit_blocks.keys() == blocks.keys()
    assert other._orbit_blocks is not table._orbit_blocks


def test_a_monomial_piece_is_decomposed_without_a_dense_projector(ctx, monkeypatch):
    # no projector or group sum is built, no dense matrix is read, and no
    # transient array has dim^2 cells
    c = ctx("S4")
    action = iso.perm_action(c.group, c.p)
    piece = action.piece(12)

    def refuse(*args):
        raise AssertionError("a dense projector was built")

    monkeypatch.setattr(reps, "isotypic_projector", refuse)
    monkeypatch.setattr(reps, "_group_sum", refuse)
    table = fresh_table(c.table)
    table.idempotents()
    tracemalloc.start()
    try:
        decomp = reps.decompose(piece, table)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(decomp.dims()) == piece.dim == 455
    assert "mats" not in vars(piece)
    assert peak - current < piece.dim**2 * 8
