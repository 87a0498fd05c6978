"""Group construction, conjugacy data, subgroups, and power maps."""

from __future__ import annotations

import gc
import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings

import isotypic as iso
from isotypic.errors import ClosureExceedsCap, InvalidPermutation

from conftest import (
    TEST_GROUPS,
    all_subgroups,
    closure_oracle,
    elements,
    generators,
    inverse,
    is_identity,
    perm_order,
    permutation_generators,
    subgroup_closure,
)


def test_permutation_validation():
    with pytest.raises(InvalidPermutation):
        iso.Permutation((0, 0, 1))
    with pytest.raises(InvalidPermutation):
        iso.Permutation((1, 2, 3))


def test_permutation_rejects_images_that_are_not_integers():
    # int() would truncate 1.9 to 1 and parse "1"; neither is an image
    for images in ([0, 1.9], ["1", "0"], [0.0, 1.0], [np.float64(1), 0], [None]):
        with pytest.raises(InvalidPermutation, match="not all integers"):
            iso.Permutation(images)
    for images in ([1, 0], np.array([1, 0]), [np.int32(1), np.int64(0)], (np.uint8(1), 0)):
        perm = iso.Permutation(images)
        assert perm == iso.Permutation((1, 0)) and all(type(i) is int for i in perm.images)


def test_permutation_composition_and_inverse():
    a = iso.parse_cycles("(0 1 2)")
    b = iso.parse_cycles("(0 1)(2)")
    # (a * b)(x) = a(b(x))
    assert (a * b).images == (2, 1, 0)
    rng = random.Random(1)
    for _ in range(200):
        images = list(range(5))
        rng.shuffle(images)
        perm = iso.Permutation(images)
        assert is_identity(perm * inverse(perm))
        assert is_identity(inverse(perm) * perm)



@pytest.mark.parametrize("name", ["S5", "D12"])
def test_permutation_order_is_least_power_to_identity(name):
    for g in elements(iso.group_from_name(name)):
        k, power = 1, g
        while not is_identity(power):
            k, power = k + 1, power * g
        assert perm_order(g) == k


def test_build_s3_against_enumeration_oracle():
    # oracle: all 3! permutations of 3 points
    gens = [iso.parse_cycles("(0 1)(2)"), iso.parse_cycles("(0 1 2)")]
    group = iso.build_group(gens)
    assert group.order == 6
    oracle = {iso.Permutation(p) for p in itertools.permutations(range(3))}
    assert set(elements(group)) == oracle
    assert is_identity(elements(group)[0])


def test_build_trivial_group():
    group = iso.build_group([])
    assert group.order == 1
    assert is_identity(elements(group)[0])


def test_build_dihedral_from_square_generators():
    gens = [iso.parse_cycles("(0 1 2 3)"), iso.parse_cycles("(0 2)(3)")]
    group = iso.build_group(gens)
    assert group.order == 8
    assert len(set(elements(group))) == 8


def test_closure_cap(monkeypatch):
    # build_group reads DEFAULT_CAP when it runs
    gens = [iso.parse_cycles("(0 1)(4)"), iso.parse_cycles("(0 1 2 3 4)")]
    monkeypatch.setattr(iso.groups, "DEFAULT_CAP", 10)
    with pytest.raises(ClosureExceedsCap, match="cap of 10 elements"):
        iso.build_group(gens)


def test_mult_table_contract():
    for name in ("S3", "D4", "Q8", "A4"):
        group = iso.group_from_name(name)
        n = group.order
        # identity row/column and inverses
        assert all(group.mult[0, b] == b for b in range(n))
        assert all(group.mult[a, 0] == a for a in range(n))
        assert all(group.mult[a, group.inv[a]] == 0 for a in range(n))
        # exhaustive associativity at this scale
        for a in range(n):
            for b in range(n):
                ab = group.mult[a, b]
                for c in range(n):
                    assert group.mult[ab, c] == group.mult[a, group.mult[b, c]]


def test_sampled_associativity_above_exhaustive_limit():
    group = iso.group_from_name("S5")
    assert group.order == 120
    rng = random.Random(0)
    for _ in range(10_000):
        a, b, c = (rng.randrange(group.order) for _ in range(3))
        assert group.mult[group.mult[a, b], c] == group.mult[a, group.mult[b, c]]


def test_builtin_orders():
    expected = {"S1": 1, "S4": 24, "C1": 1, "C7": 7, "D1": 2, "D2": 4, "D6": 12, "Q8": 8, "A4": 12}
    for name, order in expected.items():
        assert iso.group_from_name(name).order == order
    with pytest.raises(ValueError):
        iso.group_from_name("E8")


def test_conjugacy_classes_s3():
    group = iso.group_from_name("S3")
    classes = iso.conjugacy_classes(group)
    assert classes.sizes == (1, 3, 2)
    assert classes.reps[0] == 0
    # oracle: orbit of each element under conjugation by every element
    for g in range(group.order):
        orbit = {
            int(group.mult[group.mult[h, g], group.inv[h]]) for h in range(group.order)
        }
        assert {classes.class_of[x] for x in orbit} == {classes.class_of[g]}
    assert sum(classes.sizes) == group.order
    assert all(group.order % s == 0 for s in classes.sizes)


def test_conjugacy_classes_edge_and_q8():
    c1 = iso.conjugacy_classes(iso.group_from_name("C1"))
    assert c1.sizes == (1,)
    q8 = iso.conjugacy_classes(iso.group_from_name("Q8"))
    assert sorted(q8.sizes) == [1, 1, 2, 2, 2]


def test_inverse_class_involution():
    for name in ("S3", "C4", "Q8", "A4"):
        group = iso.group_from_name(name)
        classes = iso.conjugacy_classes(group)
        for c in range(classes.num_classes):
            assert classes.inverse_class[classes.inverse_class[c]] == c
        for g in range(group.order):
            assert classes.class_of[group.inv[g]] == classes.inverse_class[classes.class_of[g]]


def test_exponent():
    assert iso.exponent(iso.group_from_name("S3")) == 6
    assert iso.exponent(iso.group_from_name("C1")) == 1
    assert iso.exponent(iso.group_from_name("Q8")) == 4
    for name in ("C6", "D4", "A4"):
        group = iso.group_from_name(name)
        assert group.order % iso.exponent(group) == 0


def test_subgroup_closure():
    s3 = iso.group_from_name("S3")
    three_cycle = next(g for g in range(6) if s3.element_order(g) == 3)
    assert subgroup_closure(s3, [three_cycle]).order == 3
    assert subgroup_closure(s3, []).order == 1
    d4 = iso.group_from_name("D4")
    rot = next(g for g in range(8) if d4.element_order(g) == 4)
    refl = next(
        g for g in range(1, 8) if d4.element_order(g) == 2 and g not in
        subgroup_closure(d4, [rot]).element_indices
    )
    assert subgroup_closure(d4, [rot, refl]).order == 8


def test_subgroup_lagrange():
    for name in ("S3", "D4", "Q8", "A4"):
        group = iso.group_from_name(name)
        for sub in all_subgroups(group):
            assert group.order % sub.order == 0
            members = set(sub.element_indices)
            assert 0 in members
            for a in members:
                assert group.inv[a] in members
                for b in members:
                    assert int(group.mult[a, b]) in members


def test_all_subgroups_counts():
    # classical subgroup counts
    assert len(all_subgroups(iso.group_from_name("S3"))) == 6
    assert len(all_subgroups(iso.group_from_name("D4"))) == 10
    assert len(all_subgroups(iso.group_from_name("Q8"))) == 6


def test_power_class_map():
    s3 = iso.group_from_name("S3")
    cls = iso.conjugacy_classes(s3)
    pm2 = iso.power_class_map(s3, cls, 2)
    assert pm2 == (0, 0, 2)  # transpositions square to 1, 3-cycles stay
    assert iso.power_class_map(s3, cls, 1) == (0, 1, 2)
    c4 = iso.group_from_name("C4")
    c4c = iso.conjugacy_classes(c4)
    pm = iso.power_class_map(c4, c4c, 2)
    assert pm[1] == c4c.class_of[int(c4.mult[1, 1])]
    assert pm == (0, 2, 0, 2)


@pytest.mark.parametrize("name", TEST_GROUPS)
def test_cached_element_orders_match_the_cycle_count_oracle(name):
    group = iso.group_from_name(name)
    want = [perm_order(g) for g in elements(group)]
    assert [group.element_order(k) for k in range(group.order)] == want
    assert iso.exponent(group) == math.lcm(*want)


@pytest.mark.parametrize("name", TEST_GROUPS + ("S4", "D6"))
def test_cyclic_subgroup_is_the_closure_of_one_element(name):
    group = iso.group_from_name(name)
    for g in range(group.order):
        got = iso.cyclic_subgroup(group, g)
        assert got == subgroup_closure(group, [g]) and got.order == group.element_order(g)


def test_power_class_map_matches_a_walk_of_k_products():
    for name in TEST_GROUPS + ("S4",):
        group = iso.group_from_name(name)
        classes = iso.conjugacy_classes(group)
        for k in range(2 * iso.exponent(group) + 2):
            want = []
            for r in classes.reps:
                acc = 0
                for _ in range(k):
                    acc = int(group.mult[acc, r])
                want.append(classes.class_of[acc])
            assert iso.power_class_map(group, classes, k) == tuple(want), (name, k)


def test_power_class_map_at_a_large_power_walks_k_mod_the_order():
    # 42949657 is the largest prime below MAX_MODULUS; a walk of k products
    # per class took about a minute on S5
    s5 = iso.group_from_name("S5")
    classes = iso.conjugacy_classes(s5)
    maps = {}
    for k in (42949657, 42949656):
        start = time.perf_counter()
        maps[k] = iso.power_class_map(s5, classes, k)
        assert time.perf_counter() - start < 1.0
        assert maps[k] == iso.power_class_map(s5, classes, k % iso.exponent(s5))
    # 37 is prime to the exponent 60 and every class of S5 is rational;
    # 36 = 0 mod 4 and mod 3 sends 4-cycles and 3-cycles to the identity
    assert maps[42949657] == tuple(range(classes.num_classes))
    assert maps[42949656] != maps[42949657]


def test_exponent_divides_order_and_element_orders():
    for name in ("S3", "C6", "D4", "Q8", "A4"):
        group = iso.group_from_name(name)
        e = iso.exponent(group)
        assert all(e % group.element_order(g) == 0 for g in range(group.order))


def test_parse_generator_text_pads_degrees():
    gens = iso.parse_generator_text("(0 1)\n(2 3)\n")
    assert all(g.degree == 4 for g in gens)
    group = iso.build_group(gens)
    assert group.order == 4


def test_word_reconstruction():
    group = iso.group_from_name("A4")
    gens, elems = generators(group), elements(group)
    for k in range(group.order):
        # multiply the generator word out and compare
        path = []
        cur = k
        while group.words[cur] is not None:
            parent, gen_pos = group.words[cur]
            path.append(gen_pos)
            cur = parent
        acc = iso.Permutation.identity(group.degree)
        for gen_pos in reversed(path):
            acc = acc * gens[gen_pos]
        assert acc == elems[k]


@pytest.mark.parametrize("name", TEST_GROUPS + ("S5", "D12"))
def test_closure_tables_match_definitions(name):
    # oracle: multiply the permutations themselves for every pair
    group = iso.group_from_name(name)
    n = group.order
    elems = elements(group)
    index = {g: k for k, g in enumerate(elems)}
    assert len(index) == n
    for a in range(n):
        row = [index[elems[a] * elems[b]] for b in range(n)]
        assert group.mult[a].tolist() == row
        assert is_identity(elems[a] * elems[group.inv[a]])
    classes = iso.conjugacy_classes(group)
    reps_seen = []
    for g in range(n):
        orbit = {index[h * elems[g] * inverse(h)] for h in elems}
        assert {classes.class_of[x] for x in orbit} == {classes.class_of[g]}
        assert classes.sizes[classes.class_of[g]] == len(orbit)
        if min(orbit) == g:
            reps_seen.append(g)
    assert classes.reps == tuple(reps_seen)  # ordered by minimum element index


# -- the closure against the one-product-at-a-time oracle ------------------------

BUILTIN_FAMILIES = {
    "S": [f"S{n}" for n in range(1, 7)],
    "C": [f"C{n}" for n in range(1, 13)],
    "D": [f"D{n}" for n in range(1, 101)],
    "other": ["Q8", "A4"],
}


def assert_matches_oracle(group, gens):
    perms, mult, inv, words, gen_idx = closure_oracle(gens)
    assert elements(group) == tuple(perms)
    assert group.mult.dtype == mult.dtype and np.array_equal(group.mult, mult)
    assert group.inv == tuple(inv)
    assert group.words == tuple(words)
    assert group.generator_indices == tuple(gen_idx)
    assert iso.exponent(group) == math.lcm(*(perm_order(g) for g in perms))


@pytest.mark.parametrize("family", BUILTIN_FAMILIES)
def test_closure_matches_the_product_oracle_on_builtin_groups(family):
    for name in BUILTIN_FAMILIES[family]:
        group = iso.group_from_name(name)
        assert_matches_oracle(group, generators(group))


def relabel(images, sigma):
    """Images of sigma g sigma^-1, as the benchmark relabels its generators."""
    out = [0] * len(images)
    for x, y in enumerate(images):
        out[sigma[x]] = sigma[y]
    return iso.Permutation(out)


@pytest.mark.parametrize("name", ["S6", "D100"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closure_matches_the_product_oracle_on_relabelled_generators(name, seed):
    gens = generators(iso.group_from_name(name))
    sigma = list(range(gens[0].degree))
    random.Random(f"{seed}:{name}").shuffle(sigma)
    relabelled = [relabel(g.images, sigma) for g in gens]
    group = iso.build_group(relabelled, name=name)
    assert_matches_oracle(group, relabelled)
    # conjugation is an isomorphism, so the table is that of the builtin generators
    assert np.array_equal(group.mult, iso.group_from_name(name).mult)


@settings(deadline=None)
@given(permutation_generators())
def test_closure_matches_the_product_oracle_on_random_generators(gens):
    assert_matches_oracle(iso.build_group(gens), gens)


def test_closure_keeps_repeated_and_identity_generators():
    gens = [iso.parse_cycles("(0 1 2)"), iso.Permutation.identity(3), iso.parse_cycles("(0 1 2)")]
    group = iso.build_group(gens)
    assert group.order == 3 and group.generator_indices == (1, 0, 1)
    assert_matches_oracle(group, gens)
    assert_matches_oracle(iso.build_group([iso.Permutation(())]), [iso.Permutation(())])
    # the generators, the identity and the repeat included, are rows of images
    assert group.images[list(group.generator_indices)].tolist() == [list(g.images) for g in gens]
    assert group.images.shape == (group.order, group.degree) == (3, 3)
    assert group.images.dtype == np.min_scalar_type(max(group.degree - 1, 0))
    assert group.images[0].tolist() == [0, 1, 2]
    assert not group.images.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        group.images[1, 0] = 0


def test_closure_makes_no_permutation():
    # one Permutation kept per element would be 200 more on D100
    gens = generators(iso.group_from_name("D100"))
    gc.collect()
    before = sum(isinstance(obj, iso.Permutation) for obj in gc.get_objects())
    group = iso.build_group(gens)
    gc.collect()
    after = sum(isinstance(obj, iso.Permutation) for obj in gc.get_objects())
    assert group.order == 200 and after == before


def test_closure_cap_boundary(monkeypatch):
    gens = generators(iso.group_from_name("S4"))
    monkeypatch.setattr(iso.groups, "DEFAULT_CAP", 24)
    assert iso.build_group(gens).order == 24
    monkeypatch.setattr(iso.groups, "DEFAULT_CAP", 23)
    with pytest.raises(ClosureExceedsCap, match="cap of 23 elements"):
        iso.build_group(gens)
