"""Character tables, their class weights, idempotents, and the character
functors."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

import isotypic as iso
from isotypic.characters import cyclic_weight_multiplicities
from isotypic.errors import NotAMultiplicity

from conftest import (
    TEST_GROUPS,
    char_dual,
    char_square,
    char_tensor,
    convolve,
    delta_element,
    inner_mult,
    subgroup_closure,
)


def char_scale(v, s, p):
    """Character of a direct sum of s copies."""
    return tuple(s * a % p for a in v)


def test_structure_constants_s3(ctx):
    c = ctx("S3")
    a1 = iso.class_matrix(c.group, c.classes, 1)
    # oracle: multiply transpositions pairwise by hand via the element list
    transp = [g for g in range(6) if c.classes.class_of[g] == 1]
    counts = [0, 0, 0]
    target_rep = c.classes.reps  # one fixed representative per class
    for z_class, z in enumerate(target_rep):
        for x in transp:
            y = int(c.group.mult[c.group.inv[x], z])
            if c.classes.class_of[y] == 1:
                counts[z_class] += 1
    assert a1[1].tolist() == counts == [3, 0, 3]


def test_structure_constants_identity_row(ctx):
    for name in ("C4", "S3", "Q8"):
        c = ctx(name)
        assert np.array_equal(iso.class_matrix(c.group, c.classes, 0), np.eye(c.classes.num_classes))


def test_structure_constants_c4_generator_square(ctx):
    c = ctx("C4")
    gen_class = c.classes.class_of[1]
    square_class = c.classes.class_of[int(c.group.mult[1, 1])]
    assert iso.class_matrix(c.group, c.classes, gen_class)[gen_class].tolist() == [
        1 if l == square_class else 0 for l in range(c.classes.num_classes)
    ]


def test_class_matrix_counts_factorizations(ctx):
    # the loop oracle: x of class i with x^-1 z_k of class j, for each class rep z_k
    for name in TEST_GROUPS:
        c = ctx(name)
        k = c.classes.num_classes
        for i in range(k):
            expected = np.zeros((k, k), dtype=np.int64)
            for ck, z in enumerate(c.classes.reps):
                for x in range(c.group.order):
                    if c.classes.class_of[x] == i:
                        expected[c.classes.class_of[int(c.group.mult[c.group.inv[x], z])], ck] += 1
            assert np.array_equal(iso.class_matrix(c.group, c.classes, i), expected), (name, i)


def test_character_table_c2():
    group = iso.group_from_name("C2")
    classes = iso.conjugacy_classes(group)
    table = iso.character_table(group, classes, 3)
    assert table.values == ((1, 1), (1, 2))
    assert table.degrees == (1, 1)


def test_character_table_c1(ctx):
    c = ctx("C1")
    assert c.table.values == ((1,),)
    assert c.p == 2


def test_character_table_s3_frozen(ctx):
    # classical S3 table mapped into F_7 (-1 = 6)
    c = ctx("S3")
    assert c.table.degrees == (1, 1, 2)
    assert c.table.values == ((1, 1, 1), (1, 6, 1), (2, 0, 6))


def test_tables_compare_by_their_characters_not_their_caches(ctx):
    # the idempotents are arrays and the orbit blocks hold arrays: neither
    # may enter `==`, which would raise on their truth value
    c = ctx("S3")
    first, second = (iso.character_table(c.group, c.classes, c.p) for _ in range(2))
    assert first == second
    first.idempotents()
    second.idempotents()
    assert first == second
    iso.decompose(iso.permutation_rep(c.group, c.p), first)
    assert first._orbit_blocks and not second._orbit_blocks
    assert first == second
    other = iso.character_table(c.group, c.classes, 13)
    other.idempotents()
    assert first != other and other != second


def test_character_table_shapes(ctx):
    expected_degrees = {
        "C1": (1,),
        "C2": (1, 1),
        "C3": (1, 1, 1),
        "C4": (1, 1, 1, 1),
        "C6": (1,) * 6,
        "S3": (1, 1, 2),
        "D4": (1, 1, 1, 1, 2),
        "Q8": (1, 1, 1, 1, 2),
        "A4": (1, 1, 1, 3),
    }
    for name in TEST_GROUPS:
        c = ctx(name)
        assert c.table.degrees == expected_degrees[name]
        assert sum(d * d for d in c.table.degrees) == c.group.order
        assert c.table.values[0] == tuple([1] * c.classes.num_classes)


def test_row_orthogonality_exact(ctx):
    for name in TEST_GROUPS:
        c = ctx(name)
        r = c.table.num_irreps
        gram = c.table.weights() @ np.array(c.table.values).T % c.p
        assert np.array_equal(gram, np.eye(r))
        for i in range(r):
            for j in range(r):
                assert inner_mult(c.table, c.table.values[j], c.table.values[i]) == (1 if i == j else 0)


def test_weights_match_the_inner_product_loop_and_are_built_once(ctx, monkeypatch):
    built = []
    real = iso.characters.class_weights
    monkeypatch.setattr(iso.characters, "class_weights", lambda table: built.append(table) or real(table))
    for name in TEST_GROUPS:
        c = ctx(name)
        # a fresh table: its Gram check, the tensor multiplicities and a
        # decomposition all read the one W that the table keeps
        table = iso.character_table(c.group, c.classes, c.p)
        iso.tensor_multiplicities(table)
        iso.decompose(iso.regular_rep(c.group, c.p), table)
        weights = table.weights()
        assert sum(t is table for t in built) == 1 and table.weights() is weights
        assert not weights.flags.writeable
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(10):
            f = tuple(int(x) for x in rng.integers(0, c.p, c.classes.num_classes))
            want = [inner_mult(table, f, chi) for chi in table.values]
            assert (weights @ np.array(f) % c.p).tolist() == want


def test_column_orthogonality_exact(ctx):
    for name in TEST_GROUPS:
        c = ctx(name)
        p, k = c.p, c.classes.num_classes
        for ci in range(k):
            for cj in range(k):
                acc = 0
                for row in c.table.values:
                    acc += row[ci] * row[c.classes.inverse_class[cj]]
                want = (
                    c.group.order
                    * pow(c.classes.sizes[ci], p - 2, p)
                    % p
                    if ci == cj
                    else 0
                )
                assert acc % p == want % p


def test_regular_character_decomposition(ctx):
    for name in TEST_GROUPS:
        c = ctx(name)
        reg = [0] * c.classes.num_classes
        reg[0] = c.group.order % c.p
        acc = [0] * c.classes.num_classes
        for i, row in enumerate(c.table.values):
            for cl in range(c.classes.num_classes):
                acc[cl] = (acc[cl] + c.table.degrees[i] * row[cl]) % c.p
        assert acc == reg


def test_inner_mult_examples(ctx):
    c = ctx("S3")
    reg = (6, 0, 0)
    perm = (3, 1, 0)
    # reg holds each irreducible deg_i times; perm is trivial plus standard
    for chi, want in ((reg, [1, 1, 2]), (perm, [1, 0, 1])):
        assert (c.table.weights() @ np.array(chi) % c.p).tolist() == want
        assert [inner_mult(c.table, chi, v) for v in c.table.values] == want


def test_central_idempotents_c2():
    group = iso.group_from_name("C2")
    classes = iso.conjugacy_classes(group)
    table = iso.character_table(group, classes, 3)
    idems = iso.central_idempotents(table)
    assert idems[0].tolist() == [2, 2]  # 1/2 = 2 mod 3
    assert idems[1].tolist() == [2, 1]


def test_central_idempotents_identities(ctx):
    for name in TEST_GROUPS:
        c = ctx(name)
        idems = iso.central_idempotents(c.table)
        p, n = c.p, c.group.order
        # convolution oracle: explicit double loop over the group
        def conv(a, b):
            out = [0] * n
            for g in range(n):
                for h in range(n):
                    out[int(c.group.mult[g, h])] = (
                        out[int(c.group.mult[g, h])] + int(a[g]) * int(b[h])
                    ) % p
            return out

        total = np.zeros(n, dtype=np.int64)
        for i, e_i in enumerate(idems):
            total = (total + e_i) % p
            for j, e_j in enumerate(idems):
                want = e_i.tolist() if i == j else [0] * n
                assert conv(e_i, e_j) == want
                assert convolve(e_i, e_j, c.group, p).tolist() == want
        unit = [0] * n
        unit[0] = 1
        assert total.tolist() == unit
        # centrality: e * delta_g = delta_g * e for every element
        for e_i in idems:
            for g in range(n):
                d = delta_element(c.group, g)
                assert np.array_equal(
                    convolve(e_i, d, c.group, p), convolve(d, e_i, c.group, p)
                )


def test_idempotent_s3_example(ctx):
    c = ctx("S3")
    idems = iso.central_idempotents(c.table)
    assert idems[0].tolist() == [6] * 6  # 1/6 = 6 mod 7
    assert convolve(idems[0], idems[0], c.group, c.p).tolist() == idems[0].tolist()


def test_char_dual_tensor(ctx):
    c = ctx("S3")
    std = c.table.values[2]
    assert char_dual(std, c.classes) == std
    sign = c.table.values[1]
    assert char_tensor(sign, sign, c.p) == c.table.values[0]
    perm = (3, 1, 0)
    assert char_tensor(perm, c.table.values[0], c.p) == perm


def test_char_ext_power_perm_s3(ctx):
    c = ctx("S3")
    perm = (3, 1, 0)
    lam2 = char_square(perm, c.table, -1)
    assert lam2 == (3, 6, 0)  # (3, -1, 0) mod 7
    assert (c.table.weights() @ np.array(lam2) % c.p).tolist() == [0, 1, 1]  # sign + standard


def test_restrict_invariant_dim(ctx):
    c = ctx("S3")
    a3 = subgroup_closure(c.group, [2])
    assert a3.order == 3
    std, sign = c.table.values[2], c.table.values[1]
    assert iso.restrict_invariant_dim(c.table, std, a3) == 0
    assert iso.restrict_invariant_dim(c.table, sign, a3) == 1
    trivial_sub = subgroup_closure(c.group, [])
    assert iso.restrict_invariant_dim(c.table, std, trivial_sub) == 2


def test_cyclic_weight_multiplicities(ctx):
    c = ctx("S3")
    std = c.table.values[2]
    transp = 1
    mults = cyclic_weight_multiplicities(c.table, std, transp)
    assert mults == [1, 1]  # eigenvalues +1 and -1, once each


def test_splitting_element(ctx):
    c = ctx("S3")
    assert iso.splitting_element(c.table, 2) == 1  # first transposition
    for name in ("Q8", "D4", "A4"):
        cc = ctx(name)
        for i, d in enumerate(cc.table.degrees):
            if d < 2:
                continue
            g = iso.splitting_element(cc.table, i)
            mults = cyclic_weight_multiplicities(cc.table, cc.table.values[i], g)
            assert sum(1 for m in mults if m) >= 2
    with pytest.raises(ValueError):
        iso.splitting_element(c.table, 0)


def test_tensor_multiplicities_s3(ctx):
    c = ctx("S3")
    n = iso.tensor_multiplicities(c.table)
    assert n[2, 2].tolist() == [1, 1, 1]  # std (x) std = trivial + sign + std
    assert n[1, 1].tolist() == [1, 0, 0]  # sign (x) sign = trivial
    for j in range(3):
        assert n[0, j].tolist() == [1 if l == j else 0 for l in range(3)]


def test_tensor_multiplicities_invariants(ctx):
    for name in ("C4", "S3", "D4", "Q8", "A4"):
        c = ctx(name)
        n = iso.tensor_multiplicities(c.table)
        r = c.table.num_irreps
        degs = np.array(c.table.degrees)
        assert np.array_equal(n, n.transpose(1, 0, 2))
        for i in range(r):
            for j in range(r):
                assert int(n[i, j] @ degs) == degs[i] * degs[j]


def looped_tensor_multiplicities(table):
    """`tensor_multiplicities` as it was first written: one loop-oracle
    `inner_mult` per (i, j, l) with j >= i, each a loop over the classes,
    and each value a true multiplicity, at most deg_i deg_j."""
    r, p = table.num_irreps, table.p
    n = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        for j in range(i, r):
            prod = char_tensor(table.values[i], table.values[j], p)
            for l in range(r):
                n[i, j, l] = inner_mult(table, prod, table.values[l])
                assert n[i, j, l] <= table.degrees[i] * table.degrees[j]
            n[j, i] = n[i, j]
    return n


@pytest.mark.parametrize("name", (*TEST_GROUPS, "S4", "S5", "S6", "D12", "D50", "D100"))
def test_tensor_multiplicities_match_the_inner_product_loop(ctx, name):
    table = ctx(name).table
    n = iso.tensor_multiplicities(table)
    assert np.array_equal(n, looped_tensor_multiplicities(table))
    # chi_i chi_j = chi_j chi_i: the cover's product pass tests each
    # unordered pair {i, j} at a == b against one forbidden set
    assert np.array_equal(n, n.transpose(1, 0, 2))


def test_tensor_multiplicities_refuse_a_row_that_is_no_character(ctx):
    # the standard row of S3 doubled, its degree 2 kept: trivial (x) 2 std
    # holds 2 std <2 std, 2 std> = 4 times, above the product degree 2
    c = ctx("S3")
    doubled = tuple(2 * v % c.p for v in c.table.values[2])
    table = iso.CharacterTable(c.group, c.classes, c.p, (*c.table.values[:2], doubled), c.table.degrees)
    with pytest.raises(NotAMultiplicity, match="exceeds the product degree"):
        iso.tensor_multiplicities(table)


def test_sum_of_copies_pairing(ctx):
    # the trivial component of (s copies of V) (x) V-dual has dimension s
    for name in ("S3", "D4", "A4"):
        c = ctx(name)
        for i in range(c.table.num_irreps):
            dual = char_dual(c.table.values[i], c.classes)
            for s in range(1, 5):
                chi = char_tensor(char_scale(c.table.values[i], s, c.p), dual, c.p)
                assert (c.table.weights() @ np.array(chi) % c.p)[0] == s
                assert inner_mult(c.table, chi, c.table.values[0]) == s
