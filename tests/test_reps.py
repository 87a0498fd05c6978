"""Matrix representations: projectors, decompositions, hom spaces, functors."""

from __future__ import annotations

import hashlib
import json
import math
import random
import zlib
from pathlib import Path

import numpy as np
import pytest

import isotypic as iso
from isotypic import linalg
from isotypic.errors import (
    MethodMismatch,
    ModulusTooLarge,
    NotAHomomorphism,
    NotAnIntertwiner,
    NotInjective,
    SingularMatrix,
    SystemTooLarge,
    WrongImage,
)
from isotypic.cover import _sym_power_step
from isotypic.reps import multiplicity_space, restrict_to_subspace

from conftest import (
    TEST_GROUPS,
    all_subgroups,
    char_dual,
    char_square,
    char_sym_cube,
    char_tensor,
    convolve,
    direct_sum,
    ext_square,
    intertwiner_basis,
    matrix_inverse,
    random_invertible,
    sym_power,
    tensor,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def conjugate_rep(rep, s):
    """Change of basis rho'(g) = S rho(g) S^-1, one element at a time."""
    p = rep.p
    s = linalg.asmat(s, p)
    s_inv = matrix_inverse(s, p)
    return iso.MatrixRep(rep.group, p, np.stack([linalg.matmul(s, linalg.matmul(m, s_inv, p), p) for m in rep.mats]))


def random_rep(c, rng, max_total_dim=6):
    """Random direct sum of irreducible models in a random basis."""
    while True:
        mults = [rng.randrange(0, 3) for _ in range(c.table.num_irreps)]
        dim = sum(m * d for m, d in zip(mults, c.table.degrees))
        if 0 < dim <= max_total_dim:
            break
    rep = direct_sum(*(c.models[i] for i, m in enumerate(mults) for _ in range(m)))
    return conjugate_rep(rep, random_invertible(rng, rep.dim, c.p)), tuple(mults)


def test_regular_rep_character(ctx):
    c = ctx("S3")
    reg = iso.regular_rep(c.group, c.p)
    assert reg.dim == 6
    assert iso.character_of(reg, c.classes) == (6, 0, 0)


def test_permutation_rep(ctx):
    c = ctx("C1")
    rep = iso.permutation_rep(c.group, c.p)
    assert rep.dim == 1 and rep.mats[0].tolist() == [[1]]
    s3 = ctx("S3")
    perm = iso.permutation_rep(s3.group, s3.p)
    assert iso.character_of(perm, s3.classes) == (3, 1, 0)


def test_rep_from_matrices_standard_s3(ctx):
    c = ctx("S3")
    rep = iso.rep_from_matrices(c.group, c.p, [[[0, 1], [1, 0]], [[0, 6], [1, 6]]])
    assert iso.character_of(rep, c.classes) == (2, 0, 6)


def test_rep_from_matrices_rejects_non_homomorphism(ctx):
    c = ctx("S3")
    # order-2 generator sent to an order-3 matrix cannot extend
    bad = [[[0, 6], [1, 6]], [[0, 6], [1, 6]]]
    with pytest.raises(NotAHomomorphism) as err:
        iso.rep_from_matrices(c.group, c.p, bad)
    assert err.value.word is not None


def test_rep_from_matrices_rejects_singular(ctx):
    c = ctx("S3")
    with pytest.raises(SingularMatrix):
        iso.rep_from_matrices(c.group, c.p, [[[0, 0], [0, 0]], [[0, 6], [1, 6]]])


def test_isotypic_projector_algebra(ctx):
    # on the regular rep, rho(g) e_c = e_{g*c}, so P_i is left multiplication
    # by e_i: P_i e_j is the product e_i e_j of the convolution oracle
    for name in TEST_GROUPS:
        c = ctx(name)
        reg = iso.regular_rep(c.group, c.p)
        idems = c.table.idempotents()
        projs = [iso.isotypic_projector(reg, i, c.table) for i in range(c.table.num_irreps)]
        total = np.zeros((reg.dim, reg.dim), dtype=np.int64)
        for i, pi in enumerate(projs):
            total = (total + pi) % c.p
            assert np.array_equal(pi @ pi % c.p, pi)
            for j, pj in enumerate(projs):
                assert np.array_equal(pi @ idems[j] % c.p, convolve(idems[i], idems[j], c.group, c.p))
                if i != j:
                    assert not np.any(pi @ pj % c.p)
            for g in range(c.group.order):
                assert np.array_equal(pi @ reg.mats[g] % c.p, reg.mats[g] @ pi % c.p)
        assert np.array_equal(total, linalg.identity(reg.dim))


def test_projector_ranks_regular_s3(ctx):
    c = ctx("S3")
    reg = iso.regular_rep(c.group, c.p)
    ranks = [
        linalg.rank(iso.isotypic_projector(reg, i, c.table), c.p) for i in range(3)
    ]
    assert ranks == [1, 1, 4]


def test_decompose_regular_all_groups(ctx):
    for name in TEST_GROUPS:
        c = ctx(name)
        reg = iso.regular_rep(c.group, c.p)
        decomp = iso.decompose(reg, c.table)
        assert decomp.multiplicities == c.table.degrees
        assert decomp.dims() == tuple(d * d for d in c.table.degrees)
        # every component is stable under the action: restricting raises otherwise
        for basis in decomp.components:
            if basis.shape[0]:
                restrict_to_subspace(reg, basis)


def test_decompose_builds_the_idempotents_once(monkeypatch):
    # five projectors, one set of idempotent rows per table
    group = iso.group_from_name("S4")
    p = iso.choose_prime(group)
    table = iso.character_table(group, iso.conjugacy_classes(group), p)
    builds = []
    build = iso.characters.central_idempotents
    monkeypatch.setattr(iso.characters, "central_idempotents", lambda t: builds.append(t) or build(t))
    decomp = iso.decompose(iso.regular_rep(group, p), table)
    assert decomp.multiplicities == table.degrees == (1, 1, 2, 3, 3)
    assert builds == [table]
    rows = table.idempotents()
    assert rows is table.idempotents() and len(builds) == 1
    assert all(not row.flags.writeable for row in rows)
    assert all(np.array_equal(a, b) for a, b in zip(rows, build(table)))


def test_decompose_perm_s3(ctx):
    c = ctx("S3")
    perm = iso.permutation_rep(c.group, c.p)
    decomp = iso.decompose(perm, c.table)
    assert decomp.multiplicities == (1, 0, 1)
    assert decomp.dims() == (1, 0, 2)


def test_decompose_zero_dimensional_rep(ctx):
    c = ctx("S3")
    zero = iso.MatrixRep(c.group, c.p, np.zeros((6, 0, 0), dtype=np.int64))
    decomp = iso.decompose(zero, c.table)
    assert decomp.multiplicities == (0, 0, 0)
    assert decomp.dims() == (0, 0, 0)


def test_trivial_projector_on_trivial_rep(ctx):
    c = ctx("S3")
    triv = iso.trivial_rep(c.group, c.p)
    proj = iso.isotypic_projector(triv, 0, c.table)
    assert proj.tolist() == [[1]]


def test_hom_dim_examples(ctx):
    c = ctx("S3")
    std = c.models[2]
    two_std = direct_sum(std, std)
    assert iso.hom_dim(two_std, std, c.table) == 2
    assert two_std.dim * std.dim // (c.table.degrees[2] ** 2) == 2  # rank formula
    assert iso.hom_dim(c.models[0], c.models[1], c.table) == 0
    for i in range(3):
        assert iso.hom_dim(c.models[i], c.models[i], c.table) == 1


def test_hom_dim_two_methods_randomized(ctx):
    for name in TEST_GROUPS:
        c = ctx(name)
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(20):
            r1, m1 = random_rep(c, rng)
            r2, m2 = random_rep(c, rng)
            # MethodMismatch would raise inside hom_dim
            got = iso.hom_dim(r1, r2, c.table)
            assert got == sum(a * b for a, b in zip(m1, m2))


def test_hom_dim_compares_each_multiplicity_space_with_its_character(ctx, monkeypatch):
    # S3's regular rep has multiplicity spaces of lengths (1, 1, 2) at p = 7;
    # planted lengths (2, 1, 1) keep sum m^2 = 6, the character total
    c = ctx("S3")
    assert c.p == 7
    reg = iso.regular_rep(c.group, c.p)
    planted = dict(zip(map(id, c.models), (2, 1, 1)))
    real = multiplicity_space
    monkeypatch.setattr(
        iso.reps, "multiplicity_space", lambda rep, model: [None] * planted[id(model)] if rep is reg else real(rep, model)
    )
    with pytest.raises(MethodMismatch, match="^r1: multiplicity space 0 has dimension 2, character 1 mod 7$"):
        iso.hom_dim(reg, reg, c.table)
    with pytest.raises(MethodMismatch, match="^r2: multiplicity space 0 has dimension 2, character 1 mod 7$"):
        iso.hom_dim(c.models[2], reg, c.table)


def test_hom_dim_pure_type_formula(ctx):
    for name in ("S3", "D4", "Q8", "A4"):
        c = ctx(name)
        rng = random.Random(7)
        i = max(range(c.table.num_irreps), key=lambda k: c.table.degrees[k])
        n_i = c.table.degrees[i]
        for a, b in ((1, 1), (1, 2), (2, 2)):
            r1 = direct_sum(*[c.models[i]] * a)
            r2 = direct_sum(*[c.models[i]] * b)
            r1 = conjugate_rep(r1, random_invertible(rng, r1.dim, c.p))
            r2 = conjugate_rep(r2, random_invertible(rng, r2.dim, c.p))
            assert iso.hom_dim(r1, r2, c.table) == a * b
            assert a * b == (r1.dim * r2.dim) // (n_i * n_i)
        # cross-type hom vanishes
        j = next(k for k in range(c.table.num_irreps) if k != i)
        assert iso.hom_dim(c.models[i], c.models[j], c.table) == 0


def test_dual_tensor_sym_ext_characters(ctx):
    c = ctx("S3")
    perm = iso.permutation_rep(c.group, c.p)
    std = c.models[2]
    chi_perm = iso.character_of(perm, c.classes)
    chi_std = iso.character_of(std, c.classes)
    assert iso.character_of(tensor(perm, std), c.classes) == char_tensor(chi_perm, chi_std, c.p)
    assert iso.character_of(iso.dual_rep(perm), c.classes) == char_dual(chi_perm, c.classes)
    assert iso.character_of(sym_power(perm, 2), c.classes) == char_square(chi_perm, c.table, 1)
    assert iso.character_of(ext_square(perm), c.classes) == char_square(chi_perm, c.table, -1)
    # double dual has the character of the original
    assert iso.character_of(iso.dual_rep(iso.dual_rep(std)), c.classes) == chi_std


def sym_power_by_expansion(rep, k):
    """Reference symmetric power: each column expands the product of the
    images of the basis vectors in the polynomial model, one element at a
    time through a dictionary of sorted multisets."""
    from itertools import combinations_with_replacement

    p = rep.p
    basis = list(combinations_with_replacement(range(rep.dim), k))
    index = {m: i for i, m in enumerate(basis)}
    out = np.zeros((rep.group.order, len(basis), len(basis)), dtype=np.int64)
    for g in range(rep.group.order):
        mat = rep.mats[g]
        for col, mset in enumerate(basis):
            terms = {(): 1}
            for j in mset:
                new = {}
                for key, val in terms.items():
                    for i in range(rep.dim):
                        c = mat[i, j]
                        if c:
                            nk = tuple(sorted(key + (i,)))
                            new[nk] = (new.get(nk, 0) + val * c) % p
                terms = new
            for key, val in terms.items():
                out[g, index[key], col] = val
    return out


def test_sym_power_matches_expansion_oracle(ctx):
    q8 = ctx("Q8")
    d4 = ctx("D4")
    reps = [
        iso.permutation_rep(ctx("S3").group, ctx("S3").p),
        iso.reflection_action(d4.group, d4.p).rep,
        iso.permutation_rep(ctx("A4").group, ctx("A4").p),
        next(m for m in q8.models if m.dim == 2),
    ]
    for rep in reps:
        for k in range(5):
            got = sym_power(rep, k)
            want = sym_power_by_expansion(rep, k)
            assert got.mats.dtype == want.dtype and np.array_equal(got.mats, want)
    with pytest.raises(ValueError):
        iso.perm_action(ctx("S3").group, ctx("S3").p).piece(-1)


def test_ext_power_perm_type(ctx):
    c = ctx("S3")
    lam2 = ext_square(iso.permutation_rep(c.group, c.p))
    decomp = iso.decompose(lam2, c.table)
    assert decomp.multiplicities == (0, 1, 1)


def test_tensor_with_trivial_is_identity(ctx):
    c = ctx("D4")
    rng = random.Random(3)
    rep, mults = random_rep(c, rng)
    tens = tensor(rep, iso.trivial_rep(c.group, c.p))
    decomp = iso.decompose(tens, c.table)
    assert decomp.multiplicities == mults


def test_functor_character_identities_randomized(ctx):
    for name in TEST_GROUPS:
        c = ctx(name)
        rng = random.Random(len(name))
        for _ in range(20):
            r1, _ = random_rep(c, rng, max_total_dim=4)
            r2, _ = random_rep(c, rng, max_total_dim=4)
            chi1 = iso.character_of(r1, c.classes)
            chi2 = iso.character_of(r2, c.classes)
            assert iso.character_of(tensor(r1, r2), c.classes) == char_tensor(chi1, chi2, c.p)
            assert iso.character_of(iso.dual_rep(r1), c.classes) == char_dual(
                chi1, c.classes
            )
            if c.p > 2:
                assert iso.character_of(sym_power(r1, 2), c.classes) == char_square(chi1, c.table, 1)
                if r1.dim >= 2:
                    assert iso.character_of(ext_square(r1), c.classes) == char_square(chi1, c.table, -1)
            if c.p > 3:
                assert iso.character_of(sym_power(r1, 3), c.classes) == char_sym_cube(chi1, c.table)


def test_subgroup_invariants_all_groups(ctx):
    # the H-fixed part of the regular rep has dimension |G/H|, three ways on
    # every subgroup: orbit counts on the monomial rep, the averaging
    # projector's rank on a dense copy, and the characters, sum_i deg_i dim V_i^H
    for name in ("C4", "D4", "A4"):
        c = ctx(name)
        reg = iso.regular_rep(c.group, c.p)
        dense = iso.MatrixRep(c.group, c.p, reg.mats)
        assert dense.images is None
        for sub in all_subgroups(c.group):
            cosets = c.group.order // sub.order
            assert iso.fixed_dim(reg, sub) == cosets
            assert iso.fixed_dim(dense, sub) == cosets
            by_characters = sum(
                d * iso.restrict_invariant_dim(c.table, chi, sub) for d, chi in zip(c.table.degrees, c.table.values)
            )
            assert by_characters == cosets


def test_irreducible_models(ctx):
    for name in TEST_GROUPS:
        c = ctx(name)
        assert [m.dim for m in c.models] == list(c.table.degrees)
        for i, model in enumerate(c.models):
            assert iso.character_of(model, c.classes) == c.table.values[i]
            assert iso.hom_dim(model, model, c.table) == 1


def test_multiplicity_space_and_evaluation(ctx):
    c = ctx("S3")
    reg = iso.regular_rep(c.group, c.p)
    basis = intertwiner_basis(c.models[2], reg)
    assert len(basis) == 2
    for t_mat in basis:
        for g in range(c.group.order):
            lhs = reg.mats[g] @ t_mat % c.p
            rhs = t_mat @ c.models[2].mats[g] % c.p
            assert np.array_equal(lhs, rhs)
    ok, assembled = iso.evaluation_iso_check(reg, 2, c.table, c.models[2])
    assert ok and assembled.shape == (6, 4)


def test_evaluation_iso_zero_multiplicity(ctx):
    c = ctx("S3")
    perm = iso.permutation_rep(c.group, c.p)
    ok, assembled = iso.evaluation_iso_check(perm, 1, c.table, c.models[1])
    assert ok and assembled.shape == (3, 0)


def test_evaluation_iso_on_model_itself(ctx):
    c = ctx("Q8")
    i = c.table.num_irreps - 1
    ok, assembled = iso.evaluation_iso_check(c.models[i], i, c.table, c.models[i])
    assert ok and assembled.shape == (2, 2)


def test_evaluation_iso_everywhere(ctx):
    for name in TEST_GROUPS:
        c = ctx(name)
        for rep in (iso.regular_rep(c.group, c.p), iso.permutation_rep(c.group, c.p)):
            for i in range(c.table.num_irreps):
                ok, _ = iso.evaluation_iso_check(rep, i, c.table, c.models[i])
                assert ok


def test_evaluation_iso_rejects_a_dependent_multiplicity_basis(ctx, monkeypatch):
    # [T, T] spans one intertwiner: the assembled map from V_i (x) F_p^2 has a kernel
    c = ctx("S3")
    reg = iso.regular_rep(c.group, c.p)
    t_mat = multiplicity_space(reg, c.models[2])[0]
    monkeypatch.setattr(iso.reps, "multiplicity_space", lambda rep, model: [t_mat, t_mat])
    with pytest.raises(NotInjective, match="irreducible 2 has a kernel"):
        iso.evaluation_iso_check(reg, 2, c.table, c.models[2])


def same_blocks(table, blocks):
    """The orbit-block memo of `table` holds exactly the entries of `blocks`."""
    memo = table._orbit_blocks
    return memo.keys() == blocks.keys() and all(memo[key] is blocks[key] for key in blocks)


EVALUATION_CASES = (("S4", "regular"), ("A4", "regular"), ("S5", "regular"), ("S4", "perm"))


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_evaluation_iso_builds_no_dense_projector(ctx, monkeypatch, warm):
    # the component of a monomial rep is assembled from the table's orbit
    # blocks: on a warm table every block is a hit, on a rebuilt one each
    # orbit type is reduced here
    monkeypatch.setattr(iso.reps, "isotypic_projector", lambda *args: pytest.fail("a dense projector was built"))
    for name, kind in EVALUATION_CASES:
        c = ctx(name)
        rep = iso.regular_rep(c.group, c.p) if kind == "regular" else iso.permutation_rep(c.group, c.p)
        table = c.table if warm else iso.character_table(c.group, c.classes, c.p)
        if warm:
            iso.decompose(rep, table)
        blocks = dict(table._orbit_blocks)
        for i, model in enumerate(c.models):
            ok, _ = iso.evaluation_iso_check(rep, i, table, model)
            assert ok, (c.name, kind, i)
        if warm:
            assert same_blocks(table, blocks), (c.name, kind)
        else:
            assert not blocks and table._orbit_blocks, (c.name, kind)


@pytest.mark.parametrize("name", ["S4", "A4"])
def test_the_evaluation_component_is_the_projector_row_space(ctx, monkeypatch, name):
    # the component `evaluation_iso_check` compares, on the monomial rep
    # and on its dense copy, is the row space of the dense projector
    c = ctx(name)
    compared = []
    components = iso.reps._components
    monkeypatch.setattr(iso.reps, "_components", lambda *args: compared.append(components(*args)) or compared[-1])
    for rep in (iso.regular_rep(c.group, c.p), iso.permutation_rep(c.group, c.p)):
        dense = iso.MatrixRep(c.group, c.p, rep.mats)
        for i, model in enumerate(c.models):
            want = linalg.row_space(iso.isotypic_projector(rep, i, c.table).T, c.p)
            compared.clear()
            ok, assembled = iso.evaluation_iso_check(rep, i, c.table, model)
            ok_dense, assembled_dense = iso.evaluation_iso_check(dense, i, c.table, model)
            assert ok and ok_dense and np.array_equal(assembled, assembled_dense)
            assert len(compared) == 2
            for (got,) in compared:
                assert got.dtype == want.dtype and np.array_equal(got, want), (i, rep.dim)


def test_s5_models_and_evaluations_reduce_each_component_once(monkeypatch, s5):
    # on a fresh table, the 120 x 120 eliminations are the 7 components of
    # `decompose` and the 7 `row_space(p_0^T)` of `multiplicity_space`; the
    # 7 components of the evaluations are the table's blocks.  The other
    # 120-row eliminations are the Burnside ranks of the 7 models, one
    # 120 x n_i^2 matrix each
    group, classes, p, _ = s5
    table = iso.character_table(group, classes, p)
    shapes = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda a, *args: shapes.append(a.shape) or rref(a, *args))
    models = iso.irreducible_models(group, table)
    reg = iso.regular_rep(group, p)
    for i, model in enumerate(models):
        ok, _ = iso.evaluation_iso_check(reg, i, table, model)
        assert ok
    assert shapes.count((120, 120)) == 14
    burnside = [shape for shape in shapes if shape[0] == 120 and shape != (120, 120)]
    assert burnside == [(120, d * d) for d in table.degrees]


def test_the_s5_regular_report_reads_no_dense_matrices(s5):
    # `hom_dim` reaches Hom_G through Serre's operators, which a monomial
    # rep sums from its index maps
    group, _, p, table = s5
    reg = iso.regular_rep(group, p)
    report = iso.reps.decomposition_report(reg, table)
    assert report["endomorphism_dim"] == 120 and report["pass"]
    assert "mats" not in vars(reg)


def test_a_foreign_rep_is_refused_by_the_table(ctx):
    # S3 and C6 both split at p = 7 and their regular reps are one orbit
    # of 6; blocks keyed by local index maps must not cross between them,
    # nor between primes
    s3, c6 = ctx("S3"), ctx("C6")
    assert s3.p == c6.p == 7
    iso.decompose(iso.regular_rep(s3.group, s3.p), s3.table)
    blocks = dict(s3.table._orbit_blocks)
    foreign = [
        (iso.regular_rep(c6.group, c6.p), "S3 at p = 7 .* C6 at p = 7"),
        (iso.regular_rep(s3.group, 13), "S3 at p = 7 .* S3 at p = 13"),
    ]
    for rep, match in foreign:
        with pytest.raises(ValueError, match=match):
            iso.decompose(rep, s3.table)
        with pytest.raises(ValueError, match=match):
            iso.reps._components(rep, s3.table, [0])
    assert same_blocks(s3.table, blocks)


def test_one_dimensional_components_act_by_scalars(ctx):
    # a pure-type representation built on a linear character is scalar
    # in every group element, even after a change of basis
    for name in ("C4", "S3", "D4"):
        c = ctx(name)
        lin = next(i for i, d in enumerate(c.table.degrees) if d == 1 and i > 0)
        rep = direct_sum(c.models[lin], c.models[lin], c.models[0])  # pad with a trivial summand
        rng = random.Random(11)
        rep = conjugate_rep(rep, random_invertible(rng, rep.dim, c.p))
        decomp = iso.decompose(rep, c.table)
        basis = decomp.components[lin]
        sub = restrict_to_subspace(rep, basis)
        for g in range(c.group.order):
            val = c.table.values[lin][c.classes.class_of[g]]
            assert np.array_equal(sub.mats[g], val * linalg.identity(sub.dim) % c.p)


def test_assembled_map_injectivity_reduces_to_coefficients(ctx):
    # a G-map (id on V) tensor S between V (x) k^a and V (x) k^b is
    # injective exactly when S is
    c = ctx("S3")
    v = c.models[2]
    rng = random.Random(5)
    p = c.p
    for _ in range(25):
        a, b = rng.randrange(1, 4), rng.randrange(1, 4)
        s = np.array([[rng.randrange(p) for _ in range(a)] for _ in range(b)], dtype=np.int64)
        assembled = np.kron(linalg.identity(v.dim), s) % p
        # check it is a G-map between the tensor representations
        ra = tensor(v, direct_sum(*[iso.trivial_rep(c.group, p)] * a))
        rb = tensor(v, direct_sum(*[iso.trivial_rep(c.group, p)] * b))
        for g in c.group.generator_indices:
            assert np.array_equal(
                assembled @ ra.mats[g] % p, rb.mats[g] @ assembled % p
            )
        injective_s = linalg.rank(s, p) == a
        injective_phi = linalg.rank(assembled, p) == v.dim * a
        assert injective_s == injective_phi
        assert linalg.rank(assembled, p) == v.dim * linalg.rank(s, p)


def test_matrix_rep_int64_bound():
    # dim * (p-1)^2 < 2^63 keeps every dim-term product sum exact in int64
    group = iso.group_from_name("C2")
    p = math.isqrt(2**63 - 1) + 1  # largest p with (p-1)^2 < 2^63
    sign = np.array([[[1]], [[p - 1]]], dtype=np.int64)
    assert iso.MatrixRep(group, p, sign).dim == 1
    with pytest.raises(ModulusTooLarge):
        iso.MatrixRep(group, p + 1, sign)
    two = np.array([np.eye(2), np.eye(2)], dtype=np.int64)
    with pytest.raises(ModulusTooLarge):
        iso.MatrixRep(group, p, two)


def test_a_monomial_group_sum_is_float_exact_at_every_admissible_modulus():
    # `reps._group_sum` adds at most |G| <= DEFAULT_CAP residues per cell in
    # float64, and for dim >= 1 the bound above keeps p <= isqrt(2^63 - 1) + 1
    from isotypic.groups import DEFAULT_CAP

    p = math.isqrt(2**63 - 1) + 1
    assert DEFAULT_CAP * p < linalg.FLOAT_EXACT
    # the sign of C2 at that modulus, monomial: (p-1) rho(e) + (p-2) rho(g)
    group = iso.group_from_name("C2")
    rep = iso.MatrixRep(group, p, images=np.zeros((2, 1)), scalars=np.array([[1], [p - 1]]))
    coef = np.array([p - 1, p - 2], dtype=np.int64)
    assert iso.reps._group_sum(rep, slice(None), coef).tolist() == [[((p - 1) + (p - 2) * (p - 1)) % p]]


def test_matmul_exact_at_max_modulus():
    from isotypic.arith import MAX_MODULUS
    from isotypic.groups import DEFAULT_CAP

    p = MAX_MODULUS
    row = np.full((1, DEFAULT_CAP), p - 1, dtype=np.int64)
    assert int(linalg.matmul(row, row.T, p)[0, 0]) == DEFAULT_CAP * (p - 1) ** 2 % p
    assert DEFAULT_CAP * p**2 >= 2**63  # one more and the sum could overflow


@pytest.fixture(scope="module")
def s5():
    group = iso.group_from_name("S5")
    classes = iso.conjugacy_classes(group)
    p = iso.choose_prime(group)
    return group, classes, p, iso.character_table(group, classes, p)


def test_validate_names_a_bad_edge_s5(s5):
    group, _, p, _ = s5
    reg = iso.regular_rep(group, p)
    k = 57  # neither the identity nor a generator
    assert k not in group.generator_indices
    mats = reg.mats.copy()
    mats[k] = mats[k][:, ::-1]
    with pytest.raises(NotAHomomorphism) as err:
        iso.MatrixRep(group, p, mats)
    # the witness is the word of an edge b -> b*s that touches element k
    word = err.value.word
    prefix, _, gen = word.rpartition(".")
    b = next(x for x in range(group.order) if group.word_string(x) == prefix)
    s = group.generator_indices[int(gen[1:])]
    assert k in (b, int(group.mult[b, s]))


def test_validate_accepts_zero_dimensional_rep(ctx):
    for name in ("C1", "S3", "Q8"):
        c = ctx(name)
        zero = iso.MatrixRep(c.group, c.p, np.zeros((c.group.order, 0, 0), dtype=np.int64))
        assert zero.dim == 0


def test_validate_rejects_non_identity_at_e(ctx):
    c = ctx("C2")
    with pytest.raises(NotAHomomorphism):
        iso.MatrixRep(c.group, c.p, np.array([[[2]], [[1]]], dtype=np.int64))


def test_every_constructor_validates_its_result(ctx, monkeypatch):
    # each library constructor and each derived representation, in both
    # storage forms where it has two, passes through `_validate` once
    c = ctx("D6")
    checked = []
    validate = iso.MatrixRep._validate
    monkeypatch.setattr(iso.MatrixRep, "_validate", lambda rep: checked.append(rep) or validate(rep))
    perm = iso.permutation_rep(c.group, c.p)
    dense = iso.MatrixRep(c.group, c.p, perm.mats)
    reflection = iso.reflection_action(c.group, c.p).rep
    built = [
        perm,
        dense,
        reflection,
        iso.trivial_rep(c.group, c.p),
        iso.regular_rep(c.group, c.p),
        iso.dual_rep(perm),
        iso.dual_rep(dense),
        _sym_power_step(perm, perm, 2),
        _sym_power_step(dense, dense, 2),
        restrict_to_subspace(perm, np.ones((1, perm.dim), dtype=np.int64)),
    ]
    assert reflection.images is None and built[7].images is not None and built[8].images is None
    assert [id(rep) for rep in checked] == [id(rep) for rep in built]


def _coords_oracle(rep, basis):
    """Per-element coordinates, one elimination of [basis^T | images^T] each."""
    k, p = basis.shape[0], rep.p
    mats = []
    for g in range(rep.group.order):
        images = basis @ rep.mats[g].T % p
        r, pivots = linalg.rref(np.concatenate([basis.T, images.T], axis=1), p)
        assert pivots == tuple(range(k))  # independent rows, images in their span
        mats.append(r[:k, k:])  # column j: the coordinates of image j
    return np.stack(mats)


def test_restrict_to_subspace_matches_oracle(ctx):
    compared = 0
    for name in ("S3", "D4", "Q8", "A4"):
        c = ctx(name)
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(6):
            rep, _ = random_rep(c, rng)
            decomp = iso.decompose(rep, c.table)
            picked = [b for b in decomp.components if b.shape[0] and rng.random() < 0.6]
            if not picked:
                continue
            span = np.concatenate(picked, axis=0)
            # a random basis of the invariant sum of the picked components
            basis = random_invertible(rng, span.shape[0], c.p) @ span % c.p
            sub = restrict_to_subspace(rep, basis)
            assert np.array_equal(sub.mats, _coords_oracle(rep, basis))
            compared += 1
    assert compared >= 16


def test_restrict_to_subspace_rejects_bad_bases(ctx):
    c = ctx("S3")
    reg = iso.regular_rep(c.group, c.p)
    line = np.array([[1, 2, 0, 0, 0, 0]], dtype=np.int64)  # not invariant
    with pytest.raises(SingularMatrix, match="a vector lies outside the span of the basis"):
        restrict_to_subspace(reg, line)
    ones = np.ones((1, 6), dtype=np.int64)  # invariant, but listed twice
    assert restrict_to_subspace(reg, ones).dim == 1
    with pytest.raises(SingularMatrix, match="basis rows are linearly dependent"):
        restrict_to_subspace(reg, np.concatenate([ones, 2 * ones]))


@pytest.mark.parametrize("kept", [0, 1])
def test_restrict_to_subspace_checks_every_generator(ctx, kept):
    # on the regular rep, the indicator of the cyclic subgroup <g_kept> is
    # kept by g_kept and moved to another coset by the other generator
    c = ctx("S3")
    reg = iso.regular_rep(c.group, c.p)
    gens = c.group.generator_indices
    line = np.zeros((1, reg.dim), dtype=np.int64)
    line[0, list(iso.cyclic_subgroup(c.group, gens[kept]).element_indices)] = 1
    assert np.array_equal(line @ reg.mats[gens[kept]].T, line)
    assert not np.array_equal(line @ reg.mats[gens[1 - kept]].T, line)
    for rep in (reg, iso.MatrixRep(c.group, c.p, reg.mats)):
        with pytest.raises(SingularMatrix, match="a vector lies outside the span of the basis"):
            restrict_to_subspace(rep, line)


@pytest.mark.parametrize("name", ["S4", "S5"])
def test_irreducible_models_from_right_translations(name, ctx, s5):
    if name == "S5":
        group, classes, p, table = s5
    else:
        c = ctx(name)
        group, classes, p, table = c.group, c.classes, c.p, c.table
    models = iso.irreducible_models(group, table)
    # the seeded draws give a fresh table the same models
    again = iso.irreducible_models(group, iso.character_table(group, classes, p))
    reg = iso.regular_rep(group, p)
    for i, model in enumerate(models):
        assert np.array_equal(model.mats, again[i].mats)
        assert iso.character_of(model, classes) == table.values[i]
        assert iso.hom_dim(model, model, table) == 1
        ok, assembled = iso.evaluation_iso_check(reg, i, table, model)
        assert ok and assembled.shape == (group.order, table.degrees[i] ** 2)


def test_the_table_keeps_its_models(ctx, monkeypatch):
    # built once, on first use, read-only and outside `==`; `hom_dim` and
    # `decomposition_report` read them; another group object is refused
    c = ctx("S4")
    table = iso.character_table(c.group, c.classes, c.p)
    assert table._models is None
    models = iso.irreducible_models(c.group, table)
    assert table == c.table and table._models is not None
    assert all(a is b for a, b in zip(models, iso.irreducible_models(c.group, table)))
    for model in models:
        assert not model.mats.flags.writeable
        with pytest.raises(ValueError):
            model.mats[0, 0, 0] = 0
    # a caller's list is its own
    models.pop()
    assert len(iso.irreducible_models(c.group, table)) == table.num_irreps
    monkeypatch.setattr(iso.reps, "restrict_to_subspace", lambda *args: pytest.fail("a model was rebuilt"))
    perm = iso.permutation_rep(c.group, c.p)
    assert iso.hom_dim(perm, perm, table) == 2
    assert iso.reps.decomposition_report(perm, table)["endomorphism_dim"] == 2
    twin = iso.group_from_name("S4")
    assert twin is not c.group and np.array_equal(twin.images, c.group.images)
    with pytest.raises(ValueError, match="the character table of S4 does not belong to the group S4"):
        iso.irreducible_models(twin, table)


def test_irreducible_models_match_pinned_digests(ctx):
    """Values, dtype and shape of every model, pinned by sha256 digests of
    `mats`.  Those of `irreducible_models.json` were written before the
    change of basis became `linalg.coordinates` and the right-translation
    split `linalg.split`; those of the rest of TEST_GROUPS and of S5
    before `restrict_to_subspace` read every element's coordinates off
    the pivot columns of its images."""
    pinned = json.loads((GOLDEN / "irreducible_models.json").read_text())
    assert list(pinned) == ["S3", "D4", "Q8", "A4", "S4"]
    pinned.update(json.loads((GOLDEN / "irreducible_models_cyclic_s5.json").read_text()))
    assert set(pinned) == {*TEST_GROUPS, "S4", "S5"}
    for name, want in pinned.items():
        got = [
            {
                "dtype": str(m.mats.dtype),
                "shape": list(m.mats.shape),
                "sha256": hashlib.sha256(m.mats.tobytes()).hexdigest(),
            }
            for m in ctx(name).models
        ]
        assert got == want, name


@pytest.mark.parametrize("name", TEST_GROUPS + ("S5",))
def test_multiplicity_space_matches_intertwiner_oracle(name, ctx):
    c = ctx(name)
    p = c.p
    rand, _ = random_rep(c, random.Random(zlib.crc32(name.encode())))
    reps = {"regular": iso.regular_rep(c.group, p), "perm": iso.permutation_rep(c.group, p), "random": rand}
    zero_seen = 0
    for rep_name, rep in reps.items():
        # the dense copy of a monomial rep takes the dense branches
        dense = None if rep.images is None else iso.MatrixRep(c.group, p, rep.mats)
        for i, model in enumerate(c.models):
            basis = multiplicity_space(rep, model)
            oracle = intertwiner_basis(model, rep)
            m = len(basis)
            if dense is not None:
                copy = multiplicity_space(dense, model)
                assert len(copy) == m and all(np.array_equal(a, b) for a, b in zip(copy, basis)), (rep_name, i)
            assert m == len(oracle) == iso.hom_dim(model, rep, c.table), (rep_name, i)
            if m:
                ours = np.stack([t.reshape(-1) for t in basis])
                theirs = np.stack([t.reshape(-1) for t in oracle])
                assert linalg.rank(ours, p) == m
                assert linalg.rank(np.concatenate([ours, theirs]), p) == m
            for t in basis:
                assert t.shape == (rep.dim, model.dim)
                # every element, not only the generators
                assert np.array_equal(rep.mats @ t % p, t @ model.mats % p), (rep_name, i)
            ok, assembled = iso.evaluation_iso_check(rep, i, c.table, model)
            assert ok and assembled.shape == (rep.dim, model.dim * m)
            if m == 0:
                assert basis == []
                zero_seen += 1
    # C1 has one irreducible, and the seeded C2 sum contains both of C2's
    assert zero_seen or name in ("C1", "C2")


@pytest.mark.parametrize("name", TEST_GROUPS + ("S5",))
def test_hom_dim_is_the_nullity_of_the_kronecker_oracle_on_pairs_of_models(name, ctx):
    # (model, rep) for the regular, permutation and a random rep is in
    # `test_multiplicity_space_matches_intertwiner_oracle`, beside its oracle
    c = ctx(name)
    for i, a in enumerate(c.models):
        for j, b in enumerate(c.models):
            assert iso.hom_dim(a, b, c.table) == len(intertwiner_basis(a, b)) == (i == j), (i, j)


def test_hom_dim_refuses_a_foreign_rep(ctx, monkeypatch):
    # S3 and C6 both split at p = 7 and have 6 elements; models of the S3
    # table would count a C6 rep's intertwiners silently.  Either side is
    # refused, as is the right group at another prime, before any model
    s3, c6 = ctx("S3"), ctx("C6")
    assert s3.p == c6.p == 7
    monkeypatch.setattr(iso.reps, "irreducible_models", lambda *args: pytest.fail("a model was built"))
    ours = iso.regular_rep(s3.group, s3.p)
    foreign = [
        (iso.regular_rep(c6.group, c6.p), "S3 at p = 7 .* C6 at p = 7"),
        (iso.regular_rep(s3.group, 13), "S3 at p = 7 .* S3 at p = 13"),
    ]
    for rep, match in foreign:
        for r1, r2 in ((rep, ours), (ours, rep), (rep, rep)):
            with pytest.raises(ValueError, match=match):
                iso.hom_dim(r1, r2, s3.table)


def test_evaluation_iso_check_refuses_a_foreign_rep_or_model(ctx, monkeypatch):
    # a foreign model is refused, not called reducible (S4's degree-2
    # model) nor taken for the table's own (C6's trivial model); a foreign
    # rep is refused before its multiplicity space is built
    s3, c6, s4 = ctx("S3"), ctx("C6"), ctx("S4")
    assert s3.p == c6.p == 7
    monkeypatch.setattr(iso.reps, "multiplicity_space", lambda *args: pytest.fail("a multiplicity space was built"))
    ours = iso.regular_rep(s3.group, s3.p)
    foreign_reps = [
        (iso.regular_rep(c6.group, c6.p), "S3 at p = 7 .* representation of C6 at p = 7"),
        (iso.regular_rep(s3.group, 13), "S3 at p = 7 .* representation of S3 at p = 13"),
    ]
    for rep, match in foreign_reps:
        with pytest.raises(ValueError, match=match):
            iso.evaluation_iso_check(rep, 0, s3.table, s3.models[0])
    foreign_models = [
        (s4.models[2], 2, f"S3 at p = 7 .* model of S4 at p = {s4.p}"),
        (c6.models[0], 0, "S3 at p = 7 .* model of C6 at p = 7"),
        (iso.trivial_rep(s3.group, 13), 0, "S3 at p = 7 .* model of S3 at p = 13"),
    ]
    for model, i, match in foreign_models:
        with pytest.raises(ValueError, match=match):
            iso.evaluation_iso_check(ours, i, s3.table, model)


def test_multiplicity_operators_above_the_cell_limit_raise(ctx, monkeypatch):
    # p_0 (dim x dim) and the |G| x dim x m translates of W, by their real
    # shapes, in `multiplicity_space`; in `hom_dim` those of the largest
    # character multiplicity for either rep, before any model is built
    c = ctx("S3")
    reg, perm = iso.regular_rep(c.group, c.p), iso.permutation_rep(c.group, c.p)
    monkeypatch.setattr(iso.reps, "MAX_SYSTEM_CELLS", 6 * 6 * 2 - 1)
    assert len(multiplicity_space(perm, c.models[2])) == 1
    with pytest.raises(SystemTooLarge, match=r"the array of the translates of W is 6 x 6 x 2 \(72 cells\)"):
        multiplicity_space(reg, c.models[2])
    assert len(multiplicity_space(reg, c.models[1])) == 1
    models = c.models
    monkeypatch.setattr(iso.reps, "irreducible_models", lambda *args: pytest.fail("a model was built"))
    for r1, r2 in ((reg, perm), (perm, reg)):
        with pytest.raises(SystemTooLarge, match=r"6 x 6 x 2 \(72 cells\)"):
            iso.hom_dim(r1, r2, c.table)
    monkeypatch.setattr(iso.reps, "MAX_SYSTEM_CELLS", 6 * 6 - 1)
    with pytest.raises(SystemTooLarge, match=r"Serre's operator p_0 is 6 x 6 \(36 cells\)"):
        multiplicity_space(reg, c.models[0])
    with pytest.raises(SystemTooLarge, match=r"Serre's operator p_0 is 6 x 6 \(36 cells\)"):
        iso.hom_dim(perm, reg, c.table)
    monkeypatch.setattr(iso.reps, "irreducible_models", lambda *args: models)
    assert iso.hom_dim(perm, perm, c.table) == 2


@pytest.mark.parametrize("kind", ["sum of two 1-dim models", "permutation rep"])
def test_evaluation_iso_rejects_a_reducible_model(ctx, kind):
    # the trivial plus the sign model spans 2 of the 4 dimensions of M_2;
    # the permutation rep, trivial plus standard, spans 1 + 4 of M_3's 9
    c = ctx("S3")
    reg = iso.regular_rep(c.group, c.p)
    model = direct_sum(c.models[0], c.models[1]) if kind.startswith("sum") else iso.permutation_rep(c.group, c.p)
    for i in range(c.table.num_irreps):
        with pytest.raises(WrongImage, match="the supplied model is not irreducible"):
            iso.evaluation_iso_check(reg, i, c.table, model)


def test_evaluation_iso_rejects_a_model_whose_character_is_not_irreducible(ctx, monkeypatch):
    # the character side alone: 2 chi_0 + 2 chi_1 of S3 has <chi, chi> = 8,
    # 1 mod 7, but W chi = (2, 2, 0) is no unit vector; Burnside's rank of
    # its 6 x 16 flattened matrices is planted at 16
    c = ctx("S3")
    assert c.p == 7
    reg = iso.regular_rep(c.group, c.p)
    model = direct_sum(c.models[0], c.models[0], c.models[1], c.models[1])
    real_rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda a, p: 16 if a.shape == (6, 16) else real_rank(a, p))
    with pytest.raises(WrongImage, match="the supplied model is not irreducible"):
        iso.evaluation_iso_check(reg, 0, c.table, model)


def test_multiplicity_space_rejects_a_model_of_another_irreducible(ctx):
    c = ctx("S5")
    reg = iso.regular_rep(c.group, c.p)
    degrees = c.table.degrees
    pairs = [(i, j) for i in range(len(degrees)) for j in range(len(degrees)) if i != j and degrees[i] == degrees[j]]
    assert len(pairs) == 6  # degrees 1, 4 and 5 each occur twice
    for i, j in pairs:
        with pytest.raises(WrongImage, match=f"the supplied model has the character of irreducible {j}, not {i}$"):
            iso.evaluation_iso_check(reg, i, c.table, c.models[j])


def _corrupted(rep, pos):
    """A dense copy of `rep`, validated, and then the matrix of generator
    `pos` column-reversed."""
    bad = iso.MatrixRep(rep.group, rep.p, rep.mats)
    g = rep.group.generator_indices[pos]
    bad.mats[g] = bad.mats[g][:, ::-1].copy()
    return bad


def _corrupted_monomial(rep, pos):
    """A monomial copy of `rep`, validated, and then the index map of
    generator `pos` column-reversed, its scalars kept."""
    bad = iso.MatrixRep(rep.group, rep.p, images=rep.images.copy(), scalars=rep.scalars.copy())
    g = rep.group.generator_indices[pos]
    bad.images[g] = bad.images[g][::-1].copy()
    return bad


@pytest.mark.parametrize("name", ["C6", "S3", "S5"])
def test_multiplicity_space_rejects_a_corrupted_monomial_generator(name, ctx):
    # scalars are all 1 on these reps, so the corrupted matrices are those
    # of `_corrupted`, and the monomial branch must raise as the dense one
    c = ctx(name)
    for rep in (iso.regular_rep(c.group, c.p), iso.permutation_rep(c.group, c.p)):
        bad = _corrupted_monomial(rep, 0)
        dense = _corrupted(rep, 0)
        assert bad.images is not None and (rep.scalars == 1).all()
        for model in c.models:
            with pytest.raises(NotAnIntertwiner) as err:
                multiplicity_space(bad, model)
            with pytest.raises(NotAnIntertwiner) as dense_err:
                multiplicity_space(dense, model)
            assert str(err.value) == str(dense_err.value)
        assert "mats" not in vars(bad)


@pytest.mark.parametrize("name", ["C6", "S3", "S5"])
def test_multiplicity_space_rejects_a_corrupted_generator(name, ctx):
    # The witness names the first generator whose intertwining equation
    # fails.  The corrupted matrix enters every operator p_a, so that need
    # not be the corrupted generator; on the regular rep and with a single
    # generator it is.
    c = ctx(name)
    single = len(c.group.generator_indices) == 1
    for rep_name, rep in (("regular", iso.regular_rep(c.group, c.p)), ("perm", iso.permutation_rep(c.group, c.p))):
        bad = _corrupted(rep, 0)
        for model in c.models:
            with pytest.raises(NotAnIntertwiner) as err:
                multiplicity_space(bad, model)
            named = "rho(g0)" if rep_name == "regular" or single else "rho(g"
            assert named in str(err.value)


def test_corrupted_generator_reaches_the_evaluation_outcome(monkeypatch, ctx):
    from isotypic import scenarios

    c = ctx("S3")
    real_perm = iso.reps.permutation_rep
    monkeypatch.setattr(iso.reps, "permutation_rep", lambda group, p: _corrupted(real_perm(group, p), 0))
    by_check = {o.check: o for o in scenarios.group_checks(c.table)}
    outcome = by_check["S3.evaluation_iso"]
    assert not outcome.passed
    assert outcome.witness["error"] == "NotAnIntertwiner" and "rho(g0)" in outcome.witness["message"]
    assert (outcome.witness["group"], outcome.witness["rep"], outcome.witness["irrep"]) == ("S3", "perm", 0)
    assert all(o.passed for check, o in by_check.items() if check != "S3.evaluation_iso")
