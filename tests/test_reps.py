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
    ModulusTooLarge,
    NotAHomomorphism,
    NotAnIntertwiner,
    SingularMatrix,
    WrongImage,
)
from isotypic.reps import intertwiner_basis, multiplicity_space, restrict_to_subspace

from conftest import TEST_GROUPS

MODEL_DIGESTS = Path(__file__).resolve().parent / "golden" / "irreducible_models.json"


def conjugate_rep(rep, s):
    """Change of basis rho'(g) = S rho(g) S^-1."""
    s = linalg.asmat(s, rep.p)
    s_inv = linalg.inverse(s, rep.p)
    mats = linalg.matmul(s, linalg.matmul(rep.mats, s_inv, rep.p), rep.p)
    return iso.MatrixRep(rep.group, rep.p, mats, validate=False)


def random_invertible(rng, dim, p):
    while True:
        m = np.array([[rng.randrange(p) for _ in range(dim)] for _ in range(dim)], dtype=np.int64)
        try:
            linalg.inverse(m, p)
            return m
        except SingularMatrix:
            continue


def random_rep(c, rng, max_total_dim=6):
    """Random direct sum of irreducible models in a random basis."""
    while True:
        mults = [rng.randrange(0, 3) for _ in range(c.table.num_irreps)]
        dim = sum(m * d for m, d in zip(mults, c.table.degrees))
        if 0 < dim <= max_total_dim:
            break
    rep = None
    for i, m in enumerate(mults):
        for _ in range(m):
            rep = c.models[i] if rep is None else iso.direct_sum_rep(rep, c.models[i])
    return conjugate_rep(rep, random_invertible(rng, rep.dim, c.p)), tuple(mults)


def test_regular_rep_character(ctx):
    c = ctx("S3")
    reg = iso.regular_rep(c.group, c.p)
    assert reg.dim == 6
    assert iso.character_of(reg, c.classes) == (6, 0, 0)
    assert reg.validation == "exhaustive"


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
    for name in ("C4", "S3", "Q8"):
        c = ctx(name)
        reg = iso.regular_rep(c.group, c.p)
        projs = [iso.isotypic_projector(reg, i, c.table) for i in range(c.table.num_irreps)]
        total = np.zeros((reg.dim, reg.dim), dtype=np.int64)
        for i, pi in enumerate(projs):
            total = (total + pi) % c.p
            assert np.array_equal(pi @ pi % c.p, pi)
            for j, pj in enumerate(projs):
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
        decomp, rtype = iso.decompose(reg, c.table)
        assert rtype.multiplicities == c.table.degrees
        assert decomp.dims() == tuple(d * d for d in c.table.degrees)
        # every component is stable under the action
        for basis in decomp.components:
            if basis.shape[0]:
                sub = restrict_to_subspace(reg, basis)
                sub._validate()


def test_decompose_builds_the_idempotents_once(monkeypatch):
    # five projectors, one set of idempotent rows per table
    group = iso.group_from_name("S4")
    p = iso.choose_prime(group)
    table = iso.character_table(group, iso.conjugacy_classes(group), p)
    builds = []
    build = iso.characters.central_idempotents
    monkeypatch.setattr(iso.characters, "central_idempotents", lambda t: builds.append(t) or build(t))
    _, rtype = iso.decompose(iso.regular_rep(group, p), table)
    assert rtype.multiplicities == table.degrees == (1, 1, 2, 3, 3)
    assert builds == [table]
    rows = table.idempotents()
    assert rows is table.idempotents() and len(builds) == 1
    assert all(not row.flags.writeable for row in rows)
    assert all(np.array_equal(a, b) for a, b in zip(rows, build(table)))


def test_decompose_perm_s3(ctx):
    c = ctx("S3")
    perm = iso.permutation_rep(c.group, c.p)
    decomp, rtype = iso.decompose(perm, c.table)
    assert rtype.multiplicities == (1, 0, 1)
    assert decomp.dims() == (1, 0, 2)


def test_decompose_zero_dimensional_rep(ctx):
    c = ctx("S3")
    zero = iso.MatrixRep(c.group, c.p, np.zeros((6, 0, 0), dtype=np.int64))
    decomp, rtype = iso.decompose(zero, c.table)
    assert rtype.multiplicities == (0, 0, 0)
    assert decomp.dims() == (0, 0, 0)


def test_trivial_projector_on_trivial_rep(ctx):
    c = ctx("S3")
    triv = iso.trivial_rep(c.group, c.p, 1)
    proj = iso.isotypic_projector(triv, 0, c.table)
    assert proj.tolist() == [[1]]


def test_hom_dim_examples(ctx):
    c = ctx("S3")
    std = c.models[2]
    two_std = iso.direct_sum_rep(std, std)
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


def test_hom_dim_pure_type_formula(ctx):
    for name in ("S3", "D4", "Q8", "A4"):
        c = ctx(name)
        rng = random.Random(7)
        i = max(range(c.table.num_irreps), key=lambda k: c.table.degrees[k])
        n_i = c.table.degrees[i]
        for a, b in ((1, 1), (1, 2), (2, 2)):
            r1 = c.models[i]
            for _ in range(a - 1):
                r1 = iso.direct_sum_rep(r1, c.models[i])
            r2 = c.models[i]
            for _ in range(b - 1):
                r2 = iso.direct_sum_rep(r2, c.models[i])
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
    assert iso.character_of(iso.tensor_rep(perm, std), c.classes) == iso.char_tensor(
        chi_perm, chi_std, c.p
    )
    assert iso.character_of(iso.dual_rep(perm), c.classes) == iso.char_dual(chi_perm, c.classes)
    assert iso.character_of(iso.sym_power_rep(perm, 2), c.classes) == iso.char_sym_power(
        chi_perm, 2, c.table
    )
    assert iso.character_of(iso.ext_power_rep(perm, 2), c.classes) == iso.char_ext_power(
        chi_perm, 2, c.table
    )
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
            got = iso.sym_power_rep(rep, k)
            want = sym_power_by_expansion(rep, k)
            assert got.mats.dtype == want.dtype and np.array_equal(got.mats, want)
    with pytest.raises(ValueError):
        iso.sym_power_rep(reps[0], -1)


def test_ext_power_perm_type(ctx):
    c = ctx("S3")
    lam2 = iso.ext_power_rep(iso.permutation_rep(c.group, c.p), 2)
    _, rtype = iso.decompose(lam2, c.table)
    assert rtype.multiplicities == (0, 1, 1)


def test_tensor_with_trivial_is_identity(ctx):
    c = ctx("D4")
    rng = random.Random(3)
    rep, mults = random_rep(c, rng)
    tens = iso.tensor_rep(rep, iso.trivial_rep(c.group, c.p, 1))
    _, rtype = iso.decompose(tens, c.table)
    assert rtype.multiplicities == mults


def test_functor_character_identities_randomized(ctx):
    for name in TEST_GROUPS:
        c = ctx(name)
        rng = random.Random(len(name))
        for _ in range(20):
            r1, _ = random_rep(c, rng, max_total_dim=4)
            r2, _ = random_rep(c, rng, max_total_dim=4)
            chi1 = iso.character_of(r1, c.classes)
            chi2 = iso.character_of(r2, c.classes)
            assert iso.character_of(iso.tensor_rep(r1, r2), c.classes) == iso.char_tensor(
                chi1, chi2, c.p
            )
            assert iso.character_of(iso.dual_rep(r1), c.classes) == iso.char_dual(
                chi1, c.classes
            )
            if c.p > 2:
                assert iso.character_of(iso.sym_power_rep(r1, 2), c.classes) == (
                    iso.char_sym_power(chi1, 2, c.table)
                )
                if r1.dim >= 2:
                    assert iso.character_of(iso.ext_power_rep(r1, 2), c.classes) == (
                        iso.char_ext_power(chi1, 2, c.table)
                    )
            if c.p > 3:
                assert iso.character_of(iso.sym_power_rep(r1, 3), c.classes) == (
                    iso.char_sym_power(chi1, 3, c.table)
                )


def test_subgroup_invariants(ctx):
    c = ctx("S3")
    perm = iso.permutation_rep(c.group, c.p)
    whole = iso.subgroup_closure(c.group, [1, 2])
    basis = iso.subgroup_invariants(perm, whole, c.table)
    assert basis.shape[0] == 1  # the all-ones line
    assert np.array_equal(basis[0], np.array([1, 1, 1]))
    trivial_sub = iso.subgroup_closure(c.group, [])
    assert iso.subgroup_invariants(perm, trivial_sub, c.table).shape[0] == perm.dim
    reg = iso.regular_rep(c.group, c.p)
    a3 = iso.subgroup_closure(c.group, [2])
    assert iso.subgroup_invariants(reg, a3, c.table).shape[0] == 2


def test_subgroup_invariants_all_groups(ctx):
    for name in ("C4", "D4", "A4"):
        c = ctx(name)
        reg = iso.regular_rep(c.group, c.p)
        for sub in iso.all_subgroups(c.group):
            basis = iso.subgroup_invariants(reg, sub, c.table)
            assert basis.shape[0] == c.group.order // sub.order  # coset count


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


def test_one_dimensional_components_act_by_scalars(ctx):
    # a pure-type representation built on a linear character is scalar
    # in every group element, even after a change of basis
    for name in ("C4", "S3", "D4"):
        c = ctx(name)
        lin = next(i for i, d in enumerate(c.table.degrees) if d == 1 and i > 0)
        rep = iso.direct_sum_rep(c.models[lin], c.models[lin])
        rep = iso.direct_sum_rep(rep, c.models[0])  # pad with a trivial summand
        rng = random.Random(11)
        rep = conjugate_rep(rep, random_invertible(rng, rep.dim, c.p))
        decomp, _ = iso.decompose(rep, c.table)
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
        ra = iso.tensor_rep(v, iso.trivial_rep(c.group, p, a))
        rb = iso.tensor_rep(v, iso.trivial_rep(c.group, p, b))
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
    assert reg.validation == "exhaustive"
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
        assert zero.dim == 0 and zero.validation == "exhaustive"


def test_validate_rejects_non_identity_at_e(ctx):
    c = ctx("C2")
    with pytest.raises(NotAHomomorphism):
        iso.MatrixRep(c.group, c.p, np.array([[[2]], [[1]]], dtype=np.int64))


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
            decomp, _ = iso.decompose(rep, c.table)
            picked = [b for b in decomp.components if b.shape[0] and rng.random() < 0.6]
            if not picked:
                continue
            span = np.concatenate(picked, axis=0)
            # a random basis of the invariant sum of the picked components
            basis = random_invertible(rng, span.shape[0], c.p) @ span % c.p
            sub = restrict_to_subspace(rep, basis)
            assert np.array_equal(sub.mats, _coords_oracle(rep, basis))
            sub._validate()
            compared += 1
    assert compared >= 16


def test_restrict_to_subspace_rejects_bad_bases(ctx):
    c = ctx("S3")
    reg = iso.regular_rep(c.group, c.p)
    line = np.array([[1, 2, 0, 0, 0, 0]], dtype=np.int64)  # not invariant
    with pytest.raises(SingularMatrix):
        restrict_to_subspace(reg, line)
    ones = np.ones((1, 6), dtype=np.int64)  # invariant, but listed twice
    assert restrict_to_subspace(reg, ones).dim == 1
    with pytest.raises(SingularMatrix):
        restrict_to_subspace(reg, np.concatenate([ones, 2 * ones]))


@pytest.mark.parametrize("name", ["S4", "S5"])
def test_irreducible_models_from_right_translations(name, ctx, s5):
    if name == "S5":
        group, classes, p, table = s5
    else:
        c = ctx(name)
        group, classes, p, table = c.group, c.classes, c.p, c.table
    models = iso.irreducible_models(group, table)
    again = iso.irreducible_models(group, table)
    reg = iso.regular_rep(group, p)
    for i, model in enumerate(models):
        assert np.array_equal(model.mats, again[i].mats)
        assert model.validation == "exhaustive"
        assert iso.character_of(model, classes) == table.values[i]
        assert iso.hom_dim(model, model, table) == 1
        ok, assembled = iso.evaluation_iso_check(reg, i, table, model)
        assert ok and assembled.shape == (group.order, table.degrees[i] ** 2)


def test_irreducible_models_match_pinned_digests(ctx):
    """Values, dtype and shape of every model, pinned by sha256 digests of
    `mats` that were written before the change of basis became
    `linalg.coordinates` and the right-translation split `linalg.split`."""
    pinned = json.loads(MODEL_DIGESTS.read_text())
    assert list(pinned) == ["S3", "D4", "Q8", "A4", "S4"]
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
        for i, model in enumerate(c.models):
            basis = multiplicity_space(rep, model)
            oracle = intertwiner_basis(model, rep)
            m = len(basis)
            assert m == len(oracle), (rep_name, i)
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


def test_multiplicity_space_rejects_a_model_of_another_irreducible(ctx):
    c = ctx("S5")
    reg = iso.regular_rep(c.group, c.p)
    degrees = c.table.degrees
    pairs = [(i, j) for i in range(len(degrees)) for j in range(len(degrees)) if i != j and degrees[i] == degrees[j]]
    assert len(pairs) == 6  # degrees 1, 4 and 5 each occur twice
    for i, j in pairs:
        with pytest.raises(WrongImage):
            iso.evaluation_iso_check(reg, i, c.table, c.models[j])


def _corrupted(rep, pos):
    """`rep` with the matrix of generator `pos` column-reversed, unvalidated."""
    mats = rep.mats.copy()
    g = rep.group.generator_indices[pos]
    mats[g] = mats[g][:, ::-1]
    return iso.MatrixRep(rep.group, rep.p, mats, validate=False)


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
