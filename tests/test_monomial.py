"""Monomial representations: index maps against the dense matrices.

A monomial `MatrixRep` stores rho(g) e_j = scalars[g, j] e_{images[g, j]}.
The constructors that build it (`regular_rep`, `permutation_rep`, the
monomial branch of `rep_from_matrices`, `dual_rep` of a monomial rep) are
checked against dense matrix loops, and every monomial branch (validation,
`character_of`, `isotypic_projector`, `_sym_power_step`, `fixed_dim`, the
orbit blocks of `decompose`, `restrict_to_subspace`, `multiplicity_space`)
against the dense route on the same representation, and the cover's product
check against the zero pattern of projected products on the dense pieces.  The dense
side is always built explicitly as `MatrixRep(group, p, rep.mats)`.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isotypic as iso
from isotypic import cover, linalg
from isotypic.cover import _sym_power_step, builtin_action, cyclic_subgroups
from isotypic.errors import NotAHomomorphism, SingularMatrix
from isotypic.reps import multiplicity_space, restrict_to_subspace

from conftest import (
    all_subgroups,
    block_diagonal,
    cycles,
    elements,
    exponents,
    forbid,
    matrix_inverse,
    random_invertible,
    sym_power,
)

# A4 and C3 have non-real characters, so their projectors are not symmetric
MONOMIAL_ACTIONS = (
    ("S3", "perm3"), ("S4", "perm4"), ("C4", "scalar"), ("D4", "reflection2"), ("A4", "perm4"), ("C3", "perm3"),
)
# D6's rotation is not monomial: its pieces take the dense route of the library too
ORACLE_ACTIONS = MONOMIAL_ACTIONS + (("D6", "reflection2"),)


def dense_pieces(action, top):
    """The graded pieces through degree `top` by the dense symmetric power."""
    group, p = action.group, action.p
    one = iso.dual_rep(iso.MatrixRep(group, p, action.rep.mats))
    pieces = [iso.MatrixRep(group, p, np.broadcast_to(linalg.identity(1), (group.order, 1, 1)).copy())]
    for d in range(1, top + 1):
        pieces.append(one if d == 1 else _sym_power_step(pieces[-1], one, d))
    return pieces


def averaging_rank(mats, h, p):
    """Rank of (1/|H|) sum_{h in H} rho(h), the dense count of H-invariants."""
    acc = mats[list(h.element_indices)].sum(axis=0) % p
    return linalg.rank(acc * linalg.inv_mod(h.order % p, p) % p, p)


@pytest.mark.parametrize(("name", "kind"), MONOMIAL_ACTIONS)
def test_monomial_pieces_match_the_dense_route(ctx, name, kind):
    c = ctx(name)
    action = builtin_action(c.group, c.p, kind)
    subgroups = cyclic_subgroups(c.group)
    for d, dense in enumerate(dense_pieces(action, 6)):
        rep = action.piece(d)
        assert rep.images is not None
        assert dense.images is None
        assert iso.character_of(rep, c.classes) == iso.character_of(dense, c.classes)
        for i in range(c.table.num_irreps):
            got = iso.isotypic_projector(rep, i, c.table)
            assert np.array_equal(got, iso.isotypic_projector(dense, i, c.table)), (d, i)
        for h in subgroups:
            assert iso.fixed_dim(rep, h) == iso.fixed_dim(dense, h), (d, h.element_indices)
        assert "mats" not in vars(rep)
        assert np.array_equal(rep.mats, dense.mats)


CONSTRUCTOR_GROUPS = ("C1", "C6", "S3", "D4", "Q8", "A4", "S5")


def dense_regular(group):
    """The regular representation as a dense matrix loop, rho(g) e_c = e_{g*c}."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=np.int64)
    cols = np.arange(n)
    for g in range(n):
        mats[g, group.mult[g, cols], cols] = 1
    return mats


def dense_permutation(group):
    """The defining permutation matrices as a dense matrix loop."""
    perms = elements(group)
    deg = perms[0].degree
    mats = np.zeros((group.order, deg, deg), dtype=np.int64)
    cols = np.arange(deg)
    for g in range(group.order):
        mats[g, np.array(perms[g].images), cols] = 1
    return mats


def word_products(group, p, gen_mats):
    """Every element's matrix as the dense product along its breadth-first word."""
    dim = len(gen_mats[0])
    mats = np.zeros((group.order, dim, dim), dtype=np.int64)
    mats[0] = linalg.identity(dim)
    for k in range(1, group.order):
        parent, pos = group.words[k]
        mats[k] = linalg.matmul(mats[parent], np.asarray(gen_mats[pos], dtype=np.int64) % p, p)
    return mats


@pytest.mark.parametrize("name", CONSTRUCTOR_GROUPS)
def test_regular_and_permutation_reps_are_built_monomial(ctx, name):
    c = ctx(name)
    for build, dense in ((iso.regular_rep, dense_regular), (iso.permutation_rep, dense_permutation)):
        rep = build(c.group, c.p)
        assert rep.images is not None
        assert "mats" not in vars(rep)
        assert np.array_equal(rep.mats, dense(c.group)), build.__name__


def test_permutation_rep_widens_uint16_images():
    # D300 acts on 300 points, so its images are uint16; the index maps
    # are int64 copies of them, and the character counts fixed points
    group = iso.group_from_name("D300")
    classes = iso.conjugacy_classes(group)
    p = iso.choose_prime(group)
    assert group.images.dtype == np.uint16
    rep = iso.permutation_rep(group, p)
    assert rep.images.dtype == np.int64 and np.array_equal(rep.images, group.images)
    perms = elements(group)
    fixed = [(group.degree - sum(len(c) for c in cycles(perms[r]))) % p for r in classes.reps]
    assert iso.character_of(rep, classes) == tuple(fixed)


@pytest.mark.parametrize("name", CONSTRUCTOR_GROUPS)
def test_dual_of_a_monomial_rep_is_monomial(ctx, name):
    # the permutation rep times each linear character: on C6 and A4 its
    # scalars are roots of unity other than +-1, so the dual's differ
    c = ctx(name)
    inv = list(c.group.inv)
    perm = iso.permutation_rep(c.group, c.p)
    reps = [iso.regular_rep(c.group, c.p), perm]
    for i in (i for i, deg in enumerate(c.table.degrees) if deg == 1):
        chi = np.array([c.table.values[i][c.classes.class_of[g]] for g in range(c.group.order)])
        scalars = np.broadcast_to(chi[:, None], perm.images.shape).copy()
        reps.append(iso.MatrixRep(c.group, c.p, images=perm.images.copy(), scalars=scalars))
    beyond_signs = False
    for rep in reps:
        dual = iso.dual_rep(rep)
        assert dual.images is not None
        assert np.array_equal(dual.mats, rep.mats[inv].transpose(0, 2, 1))
        beyond_signs |= not np.array_equal(dual.scalars, rep.scalars)
        again = iso.dual_rep(dual)
        assert np.array_equal(again.images, rep.images) and np.array_equal(again.scalars, rep.scalars)
    assert beyond_signs == (name in ("C6", "A4"))


@pytest.mark.parametrize("name", ["S3", "S4", "A4"])
def test_permutation_rep_report_matches_its_dense_copy(ctx, name):
    # no golden file covers `decompose --rep perm`
    c = ctx(name)
    rep = iso.permutation_rep(c.group, c.p)
    dense = iso.MatrixRep(c.group, c.p, rep.mats)
    assert dense.images is None
    assert iso.reps.decomposition_report(rep, c.table) == iso.reps.decomposition_report(dense, c.table)
    for got, want in zip(iso.decompose(rep, c.table).components, iso.decompose(dense, c.table).components):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    ("name", "kind", "monomial"),
    [("D4", "reflection2", True), ("C4", "scalar", True), ("S4", "perm4", True), ("D6", "reflection2", False)],
)
def test_rep_from_matrices_is_monomial_exactly_for_monomial_generators(ctx, name, kind, monomial):
    c = ctx(name)
    gens = builtin_action(c.group, c.p, kind).rep.mats[list(c.group.generator_indices)]
    assert all(((m != 0).sum(axis=0) == 1).all() for m in gens) == monomial
    rep = iso.rep_from_matrices(c.group, c.p, gens.tolist())
    assert (rep.images is not None) == monomial
    assert np.array_equal(rep.mats, word_products(c.group, c.p, gens))


def test_rep_from_matrices_rejects_a_singular_generator_with_one_nonzero_per_column(ctx):
    c = ctx("C2")
    with pytest.raises(SingularMatrix):
        iso.rep_from_matrices(c.group, c.p, [[[1, 1], [0, 0]]])


@pytest.mark.parametrize(("name", "scale"), [("S4", 1), ("D4", 2), ("S3", 1)])
def test_monomial_generators_that_are_not_a_homomorphism_name_the_dense_word(ctx, name, scale):
    # the generator matrices of the permutation rep in swapped order, the
    # second one scaled: the same first bad edge as the dense word products
    c = ctx(name)
    perm = iso.permutation_rep(c.group, c.p).mats
    first, second = (perm[g] for g in c.group.generator_indices)
    gens = [second, first * scale % c.p]
    with pytest.raises(NotAHomomorphism) as dense_err:
        iso.MatrixRep(c.group, c.p, word_products(c.group, c.p, gens))
    with pytest.raises(NotAHomomorphism) as err:
        iso.rep_from_matrices(c.group, c.p, gens)
    assert err.value.word is not None and err.value.word == dense_err.value.word


def test_non_monomial_action_keeps_the_dense_pieces(ctx):
    # D6's rotation [[0, -1], [1, 1]] has two nonzeros in a column
    c = ctx("D6")
    action = builtin_action(c.group, c.p, "reflection")
    assert all(action.piece(d).images is None for d in (1, 2, 3))


def test_sym_power_rep_of_a_monomial_rep_is_monomial(ctx):
    c = ctx("A4")
    perm = iso.permutation_rep(c.group, c.p)
    dense = sym_power(iso.MatrixRep(c.group, c.p, perm.mats), 3)
    mono = sym_power(perm, 3)
    assert dense.images is None and mono.images is not None
    assert np.array_equal(mono.mats, dense.mats)


def twisted_perm_rep(c, rng):
    """A random signed-permutation representation of c's group.

    Direct sum of the defining permutation rep, the regular rep and the
    trivial rep, each tensored with a linear character of values +-1, in a
    random signed-permutation basis.  The first summand is the defining
    permutation rep times a character that is -1 on some point stabilizer,
    so an orbit with a twisted stabilizer is always there.
    """
    group, p = c.group, c.p
    signs = [
        i for i in range(c.table.num_irreps)
        if c.table.degrees[i] == 1 and set(c.table.values[i]) <= {1, p - 1}
    ]
    chars = {
        i: np.array([c.table.values[i][c.classes.class_of[g]] for g in range(group.order)])
        for i in signs
    }
    perm = iso.permutation_rep(group, p).mats
    fixes_a_point = (np.diagonal(perm, axis1=1, axis2=2) == 1).any(axis=1)
    twister = next(i for i in signs if (fixes_a_point & (chars[i] != 1)).any())
    blocks = []
    for k in range(rng.randrange(1, 4)):
        base = perm if k == 0 else rng.choice([perm, iso.regular_rep(group, p).mats, None])
        if base is None:
            base = np.ones((group.order, 1, 1), dtype=np.int64)
        chi = chars[twister if k == 0 else rng.choice(signs)]
        blocks.append(base * chi[:, None, None] % p)
    mats = block_diagonal(*blocks)
    dim = mats.shape[1]
    q = np.zeros((dim, dim), dtype=np.int64)
    q[rng.sample(range(dim), dim), np.arange(dim)] = [rng.choice([1, p - 1]) for _ in range(dim)]
    q_inv = matrix_inverse(q, p)
    gens = [linalg.matmul(linalg.matmul(q, mats[g], p), q_inv, p) for g in group.generator_indices]
    return iso.rep_from_matrices(group, p, gens)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("S3", "S4", "D4")), st.integers(0, 2**32 - 1))
def test_fixed_dim_counts_orbits_with_untwisted_stabilizers(ctx, name, seed):
    c = ctx(name)
    rep = twisted_perm_rep(c, random.Random(seed))
    assert rep.images is not None
    twisted = False
    for h in all_subgroups(c.group):
        elems = list(h.element_indices)
        fixed = rep.images[elems] == np.arange(rep.dim)
        twisted |= bool((fixed & (rep.scalars[elems] != 1)).any())
        assert iso.fixed_dim(rep, h) == averaging_rank(rep.mats, h, c.p), h.element_indices
    assert twisted
    dense = iso.MatrixRep(c.group, c.p, rep.mats.copy())
    assert iso.character_of(rep, c.classes) == iso.character_of(dense, c.classes)
    for i in range(c.table.num_irreps):
        assert np.array_equal(iso.isotypic_projector(rep, i, c.table), iso.isotypic_projector(dense, i, c.table))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("S3", "S4", "D4")), st.integers(0, 2**32 - 1))
def test_restriction_and_multiplicity_spaces_of_twisted_reps_match_the_dense_copy(ctx, name, seed):
    # scalars of -1 catch a scalar read at the image index instead of the source
    c = ctx(name)
    rng = random.Random(seed)
    rep = twisted_perm_rep(c, rng)
    assert rep.images is not None and (rep.scalars != 1).any()
    dense = iso.MatrixRep(c.group, c.p, rep.mats.copy())
    components = [b for b in iso.decompose(rep, c.table).components if b.shape[0]]
    span = np.concatenate(components)
    mixed = random_invertible(rng, span.shape[0], c.p) @ span % c.p
    for basis in components + [mixed]:
        got = restrict_to_subspace(rep, basis)
        assert np.array_equal(got.mats, restrict_to_subspace(dense, basis).mats)
    for i, model in enumerate(c.models):
        got = multiplicity_space(rep, model)
        want = multiplicity_space(dense, model)
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want)), i


@pytest.mark.parametrize("name", ["S3", "S4", "D4"])
def test_restriction_of_a_twisted_rep_to_a_non_invariant_line_is_singular(ctx, name):
    c = ctx(name)
    rep = twisted_perm_rep(c, random.Random(0))
    moved = next(j for j in range(rep.dim) if (rep.images[:, j] != j).any())
    line = np.zeros((1, rep.dim), dtype=np.int64)
    line[0, moved] = 1
    with pytest.raises(SingularMatrix):
        restrict_to_subspace(rep, line)
    assert "mats" not in vars(rep)


@pytest.mark.parametrize("pos", [0, 1])
def test_corrupted_monomial_generator_names_its_edge(ctx, pos):
    c = ctx("S4")
    rep = builtin_action(c.group, c.p, "perm4").piece(3)
    group = rep.group
    k = group.generator_indices[pos]
    for corrupt in ("scalar", "image"):
        images, scalars = rep.images.copy(), rep.scalars.copy()
        if corrupt == "scalar":
            scalars[k, 4] = scalars[k, 4] * 2 % rep.p
        else:
            images[k, [4, 5]] = images[k, [5, 4]]
        with pytest.raises(NotAHomomorphism) as err:
            iso.MatrixRep(group, rep.p, images=images, scalars=scalars)
        # the witness is the word of an edge b -> b*s that touches element k
        word = err.value.word
        prefix, _, gen = word.rpartition(".")
        b = next(x for x in range(group.order) if group.word_string(x) == prefix)
        s = group.generator_indices[int(gen[1:])]
        assert k in (b, s, int(group.mult[b, s])), (corrupt, word)


def test_monomial_validation_rejects_bad_shapes_and_identity(ctx):
    c = ctx("S3")
    n = c.group.order
    ident = np.tile(np.arange(3), (n, 1))
    with pytest.raises(NotAHomomorphism, match="shape"):
        iso.MatrixRep(c.group, c.p, images=ident[:2].copy(), scalars=np.ones((2, 3), dtype=np.int64))
    with pytest.raises(NotAHomomorphism, match="leaves the basis"):
        bad = ident.copy()
        bad[1, 0] = 3
        iso.MatrixRep(c.group, c.p, images=bad, scalars=np.ones((n, 3), dtype=np.int64))
    scalars = np.ones((n, 3), dtype=np.int64)
    scalars[0, 1] = 2
    with pytest.raises(NotAHomomorphism, match="identity"):
        iso.MatrixRep(c.group, c.p, images=ident.copy(), scalars=scalars)


def test_cover_report_never_builds_dense_monomial_pieces(ctx):
    # the S4 perm4 report at degree 12, as the cover-s4 workload runs it:
    # every piece above degree 1 stays an index map (455 x 455 at degree 12)
    c = ctx("S4")
    action = iso.perm_action(c.group, c.p)
    assert iso.pushforward_report(action, 12, c.table).passed
    assert action.piece(12).dim == 455
    for d in range(2, 13):
        rep = action.piece(d)
        assert rep.images is not None and "mats" not in vars(rep), d


def test_models_path_never_builds_dense_regular_matrices(ctx, monkeypatch):
    # S5's irreducible models and evaluation maps, as the models-s5 workload
    # runs them: neither regular rep (120 x 120 x 120 dense) reads `mats`
    c = ctx("S5")
    built = []
    real = iso.reps.regular_rep

    def spy(group, p):
        built.append(real(group, p))
        return built[-1]

    monkeypatch.setattr(iso.reps, "regular_rep", spy)
    # a fresh table builds its models here, whatever ran before
    table = iso.character_table(c.group, c.classes, c.p)
    models = iso.irreducible_models(c.group, table)
    regular = real(c.group, c.p)
    for i, model in enumerate(models):
        ok, _ = iso.evaluation_iso_check(regular, i, table, model)
        assert ok, i
    assert len(built) == 1
    for rep in (built[0], regular):
        assert rep.images is not None and "mats" not in vars(rep)


@pytest.mark.parametrize(("name", "kind"), ORACLE_ACTIONS)
def test_components_are_the_row_spaces_of_the_dense_projectors(ctx, name, kind):
    c = ctx(name)
    action = builtin_action(c.group, c.p, kind)
    for d, dense in enumerate(dense_pieces(action, 6)):
        decomp = iso.decompose(action.piece(d), c.table)
        for i in range(c.table.num_irreps):
            expected = linalg.row_space(iso.isotypic_projector(dense, i, c.table).T, c.p)
            assert np.array_equal(decomp.components[i], expected), (d, i)


class ProductOracle:
    """Projected products of components, from the dense pieces alone.

    Components are the row spaces of the dense projectors' transposes, and
    products go through a dense 0/1 matrix with one 1 per (alpha, beta)
    row, in the column of alpha + beta, built from the oracle's own
    exponent tuples.
    """

    def __init__(self, action, table, top):
        self.action, self.table, self.p = action, table, table.p
        self.dense = dense_pieces(action, top)
        self.projs = [
            [iso.isotypic_projector(rep, l, table) for l in range(table.num_irreps)] for rep in self.dense
        ]

    def component(self, d, i):
        return linalg.row_space(self.projs[d][i].T, self.p)

    def projected(self, i, j, a, b):
        """span @ P_l^T for each l, span the row space of the products."""
        basis_a, basis_b, basis_ab = (exponents(self.action.n, d) for d in (a, b, a + b))
        index = {m: k for k, m in enumerate(basis_ab)}
        mul = np.zeros((len(basis_a) * len(basis_b), len(basis_ab)), dtype=np.int64)
        for row, (alpha, beta) in enumerate(itertools.product(basis_a, basis_b)):
            mul[row, index[tuple(x + y for x, y in zip(alpha, beta))]] = 1
        outer = np.kron(self.component(a, i), self.component(b, j)) % self.p
        span = linalg.row_space(linalg.matmul(outer, mul, self.p), self.p)
        return [linalg.matmul(span, proj.T, self.p) for proj in self.projs[a + b]]


@pytest.mark.parametrize(("name", "kind"), ORACLE_ACTIONS)
def test_product_ranks_match_the_dense_oracle(ctx, monkeypatch, name, kind):
    # with one component l forbidden at a time, the check fails exactly when
    # the oracle's projection onto l has nonzero rank, at its first nonzero row
    c = ctx(name)
    action = builtin_action(c.group, c.p, kind)
    oracle = ProductOracle(action, c.table, 8)
    r = c.table.num_irreps
    for i in range(r):
        for j in range(r):
            for a in range(1, 5):
                for b in range(a, 5):
                    monkeypatch.undo()
                    assert iso.product_structure_check(action, i, j, a, b, c.table) is None
                    for l, projected in enumerate(oracle.projected(i, j, a, b)):
                        forbid(monkeypatch, r, i, j, l)
                        witness = iso.product_structure_check(action, i, j, a, b, c.table)
                        rows = np.nonzero(projected.any(axis=1))[0]
                        if rows.size == 0:
                            assert witness is None, (i, j, a, b, l)
                        else:
                            row = projected[rows[0]].tolist()
                            assert witness == {"component": l, "degree": a + b, "vector": row}, (i, j, a, b, l)


@pytest.mark.parametrize(("name", "kind"), ORACLE_ACTIONS)
def test_forbidden_component_is_witnessed_by_the_oracle_row(ctx, monkeypatch, name, kind):
    # forbid, in turn, the last irreducible that each product of B_2 and B_3
    # components reaches: the witness is the first nonzero projected row
    c = ctx(name)
    action = builtin_action(c.group, c.p, kind)
    oracle = ProductOracle(action, c.table, 5)
    true = iso.tensor_multiplicities(c.table)
    r, witnessed = c.table.num_irreps, 0
    for i in range(r):
        for j in range(r):
            projected = oracle.projected(i, j, 2, 3)
            reached = [l for l in range(r) if projected[l].any()]
            if not reached:
                continue
            l = reached[-1]
            tens = true.copy()
            tens[i, j, l] = 0
            monkeypatch.setattr(cover, "_tensor_mults", lambda action, table: tens)
            witness = iso.product_structure_check(action, i, j, 2, 3, c.table)
            row = projected[l][np.nonzero(projected[l].any(axis=1))[0][0]]
            assert witness == {"component": l, "degree": 5, "vector": row.tolist()}, (i, j)
            witnessed += 1
    assert witnessed


@pytest.mark.parametrize(("name", "kind"), [("S4", "perm4"), ("D6", "reflection2")])
def test_lowest_forbidden_component_is_the_witness(ctx, monkeypatch, name, kind):
    # forbid two irreducibles that the products of B_1 and B_2 components both
    # reach: the witness is the lower one, with its first nonzero projected row
    c = ctx(name)
    action = builtin_action(c.group, c.p, kind)
    oracle = ProductOracle(action, c.table, 3)
    r = c.table.num_irreps

    def reached(i, j):
        return [l for l, proj in enumerate(oracle.projected(i, j, 1, 2)) if proj.any()]

    i, j = next((i, j) for i in range(r) for j in range(r) if len(reached(i, j)) >= 2)
    low, high = reached(i, j)[-2:]
    forbid(monkeypatch, r, i, j, low, high)
    witness = iso.product_structure_check(action, i, j, 1, 2, c.table)
    projected = oracle.projected(i, j, 1, 2)[low]
    row = projected[np.nonzero(projected.any(axis=1))[0][0]]
    assert witness == {"component": low, "degree": 3, "vector": row.tolist()}, (i, j, low, high)
