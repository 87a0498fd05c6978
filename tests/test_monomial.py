"""Monomial representations: index maps against the dense matrices.

A monomial `MatrixRep` stores rho(g) e_j = scalars[g, j] e_{images[g, j]}.
Every monomial branch (validation, `character_of`, `isotypic_projector`,
`_sym_power_step`, `fixed_dim`) is checked against the dense route on the
same representation.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isotypic as iso
from isotypic import linalg
from isotypic.cover import builtin_action, cyclic_subgroups
from isotypic.errors import NotAHomomorphism
from isotypic.reps import _sym_power_step

# A4 and C3 have non-real characters, so their projectors are not symmetric
MONOMIAL_ACTIONS = (
    ("S3", "perm3"), ("S4", "perm4"), ("C4", "scalar"), ("D4", "reflection2"), ("A4", "perm4"), ("C3", "perm3"),
)


def dense_pieces(action, top):
    """The graded pieces through degree `top` by the dense symmetric power."""
    group, p = action.group, action.p
    one = iso.dual_rep(action.rep)
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
        rep = action.piece(d).rep
        assert rep.images is not None and rep.validation == ("skipped" if d == 0 else "exhaustive")
        assert dense.images is None
        assert iso.character_of(rep, c.classes) == iso.character_of(dense, c.classes)
        for i in range(c.table.num_irreps):
            got = iso.isotypic_projector(rep, i, c.table)
            assert np.array_equal(got, iso.isotypic_projector(dense, i, c.table)), (d, i)
        for h in subgroups:
            assert iso.fixed_dim(rep, h) == iso.fixed_dim(dense, h), (d, h.element_indices)
        assert "mats" not in vars(rep)
        assert np.array_equal(rep.mats, dense.mats)


def test_as_monomial_keeps_a_dense_rep_that_is_not_monomial(ctx):
    c = ctx("D4")
    rot = np.array([[0, c.p - 1], [1, 1]], dtype=np.int64)  # two nonzeros in column 1
    rep = iso.MatrixRep(c.group, c.p, np.broadcast_to(rot, (c.group.order, 2, 2)).copy(), validate=False)
    assert iso.as_monomial(rep) is rep
    mono = iso.as_monomial(iso.permutation_rep(c.group, c.p))
    assert mono.images is not None and iso.as_monomial(mono) is mono


def test_non_monomial_action_keeps_the_dense_pieces(ctx):
    # D6's rotation [[0, -1], [1, 1]] has two nonzeros in a column
    c = ctx("D6")
    action = builtin_action(c.group, c.p, "reflection")
    assert all(action.piece(d).rep.images is None for d in (1, 2, 3))


def test_sym_power_rep_of_a_monomial_rep_is_monomial(ctx):
    c = ctx("A4")
    perm = iso.permutation_rep(c.group, c.p)
    dense = iso.sym_power_rep(perm, 3)
    mono = iso.sym_power_rep(iso.as_monomial(perm), 3)
    assert dense.images is None and mono.images is not None
    assert mono.validation == "exhaustive"
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
    dim = sum(b.shape[1] for b in blocks)
    mats = np.zeros((group.order, dim, dim), dtype=np.int64)
    at = 0
    for b in blocks:
        mats[:, at : at + b.shape[1], at : at + b.shape[1]] = b
        at += b.shape[1]
    q = np.zeros((dim, dim), dtype=np.int64)
    q[rng.sample(range(dim), dim), np.arange(dim)] = [rng.choice([1, p - 1]) for _ in range(dim)]
    mats = linalg.matmul(linalg.matmul(q, mats, p), linalg.inverse(q, p), p)
    return iso.as_monomial(iso.MatrixRep(group, p, mats))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("S3", "S4", "D4")), st.integers(0, 2**32 - 1))
def test_fixed_dim_counts_orbits_with_untwisted_stabilizers(ctx, name, seed):
    c = ctx(name)
    rep = twisted_perm_rep(c, random.Random(seed))
    assert rep.images is not None and rep.validation == "exhaustive"
    twisted = False
    for h in iso.all_subgroups(c.group):
        elems = list(h.element_indices)
        fixed = rep.images[elems] == np.arange(rep.dim)
        twisted |= bool((fixed & (rep.scalars[elems] != 1)).any())
        assert iso.fixed_dim(rep, h) == averaging_rank(rep.mats, h, c.p), h.element_indices
    assert twisted
    dense = iso.MatrixRep(c.group, c.p, rep.mats.copy())
    assert iso.character_of(rep, c.classes) == iso.character_of(dense, c.classes)
    for i in range(c.table.num_irreps):
        assert np.array_equal(iso.isotypic_projector(rep, i, c.table), iso.isotypic_projector(dense, i, c.table))


@pytest.mark.parametrize("pos", [0, 1])
def test_corrupted_monomial_generator_names_its_edge(ctx, pos):
    c = ctx("S4")
    rep = builtin_action(c.group, c.p, "perm4").piece(3).rep
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
        rep = action.piece(d).rep
        assert rep.images is not None and "mats" not in vars(rep), d
