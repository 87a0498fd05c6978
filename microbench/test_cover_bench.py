"""Micro benchmarks of the S4 `perm4` degree-12 cover piece in both storage forms.

Outside the `testpaths` of pyproject.toml; run from the repository root:

    PYTHONPATH=src python -m pytest microbench/test_cover_bench.py --benchmark-only

The piece has dimension 455, the largest of the cover-s4 workload.  Each
case runs once on the monomial form (index maps and scalars, as
`LinearCoverAction.piece` stores it) and once on the dense form (24
matrices of 455 x 455): building the pieces of degrees 0..12, the five
isotypic projectors of the degree-12 piece (dense group sums, which
`decompose` does not build on a monomial piece), and `fixed_dim` for the
17 cyclic subgroups.

`test_decompose_pieces` times `piece_decomposition` of degrees 0..12 on a
fresh action whose pieces are already built, with a fresh table, so the
table's memo of orbit-block reductions that the degrees share starts
empty in every round.

`test_product_checks` times the product pass of the S4 `perm4` cover
report, `cover._product_failures`: every (i, j) over the five
irreducibles and 1 <= a <= b <= 4, one shared kernel per (j, a, b), on
the G-module generators of the components of B_a.  Every round gets a
fresh action whose pieces and decompositions through degree 8 are
built; the forbidden projectors and the generator rows are the pass's
own working set, built in each round.

`test_fixed_ring_checks` times the fixed-ring checks of the same report
through degree 12: the 17 cyclic subgroups of S4 fall into 5 conjugacy
classes, and `invariants_series_check` runs on the first of each, on an
action whose pieces, decompositions and series prefixes are built.

`test_products` times `cover._products` for the 21 monomial index maps
that one cover-s4 pass builds: the symmetric-power steps (d - 1, 1) for
d = 2..12 and the multiplication maps 1 <= a <= b <= 4, in 4 variables.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from isotypic import arith, characters, cover, groups, reps
from isotypic.cover import _sym_power_step

DEGREE = 12
FORMS = ["monomial", "dense"]


@pytest.fixture(scope="module")
def s4():
    group = groups.group_from_name("S4")
    p = arith.choose_prime(group)
    table = characters.character_table(group, groups.conjugacy_classes(group), p)
    return group, p, table


def build_piece(group, p, form):
    """The degree-12 piece, from the degree-1 piece one degree at a time."""
    one = reps.dual_rep(reps.permutation_rep(group, p))
    if form == "dense":
        one = reps.MatrixRep(group, p, one.mats)
    rep = one
    for d in range(2, DEGREE + 1):
        rep = _sym_power_step(rep, one, d)
    return rep


@pytest.fixture(scope="module")
def pieces(s4):
    group, p, _ = s4
    mono = build_piece(group, p, "monomial")
    dense = reps.MatrixRep(group, p, mono.mats)
    return {"monomial": mono, "dense": dense}


@pytest.mark.parametrize("form", FORMS)
def test_piece_build(benchmark, s4, form):
    group, p, _ = s4
    rep = benchmark(build_piece, group, p, form)
    assert rep.dim == 455 and (rep.images is not None) == (form == "monomial")


@pytest.mark.parametrize("form", FORMS)
def test_projectors(benchmark, s4, pieces, form):
    _, _, table = s4
    rep = pieces[form]
    projs = benchmark(lambda: [reps.isotypic_projector(rep, i, table) for i in range(table.num_irreps)])
    assert len(projs) == 5
    assert sum(int(np.trace(pr)) for pr in projs) % table.p == 455 % table.p


@pytest.mark.parametrize("form", FORMS)
def test_fixed_dims(benchmark, s4, pieces, form):
    group, _, _ = s4
    subgroups = cover.cyclic_subgroups(group)
    assert len(subgroups) == 17
    dims = benchmark(lambda: [reps.fixed_dim(pieces[form], h) for h in subgroups])
    assert dims[0] == 455  # the trivial subgroup fixes everything


def test_decompose_pieces(benchmark, s4):
    group, p, table = s4

    def fresh_action():
        action = cover.perm_action(group, p)
        for d in range(DEGREE + 1):
            action.piece(d)
        cold = characters.character_table(group, table.classes, p)
        cold.idempotents()
        return (action, cold), {}

    decomps = benchmark.pedantic(
        lambda action, cold: [action.piece_decomposition(d, cold) for d in range(DEGREE + 1)],
        setup=fresh_action,
        rounds=20,
    )
    assert [sum(dec.dims()) for dec in decomps] == [math.comb(d + 3, d) for d in range(DEGREE + 1)]


def test_product_checks(benchmark, s4):
    group, p, table = s4

    def fresh_action():
        action = cover.perm_action(group, p)
        for d in range(2 * cover.PRODUCT_DEGREE + 1):
            action.piece_decomposition(d, table)
        return (action, table), {}

    failures = benchmark.pedantic(cover._product_failures, setup=fresh_action, rounds=20)
    assert failures == []


def test_fixed_ring_checks(benchmark, s4):
    group, p, table = s4
    action = cover.perm_action(group, p)
    for d in range(DEGREE + 1):
        action.piece_decomposition(d, table)
    cover._series_prefixes(action, DEGREE, table)

    def checks():
        subgroups = cover._class_representatives(cover.cyclic_subgroups(group), table.classes)
        return [cover.invariants_series_check(action, h, DEGREE, table) for h in subgroups]

    assert benchmark(checks) == [None] * 5


def test_products(benchmark):
    calls = [(4, d - 1, 1) for d in range(2, DEGREE + 1)]
    calls += [(4, a, b) for a in range(1, cover.PRODUCT_DEGREE + 1) for b in range(a, cover.PRODUCT_DEGREE + 1)]
    assert len(calls) == 21
    maps = benchmark(lambda: [cover._products(*call) for call in calls])
    assert [m.size for m in maps[:2]] == [16, 40] and maps[-1].max() == math.comb(11, 8) - 1
