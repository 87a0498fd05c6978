"""Micro benchmarks of the S4 `perm4` degree-12 cover piece in both storage forms.

Outside the `testpaths` of pyproject.toml; run from the repository root:

    PYTHONPATH=src python -m pytest microbench/test_cover_bench.py --benchmark-only

The piece has dimension 455, the largest of the cover-s4 workload.  Each
case runs once on the monomial form (index maps and scalars, as
`LinearCoverAction.piece` stores it) and once on the dense form (24
matrices of 455 x 455): building the pieces of degrees 0..12, the five
isotypic projectors, and `fixed_dim` for the 17 cyclic subgroups.
"""

from __future__ import annotations

import numpy as np
import pytest

from isotypic import arith, characters, cover, groups, reps
from isotypic.reps import _sym_power_step

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
    if form == "monomial":
        one = reps.as_monomial(one)
    rep = one
    for d in range(2, DEGREE + 1):
        rep = _sym_power_step(rep, one, d)
    return rep


@pytest.fixture(scope="module")
def pieces(s4):
    group, p, _ = s4
    mono = build_piece(group, p, "monomial")
    dense = reps.MatrixRep(group, p, mono.mats.copy(), validate=False)
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
