"""Micro benchmarks of restriction and multiplicity spaces in `isotypic.reps`.

Outside the `testpaths` of pyproject.toml; run from the repository root:

    PYTHONPATH=src python -m pytest microbench/test_reps_bench.py --benchmark-only

E is the regular representation of S5 (dimension 120), V its degree-6
irreducible model, the largest piece of the models-s5 workload.
`restrict_to_subspace` acts on the 36-dimensional degree-6 isotypic
component of E: it checks the images of the two generators and reads
every element's 36 x 36 matrix off the pivot columns of its images.  A
basis of Hom_G(V, E) comes from `multiplicity_space` (Serre's operators,
the library's one route to Hom_G): one group sum for p_0, and the
120 x 120 x 6 translates of its image W.  It runs on E as built (index
maps) and on its dense copy, so both branches of the group sum and the
action have a number.
`evaluation_iso_check` certifies V (x) Hom_G(V, E) -> E: on the warm table
that built the models, whose orbit-block memo already holds E's reduced
degree-6 component, and on a cold one, rebuilt before each round, which
reduces the 120 x 120 block itself.
"""

from __future__ import annotations

import pytest

from isotypic import arith, characters, groups, reps


@pytest.fixture(scope="module")
def s5():
    group = groups.group_from_name("S5")
    p = arith.choose_prime(group)
    table = characters.character_table(group, groups.conjugacy_classes(group), p)
    six = table.degrees.index(6)
    model = reps.irreducible_models(group, table)[six]
    regular = reps.regular_rep(group, p)
    component = reps.decompose(regular, table).components[six]
    return regular, model, component, table


def test_restrict_s5_regular_to_degree_6_component(benchmark, s5):
    regular, _, component, _ = s5
    sub = benchmark(reps.restrict_to_subspace, regular, component)
    assert sub.dim == 36


@pytest.mark.parametrize("method", ["multiplicity_space", "multiplicity_space-dense"])
def test_hom_basis_s5_regular(benchmark, s5, method):
    regular, model, _, _ = s5
    if method == "multiplicity_space-dense":
        regular = reps.MatrixRep(regular.group, regular.p, regular.mats)
    basis = benchmark(reps.multiplicity_space, regular, model)
    assert len(basis) == 6


@pytest.mark.parametrize("memo", ["warm", "cold"])
def test_evaluation_iso_s5_regular_degree_6(benchmark, s5, memo):
    regular, model, _, table = s5
    six = table.degrees.index(6)

    def cold_table():
        cold = characters.character_table(table.group, table.classes, table.p)
        cold.idempotents()
        return (regular, six, cold, model), {}

    if memo == "warm":
        ok, assembled = benchmark(reps.evaluation_iso_check, regular, six, table, model)
    else:
        ok, assembled = benchmark.pedantic(reps.evaluation_iso_check, setup=cold_table, rounds=20)
    assert ok and assembled.shape == (120, 36)
