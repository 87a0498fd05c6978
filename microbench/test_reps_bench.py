"""Micro benchmarks of the multiplicity spaces in `isotypic.reps`.

Outside the `testpaths` of pyproject.toml; run from the repository root:

    PYTHONPATH=src python -m pytest microbench/test_reps_bench.py --benchmark-only

Both compute a basis of Hom_G(V, E) for E the regular representation of S5
(dimension 120) and V its degree-6 irreducible model, the largest piece of
the models-s5 workload: `multiplicity_space` from Serre's operators, and
`intertwiner_basis` from the null space of the 1440 x 720 Kronecker system.
"""

from __future__ import annotations

import pytest

from isotypic import arith, characters, groups, reps


@pytest.fixture(scope="module")
def s5_regular_and_model():
    group = groups.group_from_name("S5")
    p = arith.choose_prime(group)
    table = characters.character_table(group, groups.conjugacy_classes(group), p)
    model = reps.irreducible_models(group, table)[table.degrees.index(6)]
    return reps.regular_rep(group, p), model


@pytest.mark.parametrize("method", ["multiplicity_space", "intertwiner_basis"])
def test_hom_basis_s5_regular(benchmark, s5_regular_and_model, method):
    reg, model = s5_regular_and_model
    if method == "multiplicity_space":
        basis = benchmark(reps.multiplicity_space, reg, model)
    else:
        basis = benchmark(reps.intertwiner_basis, model, reg)
    assert len(basis) == 6
