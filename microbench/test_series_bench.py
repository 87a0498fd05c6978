"""Micro benchmarks of the character side of a cover report.

Outside the `testpaths` of pyproject.toml; run from the repository root:

    PYTHONPATH=src python -m pytest microbench/test_series_bench.py --benchmark-only

`test_molien_sums` times the Molien memo of an action, the common
denominator D and the numerators of every irreducible's series, on S4
`perm4` (5 classes) and D50 `reflection2` (28 classes), with a fresh
action each round so that no memo is warm.  `test_tensor_multiplicities`
times `tensor_multiplicities` on S4 and D50, the table every cover
report's product check reads.
"""

from __future__ import annotations

import pytest

from isotypic import arith, characters, cover, groups

ACTIONS = [("S4", "perm4"), ("D50", "reflection2")]


def table_of(name):
    group = groups.group_from_name(name)
    return characters.character_table(group, groups.conjugacy_classes(group), arith.choose_prime(group))


@pytest.mark.parametrize("name, kind", ACTIONS)
def test_molien_sums(benchmark, name, kind):
    table = table_of(name)

    def fresh_action():
        return (cover.builtin_action(table.group, table.p, kind), table), {}

    sums = benchmark.pedantic(cover._molien_sums, setup=fresh_action, rounds=50)
    assert len(sums.nums) == table.num_irreps and sums.den.coeffs[0] != 0


@pytest.mark.parametrize("name", ["S4", "D50"])
def test_tensor_multiplicities(benchmark, name):
    table = table_of(name)
    n = benchmark(characters.tensor_multiplicities, table)
    assert n.shape == (table.num_irreps,) * 3
