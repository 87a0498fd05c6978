"""Micro benchmarks of group closure in `isotypic.groups`.

Outside the `testpaths` of pyproject.toml; run from the repository root:

    PYTHONPATH=src python -m pytest microbench --benchmark-only

The groups are those of the tables workload, S6 (720 elements on two
generators) and D100 (200 elements), and two large groups on 1000 points,
D1000 (2000 elements) and C1000 (1000 elements, one breadth-first level
each).  The generators are read off the image array of the built group.
`exponent` reads the element orders off the multiplication table, which
the group caches, so it is timed on a freshly built group in every round.
"""

from __future__ import annotations

import pytest

from isotypic.groups import Permutation, build_group, exponent, group_from_name

ORDERS = {"S6": 720, "D100": 200, "D1000": 2000, "C1000": 1000}
EXPONENTS = {"S6": 60, "D100": 100, "D1000": 1000, "C1000": 1000}


@pytest.mark.parametrize("name", ORDERS)
def test_build_group(benchmark, name):
    group = group_from_name(name)
    gens = [Permutation(row) for row in group.images[list(group.generator_indices)]]
    group = benchmark(build_group, gens, name=name)
    assert group.order == ORDERS[name]


@pytest.mark.parametrize("name", ORDERS)
def test_exponent(benchmark, name):
    # the element orders are cached on the group, so each round gets a fresh one
    got = benchmark.pedantic(exponent, setup=lambda: ((group_from_name(name),), {}), rounds=20)
    assert got == EXPONENTS[name]
