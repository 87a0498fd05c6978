"""Micro benchmarks of group closure in `isotypic.groups`.

Outside the `testpaths` of pyproject.toml; run from the repository root:

    PYTHONPATH=src python -m pytest microbench --benchmark-only

The groups are those of the tables workload: S6 (720 elements on two
generators) and D100 (200 elements).
"""

from __future__ import annotations

import pytest

from isotypic.groups import build_group, group_from_name

ORDERS = {"S6": 720, "D100": 200}


@pytest.mark.parametrize("name", ORDERS)
def test_build_group(benchmark, name):
    gens = group_from_name(name).generators
    group = benchmark(build_group, gens, name=name)
    assert group.order == ORDERS[name]
