"""Micro benchmarks of the exact F_p kernels in `isotypic.linalg`.

They sit outside the `testpaths` of pyproject.toml, so the test suite
does not collect them.  Run from the repository root:

    PYTHONPATH=src python -m pytest microbench --benchmark-only

Shapes follow the hot calls: the homomorphism check of the S5 regular
representation (14400 x 120 times 120 x 120), the isotypic projector of
the S4 degree-12 cover piece (1 x 24 times 24 x 455^2) and a row-space
rank of that size.
"""

from __future__ import annotations

import numpy as np
import pytest

from isotypic import linalg
from isotypic.arith import MAX_MODULUS

P = 10009  # the default prime of S4 and S5
# (rows of a, k, columns of b, p, path the kernel takes)
CASES = {
    "validate-s5-float64": (14400, 120, 120, P, True),
    "validate-s5-int64": (14400, 120, 120, MAX_MODULUS, False),
    "projector-455-float64": (1, 24, 455 * 455, P, True),
    "small-float64": (4, 4, 4, P, True),
}


@pytest.mark.parametrize("name", CASES)
def test_matmul(benchmark, name):
    m, k, n, p, use_float = CASES[name]
    assert (k * (p - 1) ** 2 < linalg.FLOAT_EXACT) == use_float
    rng = np.random.default_rng(0)
    a, b = rng.integers(0, p, size=(m, k)), rng.integers(0, p, size=(k, n))
    out = benchmark(linalg.matmul, a, b, p)
    assert out.shape == (m, n)


@pytest.mark.parametrize("n", [120, 455])
def test_rref(benchmark, n):
    rng = np.random.default_rng(n)
    # rank n/2, so half the columns are pivots and half are eliminated into
    a = rng.integers(0, P, size=(n, n // 2)) @ rng.integers(0, P, size=(n // 2, n)) % P
    _, pivots = benchmark(linalg.rref, a, P)
    assert len(pivots) == n // 2
