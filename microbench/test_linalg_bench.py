"""Micro benchmarks of the exact F_p kernels in `isotypic.linalg`.

They sit outside the `testpaths` of pyproject.toml, so the test suite
does not collect them.  Run from the repository root:

    PYTHONPATH=src python -m pytest microbench --benchmark-only

Shapes follow the hot calls: the homomorphism check of the S5 regular
representation (14400 x 120 times 120 x 120), the isotypic projector of
the S4 degree-12 cover piece (1 x 24 times 24 x 455^2), a row-space
rank of that size, the 120 x 120 orbit blocks of rank up to 36 that
`irreducible_models(S5)` row-reduces, its changes of basis, and the first
split of the D100 character table.  `residues` is timed against
`np.remainder` from 10^2 to 10^5 cells, the sizes of the reductions
inside those calls, to place `linalg.RESIDUE_CELLS`.
"""

from __future__ import annotations

import numpy as np
import pytest

from isotypic import linalg
from isotypic.arith import MAX_MODULUS, choose_prime
from isotypic.characters import class_matrix
from isotypic.groups import conjugacy_classes, group_from_name

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


@pytest.mark.parametrize("cells", [10**2, 10**3, 10**4, 10**5])
@pytest.mark.parametrize("kernel", ["residues", "remainder"])
def test_reduce(benchmark, kernel, cells):
    # the values a row update leaves before its reduction, in (-(p-1)^2, p)
    x = np.random.default_rng(cells).integers(-((P - 1) ** 2), P, size=cells)
    if kernel == "residues":
        benchmark(linalg.residues, x, P)
    else:
        benchmark(np.remainder, x, P, out=x)
    assert x.min() >= 0 and x.max() < P


# (n, rank): rank n/2, so half the columns are pivots and half are
# eliminated into, and rank 25 as in the orbit blocks of the S5 models
@pytest.mark.parametrize("n, r", [(120, 60), (455, 227), (120, 25)])
def test_rref(benchmark, n, r):
    rng = np.random.default_rng(n + r)
    a = rng.integers(0, P, size=(n, r)) @ rng.integers(0, P, size=(r, n)) % P
    _, pivots = benchmark(linalg.rref, a, P)
    assert len(pivots) == r


# (basis rows, vector rows) over 120 columns, as in `irreducible_models(S5)`:
# 6 basis rows of a degree-6 copy against the images of its rows under all
# 120 elements, and one right-translation `split` of the 36-dimensional
# component
COORDINATE_CASES = {"restrict-s5": (6, 720), "split-s5": (36, 36)}


@pytest.mark.parametrize("name", COORDINATE_CASES)
def test_coordinates(benchmark, name):
    k, m = COORDINATE_CASES[name]
    rng = np.random.default_rng(k)
    basis = rng.integers(0, P, size=(k, 120))
    c = rng.integers(0, P, size=(m, k))
    out = benchmark(linalg.coordinates, basis, c @ basis % P, P)
    assert np.array_equal(out, c)


def test_eigenspaces(benchmark):
    # the first class-matrix split of the D100 table: 53 x 53 at p = 401,
    # 51 roots, of which 49 are simple and 2 (+-2) are double
    group = group_from_name("D100")
    p = choose_prime(group)
    a = class_matrix(group, conjugacy_classes(group), 1) % p
    spaces = benchmark(linalg.eigenspaces, a, p)
    assert [s.shape[0] for s in spaces].count(1) == 49 and len(spaces) == 51
