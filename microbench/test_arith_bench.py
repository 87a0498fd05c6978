"""Micro benchmarks of `Poly` arithmetic in `isotypic.arith`.

Outside the `testpaths` of pyproject.toml; run from the repository root:

    PYTHONPATH=src python -m pytest microbench --benchmark-only

Shapes follow `arith.poly_roots` on the characteristic polynomial of a
class matrix of D100 (53 classes): `powmod(x, p, f)` squares residues of
degree 52 and reduces the degree-104 product mod f.
"""

from __future__ import annotations

import random

import pytest

from isotypic.arith import Poly

P = 10009
DEGREE = 53


def random_poly(rng: random.Random, degree: int) -> Poly:
    return Poly(P, [rng.randrange(P) for _ in range(degree)] + [rng.randrange(1, P)])


@pytest.fixture(scope="module")
def polys():
    rng = random.Random(0)
    f = random_poly(rng, DEGREE)
    a, b = random_poly(rng, DEGREE - 1), random_poly(rng, DEGREE - 1)
    return f, a, b


def test_poly_mul(benchmark, polys):
    _, a, b = polys
    out = benchmark(Poly.__mul__, a, b)
    assert out.degree == 2 * (DEGREE - 1)


def test_poly_divmod(benchmark, polys):
    f, a, b = polys
    product = a * b
    q, r = benchmark(Poly.divmod, product, f)
    assert q * f + r == product and r.degree < DEGREE
