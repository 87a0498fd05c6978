"""Micro benchmarks of polynomial arithmetic in `isotypic.arith`.

Outside the `testpaths` of pyproject.toml; run from the repository root:

    PYTHONPATH=src python -m pytest microbench --benchmark-only

`Poly` products and divisions are timed at the size of a D100 class
polynomial (degree 53 at p = 10009).  `poly_roots` is timed on what the
commands give it: the characteristic polynomial of a D100 class matrix
(53 classes, p = 401), and the 17 small polynomials (degree 2 to 9) of
one verify-all run, together.
"""

from __future__ import annotations

import random

import pytest

from isotypic import arith, cli, linalg
from isotypic.arith import Poly, poly_roots
from isotypic.characters import class_matrix
from isotypic.groups import conjugacy_classes, group_from_name

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


def test_poly_roots_d100_class_polynomial(benchmark):
    group = group_from_name("D100")
    classes = conjugacy_classes(group)
    p = arith.choose_prime(group)
    f = Poly(p, linalg.charpoly(class_matrix(group, classes, 1) % p, p))
    roots = benchmark(poly_roots, f)
    assert f.degree == DEGREE and len(roots) == 51


@pytest.fixture(scope="module")
def verify_all_polys():
    seen = []
    roots = arith.poly_roots
    arith.poly_roots = lambda f: seen.append(f) or roots(f)
    try:
        cli.verify_all_document(12)
    finally:
        arith.poly_roots = roots
    return seen


def test_poly_roots_verify_all(benchmark, verify_all_polys):
    assert len(verify_all_polys) == 17
    assert max(f.degree for f in verify_all_polys) == 9
    benchmark(lambda: [poly_roots(f) for f in verify_all_polys])
