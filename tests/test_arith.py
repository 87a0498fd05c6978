"""Prime selection, polynomial and rational-function arithmetic, series."""

from __future__ import annotations

import random

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import isotypic as iso
from isotypic.arith import Poly, RatFunc
from isotypic.errors import PoleAtZero, ResidualPole


def test_choose_prime_examples():
    assert iso.choose_prime(iso.group_from_name("S3")) == 7
    assert iso.choose_prime(iso.group_from_name("C1")) == 2
    assert iso.choose_prime(iso.group_from_name("Q8")) == 13
    assert iso.choose_prime(iso.group_from_name("C2")) == 3
    assert iso.choose_prime(iso.group_from_name("C4")) == 5
    assert iso.choose_prime(iso.group_from_name("A4")) == 13


def test_choose_prime_invariants():
    for name in ("C6", "D4", "S4", "A4"):
        group = iso.group_from_name(name)
        p = iso.choose_prime(group)
        e = iso.exponent(group)
        assert p > group.order
        assert p % e == 1 % e
        assert iso.primitive_root(p) >= 1


def test_field_axioms_random_sampling():
    rng = random.Random(0)
    for p in (7, 13):
        for _ in range(10_000):
            a, b, c = (rng.randrange(p) for _ in range(3))
            assert (a + b) % p == (b + a) % p
            assert ((a + b) + c) % p == (a + (b + c)) % p
            assert (a * (b * c)) % p == ((a * b) * c) % p
            assert (a * (b + c)) % p == (a * b + a * c) % p
            if a:
                inv = pow(a, p - 2, p)
                assert a * inv % p == 1


def test_root_of_unity():
    z = iso.root_of_unity(7, 3)
    assert pow(z, 3, 7) == 1 and z != 1
    assert iso.root_of_unity(13, 4) in (5, 8)  # the two elements of order 4
    with pytest.raises(ValueError):
        iso.root_of_unity(7, 4)


def test_poly_basics():
    p = 7
    f = Poly(p, (1, 0, 2, 0))  # trailing zero stripped
    assert f.coeffs == (1, 0, 2)
    assert f.degree == 2
    assert Poly(p).is_zero()
    g = Poly(p, (3, 1))
    assert (f * g).coeffs == (3, 1, 6, 2)
    q, r = f.divmod(g)
    assert (q * g + r) == f
    assert f.eval(2) == (1 + 2 * 4) % 7


def test_poly_gcd_examples():
    p = 7
    t = Poly.x(p)
    one = Poly.const(p, 1)
    # gcd(t^2 - 1, t - 1) = t - 1
    assert iso.poly_gcd(t * t - one, t - one) == (t - one).monic()
    assert iso.poly_gcd(t, one) == one
    # gcd(t^3 - 1, t^2 - 1) over F_7 = t - 1 (hand Euclid: both share the root 1)
    assert iso.poly_gcd(t ** 3 - one, t * t - one) == (t - one).monic()
    with pytest.raises(ValueError):
        iso.poly_gcd(Poly(p), Poly(p))


Y = sympy.Symbol("y")


def to_sympy(f: Poly) -> sympy.Poly:
    return sympy.Poly(list(reversed(f.coeffs)) or [0], Y, modulus=f.p)


def from_sympy(f: sympy.Poly, p: int) -> Poly:
    """The `Poly` of a sympy polynomial over GF(p), whose coefficients are
    symmetric residues in (-p/2, p/2]."""
    return Poly(p, [int(c) % p for c in reversed(f.all_coeffs())])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 6), max_size=5),
    st.lists(st.integers(0, 6), max_size=5),
    st.lists(st.integers(0, 6), max_size=4),
)
def test_poly_gcd_divides_both(a, b, c):
    p = 7
    fa, fb, fc = Poly(p, a), Poly(p, b), Poly(p, c)
    f, g = fa * fc, fb * fc
    if f.is_zero() and g.is_zero():
        return
    d = iso.poly_gcd(f, g)
    if not f.is_zero():
        assert (f % d).is_zero()
    if not g.is_zero():
        assert (g % d).is_zero()
    if not fc.is_zero():
        assert (d % fc.monic()).is_zero()
    # the monic gcd over GF(p), computed by sympy
    assert d == from_sympy(to_sympy(f).gcd(to_sympy(g)), p)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((7, 10009)),
    st.lists(st.integers(0, 10008), max_size=7),
    st.lists(st.integers(0, 10008), min_size=1, max_size=4),
)
def test_poly_divmod_matches_sympy_div(p, a, b):
    f, g = Poly(p, a), Poly(p, b)
    assume(not g.is_zero())
    q, r = f.divmod(g)
    want_q, want_r = sympy.div(to_sympy(f), to_sympy(g))
    assert (q, r) == (from_sympy(want_q, p), from_sympy(want_r, p))
    assert r.degree < g.degree and q * g + r == f


def test_ratfunc_reduction_and_equality():
    p = 7
    t = Poly.x(p)
    one = Poly.const(p, 1)
    f = RatFunc((t * t - one), (t - one))  # reduces to t + 1
    assert f == RatFunc(t + one, one)
    assert f.den.lead() == 1
    # equality is componentwise on the reduced form
    g = RatFunc((t + one) * Poly.const(p, 3), Poly.const(p, 3))
    assert g == f


def test_series_prefix_examples():
    p = 7
    one = Poly.const(p, 1)
    t = Poly.x(p)
    assert iso.series_prefix(one, one - t ** 3, 6) == [1, 0, 0, 1, 0, 0, 1]
    assert iso.series_prefix(one, one - t, 3) == [1, 1, 1, 1]
    assert iso.series_prefix(t, one - t * t, 4) == [0, 1, 0, 1, 0]
    # an unreduced pair has the series of its reduced form
    assert iso.series_prefix(one + t, one - t * t, 3) == [1, 1, 1, 1]
    with pytest.raises(PoleAtZero):
        iso.series_prefix(one, t, 3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=4),
    st.lists(st.integers(0, 6), min_size=1, max_size=4),
    st.lists(st.integers(0, 6), min_size=1, max_size=4),
    st.lists(st.integers(0, 6), min_size=1, max_size=4),
)
def test_series_of_product_is_cauchy_product(na, da, nb, db):
    p = 7
    da = [max(da[0], 1)] + da[1:]  # den(0) != 0
    db = [max(db[0], 1)] + db[1:]
    fn, fd, gn, gd = Poly(p, na), Poly(p, da), Poly(p, nb), Poly(p, db)
    terms = 8
    sf = iso.series_prefix(fn, fd, terms)
    sg = iso.series_prefix(gn, gd, terms)
    cauchy = [sum(sf[j] * sg[k - j] for j in range(k + 1)) % p for k in range(terms + 1)]
    # the product's series, from the raw products of numerators and denominators
    assert iso.series_prefix(fn * gn, fd * gd, terms) == cauchy


def one_minus_t(p: int) -> Poly:
    return Poly(p, (1, -1))


def cleared(f: RatFunc, n: int) -> RatFunc:
    """(1-t)^n f, reduced."""
    return RatFunc(f.num * one_minus_t(f.p) ** n, f.den)


def test_limit_at_one_examples():
    p = 7
    one = Poly.const(p, 1)
    t = Poly.x(p)
    assert iso.limit_at_one(cleared(RatFunc(one, (one - t) ** 2), 2)) == 1
    assert iso.limit_at_one(cleared(RatFunc(one + t, one - t), 1)) == 2
    # 1/(1 - t^3) with one pole cleared evaluates to 1/3
    assert iso.limit_at_one(cleared(RatFunc(one, one - t ** 3), 1)) == pow(3, p - 2, p)
    with pytest.raises(ResidualPole):
        iso.limit_at_one(cleared(RatFunc(one, (one - t) ** 2), 1))


def test_limit_at_one_matches_plain_evaluation():
    p = 13
    t = Poly.x(p)
    one = Poly.const(p, 1)
    f = RatFunc(one + t * t, one + t)
    assert iso.limit_at_one(f) == f.num.eval(1) * pow(f.den.eval(1), p - 2, p) % p


def test_one_minus_t_power_clears_poles():
    p = 7
    t = Poly.x(p)
    one = Poly.const(p, 1)
    f = RatFunc(one, (one - t) ** 3)
    assert cleared(f, 3) == RatFunc(one, one)
