"""Exact arithmetic over a prime field F_p.

Scalars are plain ints in [0, p).  Polynomials are immutable coefficient
tuples stored low-to-high with no trailing zeros; the zero polynomial has
an empty tuple.  Rational functions are always kept reduced with a monic
denominator so equality is componentwise and every report is
deterministic.  There is no floating point and no characteristic-0 lift
anywhere.
"""

from __future__ import annotations

import math
import random

from .errors import PoleAtZero, ResidualPole, SplitFailure
from .groups import DEFAULT_CAP, exponent
from .linalg import inv_mod

# Largest modulus whose int64 kernels stay exact: a dot product of
# DEFAULT_CAP residues, each product below (p-1)^2, must stay below 2^63.
MAX_MODULUS = math.isqrt((2**63 - 1) // DEFAULT_CAP) + 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def choose_prime(group) -> int:
    """Smallest prime p with p = 1 (mod exponent(G)) and p > |G|.

    For such p the field F_p contains all roots of unity of order dividing
    the exponent, hence splits every irreducible representation of G.
    """
    e = exponent(group)
    p = group.order + 1
    # align on the residue class 1 mod e
    if p % e != 1 % e:
        p += (1 - p) % e
    while True:
        if p > group.order and is_prime(p):
            return p
        p += e if e > 1 else 1


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group of F_p."""
    if p == 2:
        return 1
    factors = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"{p} is not prime")


def root_of_unity(p: int, n: int) -> int:
    """Canonical element of multiplicative order n in F_p (requires n | p-1)."""
    if (p - 1) % n != 0:
        raise ValueError(f"F_{p} has no element of order {n}")
    return pow(primitive_root(p), (p - 1) // n, p)


class Poly:
    """Univariate polynomial over F_p, coefficients low-to-high."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()):
        self.p = p
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, p: int, c: int) -> "Poly":
        return cls(p, (c,))

    @classmethod
    def x(cls, p: int) -> "Poly":
        return cls(p, (0, 1))

    @classmethod
    def monomial(cls, p: int, c: int, k: int) -> "Poly":
        return cls(p, (0,) * k + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return Poly(self.p, out)

    def __neg__(self) -> "Poly":
        return Poly(self.p, tuple(-c % self.p for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % self.p
        return Poly(self.p, out)

    def scale(self, c: int) -> "Poly":
        return Poly(self.p, tuple(a * c for a in self.coeffs))

    def __pow__(self, k: int) -> "Poly":
        out = Poly.const(self.p, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = inv_mod(other.lead(), p)
        for i in range(len(rem) - len(other.coeffs), -1, -1):
            c = rem[i + len(other.coeffs) - 1] * dlead % p
            if c:
                q[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = (rem[i + j] - c * b) % p
        return Poly(p, q), Poly(p, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(inv_mod(self.lead(), self.p))

    def eval(self, a: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % self.p
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)} mod {self.p})"

    def __str__(self) -> str:
        return str(list(self.coeffs))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor (not both arguments zero)."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def powmod(base: Poly, k: int, mod: Poly) -> Poly:
    """base^k reduced modulo mod, by repeated squaring."""
    out = Poly.const(base.p, 1) % mod
    base = base % mod
    while k:
        if k & 1:
            out = out * base % mod
        base = base * base % mod
        k >>= 1
    return out


def poly_roots(f: Poly) -> list[int]:
    """Distinct roots of a nonzero f in F_p, in ascending order.

    gcd(f, x^p - x) keeps one linear factor per root; Cantor-Zassenhaus
    equal-degree splitting with seeded shifts a then separates them along
    gcd(h, (x + a)^((p-1)/2) - 1).  The cost grows with log p, not p.
    Raises SplitFailure for a composite modulus, where the splitting
    would never end.
    """
    p = f.p
    if not is_prime(p):
        raise SplitFailure(f"modulus {p} is not prime")
    x = Poly.x(p)
    if p == 2:
        return [r for r in (0, 1) if f.eval(r) == 0]
    pending = [poly_gcd(f, powmod(x, p, f) - x)]
    one = Poly.const(p, 1)
    rng = random.Random(0)
    roots = []
    while pending:
        h = pending.pop()
        if h.degree == 1:
            roots.append(-h.coeffs[0] % p)
        elif h.degree > 1:
            while True:
                a = rng.randrange(p)
                s = poly_gcd(h, powmod(x + Poly.const(p, a), (p - 1) // 2, h) - one)
                if 0 < s.degree < h.degree:
                    break
            pending += [s, h.exact_div(s)]
    return sorted(roots)


class RatFunc:
    """Reduced rational function num/den over F_p with monic denominator."""

    __slots__ = ("p", "num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        p = num.p
        if num.is_zero():
            num, den = Poly(p), Poly.const(p, 1)
        else:
            g = poly_gcd(num, den)
            num, den = num.exact_div(g), den.exact_div(g)
            c = inv_mod(den.lead(), p)
            num, den = num.scale(c), den.scale(c)
        self.p = p
        self.num = num
        self.den = den

    @classmethod
    def const(cls, p: int, c: int) -> "RatFunc":
        return cls(Poly.const(p, c), Poly.const(p, 1))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def scale(self, c: int) -> "RatFunc":
        return RatFunc(self.num.scale(c), self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.p == other.p
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFunc({self.num} / {self.den} mod {self.p})"

    def __str__(self) -> str:
        return f"{self.num} / {self.den}"

    def to_dict(self) -> dict:
        return {"num": list(self.num.coeffs), "den": list(self.den.coeffs)}


def series_prefix(f: RatFunc, terms: int) -> list[int]:
    """First terms+1 power-series coefficients of f at t = 0.

    Standard long division: c_k = (a_k - sum b_j c_{k-j}) / b_0.
    """
    p = f.p
    b = f.den.coeffs
    if not b or b[0] == 0:
        raise PoleAtZero("denominator vanishes at t = 0")
    a = f.num.coeffs
    b0 = inv_mod(b[0], p)
    out = []
    for k in range(terms + 1):
        acc = a[k] if k < len(a) else 0
        for j in range(1, min(k, len(b) - 1) + 1):
            acc -= b[j] * out[k - j]
        out.append(acc * b0 % p)
    return out


def limit_at_one(f: RatFunc) -> int:
    """Value of the reduced f at t = 1.

    Raises ResidualPole when a factor (1-t) divides the denominator.
    """
    d = f.den.eval(1)
    if d == 0:
        raise ResidualPole("pole at t = 1")
    return f.num.eval(1) * inv_mod(d, f.p) % f.p
