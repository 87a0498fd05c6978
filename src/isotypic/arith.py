"""Exact arithmetic over a prime field F_p.

Scalars are plain ints in [0, p).  Polynomials are immutable coefficient
tuples stored low-to-high with no trailing zeros; the zero polynomial has
an empty tuple.  A rational function is a pair of polynomials: `RatFunc`
is the reduced pair with a monic denominator, which reports print, and
`series_prefix` takes any pair, so that sums of rational functions are
formed over a common denominator and reduced once, if at all.
`poly_roots` works on int64 coefficient arrays instead: products mod a
fixed modulus are convolutions folded back through a table of
x^(m+k) mod g, and the roots come from splitting idempotents of
F_p[x]/(g).  Every value is an exact residue; floating point appears only
inside `linalg.matmul`, where its bound keeps sums exact, and there is no
characteristic-0 lift anywhere.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import PoleAtZero, ResidualPole, SplitFailure
from .groups import DEFAULT_CAP, exponent
from .linalg import inv_mod, matmul, require_exact

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


def splitting_prime_failure(group, p: int) -> str | None:
    """Why the prime p breaks the rule that `choose_prime` follows, or None.

    The rule: p does not divide |G|, p = 1 (mod exponent(G)), and p > |G|.
    """
    e = exponent(group)
    if group.order % p == 0:
        return f"divides the group order {group.order}"
    if p % e != 1 % e:
        return f"is not 1 mod the exponent {e}"
    if p <= group.order:
        return f"must exceed the group order {group.order}"
    return None


def choose_prime(group) -> int:
    """Smallest prime p with p = 1 (mod exponent(G)) and p > |G|, so that
    `splitting_prime_failure` finds nothing wrong with it.

    For such p the field F_p contains all roots of unity of order dividing
    the exponent, hence splits every irreducible representation of G.
    """
    e = exponent(group)
    p = group.order + 1 + (-group.order) % e  # the least p > |G| with p = 1 mod e
    while not is_prime(p):
        p += e
    return p


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


def poly_roots(f: Poly) -> list[int]:
    """Distinct roots of a nonzero f in F_p, in ascending order.

    g = gcd(f, x^p - x) is the product of x - r over the distinct roots r,
    and its m roots are split apart on idempotents of A = F_p[x]/(g),
    which is F_p^m by the Chinese remainder theorem (Cantor-Zassenhaus
    equal-degree splitting, done on idempotents).  For a draw a,
    w = (x + a)^((p-1)/2) takes the value 1, -1 or 0 at each root r (the
    Legendre symbol of r + a), so (w^2 + w)/2, (w^2 - w)/2 and 1 - w^2 are
    orthogonal idempotents that sum to 1, also when -a is a root.  One w
    per draw refines every pending idempotent at once.  The draws are
    seeded, and the first one's w comes with x^p = (x + a)^p - a, as
    (x + a) w^2 mod f.  The trace of an idempotent counts the roots it
    carries, so those of trace 1 are done: each is the idempotent of one
    root r, read off as r = Tr(x e).  x e = r e is then checked on every
    row at once; m rows with m distinct r certify all m roots, else
    SplitFailure.

    Arithmetic mod f or g is on int64 coefficient arrays: a product is one
    convolution and one product with the rows x^(m+k) mod g, and
    `require_exact` keeps every sum of products below 2^63.  The cost
    grows with log p, not p.  Raises SplitFailure for a composite modulus,
    where the splitting would never end.
    """
    p = f.p
    if not is_prime(p):
        raise SplitFailure(f"modulus {p} is not prime")
    if p == 2:
        return [r for r in (0, 1) if f.eval(r) == 0]
    fa = np.array(f.monic().coeffs, dtype=np.int64)
    if fa.size < 3:  # a constant, or x - r
        return [int(-fa[0] % p)] if fa.size == 2 else []
    require_exact(fa.size, p)
    fold = _fold_table(fa, p)
    rng = random.Random(0)
    a = rng.randrange(p)
    w = _linear_power(a, (p - 1) // 2, fold, p)  # mod f, for now
    frob = _reduce(np.convolve(np.convolve(w, w) % p, (a, 1)), fold, p)  # (x + a)^p = x^p + a
    frob[:2] -= a, 1
    g = _gcd(fa, frob % p, p)
    m = g.size - 1
    if m < 2:
        return [int(-g[0] % p)] if m else []
    if m < fa.size - 1:  # else g = f: every root of f is simple and in F_p
        w = _remainder(w, g, p)
        fold = _fold_table(g, p)
    trace = _power_traces(fold, p)
    pending, done = np.eye(1, m, dtype=np.int64), np.zeros((0, m), dtype=np.int64)
    us = _legendre_idempotents(w, a, g, fold, p)
    split = us[:, None, :]  # the first draw cuts 1, and 1 u = u
    while True:
        parts = np.concatenate([*split, (pending - split.sum(axis=0)) % p])
        parts = parts[parts.any(axis=1)]
        single = parts @ trace % p == 1
        done = np.concatenate([done, parts[single]])
        pending = parts[~single]
        if not pending.shape[0]:
            break
        a = rng.randrange(p)
        us = _legendre_idempotents(_linear_power(a, (p - 1) // 2, fold, p), a, g, fold, p)
        split = _times(pending, us, fold, p)
    shifted = done[:, -1:] * fold[0]  # x e mod g, row by row
    shifted[:, 1:] += done[:, :-1]
    shifted %= p
    roots = shifted @ trace % p
    if done.shape[0] != m or len(set(roots.tolist())) != m or (shifted != done * roots[:, None] % p).any():
        raise SplitFailure("an idempotent of trace 1 is not the idempotent of one root")
    return sorted(roots.tolist())


def _legendre_idempotents(w: np.ndarray, a: int, g: np.ndarray, fold: np.ndarray, p: int) -> np.ndarray:
    """Rows (w^2 + w)/2 and (w^2 - w)/2 for w = (x + a)^((p-1)/2) mod g: the
    idempotents of the roots r with r + a a nonzero square, and a
    non-square.  The third idempotent is 1 minus their sum.  w^2 is 1 at
    every root but -a, so when -a is no root of g the second is 1 minus the
    first, and only the first is returned."""
    half = (p + 1) // 2
    hit = 0
    for c in reversed(g.tolist()):  # g(-a), by Horner
        hit = (hit * -a + c) % p
    if hit:
        u = w * half
        u[0] += half
        return u[None, :] % p
    ww = _reduce(np.convolve(w, w), fold, p)
    return np.array([ww + w, ww - w]) * half % p


def _fold_table(g: np.ndarray, p: int) -> np.ndarray:
    """Rows x^(m+k) mod g, k = 0 .. m-1, for a monic g of degree m >= 2:
    the coefficients of degree m and up of a product fold back through them."""
    m = g.size - 1
    fold = np.empty((m, m), dtype=np.int64)
    fold[0] = -g[:m] % p
    for k in range(1, m):  # x^(m+k) = x * x^(m+k-1)
        fold[k] = fold[k - 1, -1] * fold[0]
        fold[k, 1:] += fold[k - 1, :-1]
        fold[k] %= p
    return fold


def _reduce(c: np.ndarray, fold: np.ndarray, p: int) -> np.ndarray:
    """Coefficients of degree below 2m, reduced mod g along the last axis."""
    m = fold.shape[1]
    high = c[..., m:] % p
    # one vector takes the int64 product, exact by `require_exact` and without
    # `matmul`'s fixed cost, which dominates the short chains of small f
    high = high @ fold[: high.shape[-1]] if high.ndim == 1 else matmul(high, fold[: high.shape[-1]], p)
    return (c[..., :m] % p + high) % p


def _linear_power(a: int, k: int, fold: np.ndarray, p: int) -> np.ndarray:
    """(x + a)^k mod g for k >= 1, by squaring."""
    out = np.zeros(fold.shape[1], dtype=np.int64)
    out[:2] = a, 1
    for bit in bin(k)[3:]:
        c = np.convolve(out, out)
        if bit == "1":
            c = np.convolve(c % p, (a, 1))
        out = _reduce(c, fold, p)
    return out


def _times(e: np.ndarray, us: np.ndarray, fold: np.ndarray, p: int) -> np.ndarray:
    """e u mod g for each row u of us, row by row: one product with the
    Toeplitz matrices of the u side by side, then one reduction."""
    m = fold.shape[1]
    padded = np.zeros((3 * m - 2, us.shape[0]), dtype=np.int64)
    padded[m - 1 : 2 * m - 1] = us.T
    # row i reads the padded u from m - 1 - i on, the coefficients of x^i u:
    # a view, which `matmul` converts a block of columns at a time
    rows, cols = padded.strides
    toeplitz = np.ndarray(
        (m, padded.shape[1] * (2 * m - 1)), np.int64, padded, (m - 1) * rows, (-rows, cols)
    )
    products = matmul(e, toeplitz, p).reshape(e.shape[0], 2 * m - 1, -1)
    return _reduce(products.transpose(2, 0, 1), fold, p)


def _power_traces(fold: np.ndarray, p: int) -> np.ndarray:
    """Tr(x^j) on F_p[x]/(g) for j = 0 .. m-1, the power sums of the roots.

    Multiplication by x^j sends x^k to x^(j+k), so its trace sums the
    coefficient of x^k in x^(j+k) mod g: m for j = 0, and otherwise the
    diagonal fold[i, i + m - j], i < j, of the table of x^(m+i) mod g.
    """
    m = fold.shape[1]
    return np.array([m] + [fold.trace(m - j) for j in range(1, m)], dtype=np.int64) % p


def _gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Monic gcd of a monic a and a b of lower degree (coefficients low to high)."""
    b = b[: _degree(b) + 1]
    while b.size:
        b = b * inv_mod(int(b[-1]), p) % p
        r = _remainder(a, b, p)
        a, b = b, r[: _degree(r) + 1]
    return a


def _remainder(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a mod a monic b, as deg b coefficients (a has at least that many).

    Schoolbook division that reduces only the coefficient it reads: each
    entry takes at most deg a products below p^2, which `require_exact`
    keeps in int64."""
    n = b.size - 1
    r = a.copy()
    for top in range(r.size - 1, n - 1, -1):
        c = int(r[top]) % p
        if c:
            r[top - n : top + 1] -= c * b
    return r[:n] % p


def _degree(v: np.ndarray) -> int:
    nz = np.flatnonzero(v)
    return int(nz[-1]) if nz.size else -1


class RatFunc:
    """The reduced form of a pair num/den over F_p, with monic denominator,
    so equality is componentwise; it does no arithmetic."""

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.p == other.p
            and self.num == other.num
            and self.den == other.den
        )

    def __repr__(self) -> str:
        return f"RatFunc({self.num} / {self.den} mod {self.p})"

    def __str__(self) -> str:
        return f"{self.num} / {self.den}"

    def to_dict(self) -> dict:
        return {"num": list(self.num.coeffs), "den": list(self.den.coeffs)}


def series_prefix(num: Poly, den: Poly, terms: int) -> list[int]:
    """First terms+1 power-series coefficients of num/den at t = 0.

    The pair need not be reduced: a common factor changes no coefficient.
    Standard long division: c_k = (a_k - sum b_j c_{k-j}) / b_0.
    """
    p = num.p
    b = den.coeffs
    if not b or b[0] == 0:
        raise PoleAtZero("denominator vanishes at t = 0")
    a = num.coeffs
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
