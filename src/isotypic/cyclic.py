"""Explicit univariate cyclic covers: x -> y = x^n.

The upstairs ring B is F_p[x] (polynomial variant) or F_p[x, 1/x]
(Laurent variant); downstairs A = F_p[y] with y = x^n, and B is free over
A on 1, x, ..., x^(n-1).  The generator acts by x -> zeta x for a fixed
n-th root of unity, so the weight of x^j is zeta^j and each character
component of B is a free rank-1 A-module A x^j.

The comparison map phi : B (x)_A B -> (+)_{g} B sends m (x) b to the
tuple (m * g^-1(b))_g.  Column x^i (x) x^j of its matrix over A is a
constant column times y^e with e = (i + j) div n, so phi = C·diag(y^e)
with C constant over F_p, and `polymat` reads everything off that
factorization: det(phi) = det(C)·y^(n(n-1)/2), and when det(C) != 0 the
invariant factors are n(n+1)/2 ones and n(n-1)/2 copies of y.  In the
polynomial variant the cokernel is supported exactly over y = 0 (the
image of the ramified point x = 0); in the Laurent variant y is a unit
and phi is an isomorphism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .arith import Poly, choose_prime, primitive_root
from .characters import CharacterTable, character_table
from .errors import SearchExhausted
from .groups import Group, conjugacy_classes, group_from_name, subgroup_closure
from .linalg import det, inv_mod, matmul
from .polymat import factored_det, factored_invariant_factors

VARIANTS = ("polynomial", "laurent")


@dataclass
class CyclicCoverModel:
    """Degree-n cyclic cover data: modulus, root of unity, variant."""

    n: int
    p: int
    zeta: int
    variant: str
    group: Group
    table: CharacterTable

    @property
    def classes(self):
        return self.table.classes

    def weight(self, j: int) -> int:
        """Eigenvalue of the generator on x^j."""
        return pow(self.zeta, j, self.p)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "modulus": self.p,
            "zeta": self.zeta,
            "variant": self.variant,
        }


@dataclass
class PhiMatrix:
    """Matrix of phi in the frozen bases, stored as phi = C·diag(y^e).

    Source: x^i (x) x^j with (i, j) lexicographic.  Target: pairs
    (group element index u, power v) ordered by (u, v), the block u
    holding the component at g^u.  `const` is C over F_p and `powers`
    is e, one exponent (0 or 1) per column.
    """

    n: int
    p: int
    const: np.ndarray
    powers: np.ndarray

    @property
    def entries(self) -> list[list[Poly]]:
        """Entry (r, c) = C[r, c]·y^e[c] as a polynomial in y.

        Equal entries share one (immutable) `Poly`.
        """
        powers = self.powers.tolist()
        shared = {
            (c, k): Poly.monomial(self.p, c, k) for c in np.unique(self.const).tolist() for k in set(powers)
        }
        return [[shared[c, k] for c, k in zip(row, powers)] for row in self.const.tolist()]


@dataclass
class NormalBasisWitness:
    """Element whose translates form a basis of Frac(B) over Frac(A).

    coeffs[i] is the A-coefficient of x^i; the certificate is the nonzero
    determinant of the translate matrix in the x-power basis.
    """

    coeffs: tuple[Poly, ...]
    determinant: Poly


def build_cyclic(n: int, variant: str = "polynomial") -> CyclicCoverModel:
    """Set up the degree-n model: smallest valid prime, canonical zeta."""
    if n < 1:
        raise ValueError("cover degree must be positive")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    group = group_from_name(f"C{n}")
    p = choose_prime(group)
    zeta = pow(primitive_root(p), (p - 1) // n, p)
    classes = conjugacy_classes(group)
    table = character_table(group, classes, p)
    return CyclicCoverModel(n, p, zeta, variant, group, table)


def decompose_pushforward(model: CyclicCoverModel) -> list[int]:
    """x-power j(k) spanning the component of each character row k.

    j(k) is the discrete log base zeta of the character value at the
    generator; the assignment is a bijection onto 0..n-1, so every
    component is free of rank 1.
    """
    n, p = model.n, model.p
    if n == 1:
        return [0]
    gen_class = model.classes.class_of[1]
    out = []
    for k in range(model.table.num_irreps):
        val = model.table.values[k][gen_class]
        j = next((j for j in range(n) if model.weight(j) == val), None)
        if j is None:
            raise AssertionError("character value is not a power of zeta")
        out.append(j)
    if sorted(out) != list(range(n)):
        raise AssertionError("component powers are not a bijection")
    return out


def intermediate_fixed_ring(model: CyclicCoverModel, m: int) -> tuple[int, ...]:
    """x-powers spanning the fixed ring of the subgroup generated by g^m.

    Three descriptions must agree: characters trivial on the subgroup,
    multiples of n/m (the subring F_p[x^(n/m)]), and the weighted count
    of fixed-space dimensions.
    """
    n = model.n
    if m < 1 or n % m != 0:
        raise ValueError("m must divide the cover degree")
    powers = decompose_pushforward(model)
    gm = (m % n) if n > 1 else 0
    h = subgroup_closure(model.group, [gm] if gm else [])
    # characters trivial on H
    triv_rows = [
        k
        for k in range(model.table.num_irreps)
        if all(model.table.values[k][model.classes.class_of[x]] == 1 for x in h.element_indices)
    ]
    by_chars = tuple(sorted(powers[k] for k in triv_rows))
    by_subring = tuple(j for j in range(n) if j % (n // m) == 0)
    if by_chars != by_subring:
        raise AssertionError("character and subring descriptions of the fixed ring disagree")
    from .characters import restrict_invariant_dim

    count = sum(
        restrict_invariant_dim(model.table.values[k], h, model.group, model.classes, model.p)
        for k in range(model.table.num_irreps)
    )
    if count != len(by_chars):
        raise AssertionError("fixed-ring rank disagrees with the weighted dimension count")
    return by_chars


def phi_matrix(model: CyclicCoverModel) -> PhiMatrix:
    """phi = C·diag(y^e) for m (x) b -> (m * g^-u(b))_u over A = F_p[y].

    phi(x^i (x) x^j) lands in slot u as zeta^(-uj) x^(i+j); reducing
    x^(i+j) to the basis gives the factor y^e with e = (i + j) div n.
    """
    n, p = model.n, model.p
    zeta_inv = inv_mod(model.zeta, p)
    inv_powers = np.array([pow(zeta_inv, k, p) for k in range(n)], dtype=np.int64)
    cols = np.arange(n * n)
    i, j = np.divmod(cols, n)
    u = np.arange(n)[:, None]
    const = np.zeros((n * n, n * n), dtype=np.int64)
    const[u * n + (i + j) % n, cols] = inv_powers[u * j % n]
    return PhiMatrix(n, p, const, (i + j) // n)


def phi_det(model: CyclicCoverModel, phi: PhiMatrix | None = None) -> Poly:
    """det(phi) = det(C)·y^(sum e)."""
    if phi is None:
        phi = phi_matrix(model)
    return factored_det(phi.const, phi.powers, model.p)


def phi_elementary_divisors(
    model: CyclicCoverModel, phi: PhiMatrix | None = None, determinant: Poly | None = None
) -> list[Poly]:
    """Monic invariant factors of phi over F_p[y].

    They are y^e in ascending order, certified by det(phi) != 0 (that is,
    C invertible); a singular C raises `SingularMatrix`.  Pass `phi` and
    its `phi_det` to reuse them.
    """
    if phi is None:
        phi = phi_matrix(model)
    if determinant is None:
        determinant = phi_det(model, phi)
    return factored_invariant_factors(determinant, phi.powers)


def phi_equivariance_check(model: CyclicCoverModel, phi: PhiMatrix | None = None) -> bool:
    """phi intertwines the two commuting cyclic actions.

    Source actions (h = generator): 1 (x) h scales x^i (x) x^j by zeta^j,
    h (x) 1 scales by zeta^i.  Target actions: left translation permutes
    the blocks u -> h u; the twisted action shifts u -> u h^-1 and applies
    h inside the component (x^v scales by zeta^v).  Both identities
    phi S = T phi must hold over A.  S and diag(y^e) are diagonal, so they
    commute, and diag(y^e) is invertible over Frac(A): phi S = T phi holds
    exactly when C S = T C, which is checked on constant matrices.
    """
    n, p = model.n, model.p
    if phi is None:
        phi = phi_matrix(model)
    size = n * n
    weights = np.array([model.weight(k) for k in range(n)], dtype=np.int64)
    cols = np.arange(size)
    u, v = np.divmod(cols, n)
    s_right = np.diag(weights[v])  # 1 (x) h
    s_left = np.diag(weights[u])  # h (x) 1
    t_translate = np.zeros((size, size), dtype=np.int64)
    t_translate[(u + 1) % n * n + v, cols] = 1
    t_twist = np.zeros((size, size), dtype=np.int64)
    t_twist[(u - 1) % n * n + v, cols] = weights[v]
    c = phi.const
    return all(
        np.array_equal(matmul(c, s, p), matmul(t, c, p))
        for s, t in ((s_right, t_translate), (s_left, t_twist))
    )


def normal_basis_element(model: CyclicCoverModel, seed: int = 0) -> NormalBasisWitness:
    """Element of B whose n translates are a basis over Frac(A).

    Deterministic candidate order: 1 + x, then 1 + x + ... + x^(n-1),
    then seeded random constant coefficient vectors.  The certificate is
    the determinant of the translate matrix [cand_i zeta^(ij)], a constant
    matrix over F_p, which a density argument makes nonzero for some early
    candidate.
    """
    n, p = model.n, model.p
    rng = random.Random(seed)

    def candidates():
        if n == 1:
            yield (1,)
        else:
            yield (1, 1) + (0,) * (n - 2)
            yield (1,) * n
        for _ in range(1000):
            yield tuple(rng.randrange(p) for _ in range(n))

    zeta_powers = np.array(
        [[pow(model.zeta, i * j, p) for j in range(n)] for i in range(n)], dtype=np.int64
    )
    for cand in candidates():
        d = det(np.array(cand, dtype=np.int64)[:, None] * zeta_powers % p, p)
        if d:
            coeffs = tuple(Poly.const(p, c) for c in cand)
            return NormalBasisWitness(coeffs, Poly.const(p, d))
    raise SearchExhausted("no normal-basis element found in 1000 candidates")
