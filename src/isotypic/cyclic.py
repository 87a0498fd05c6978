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

`cyclic_report` runs every check on one model and returns a
`cover.Report` of `VerificationOutcome`s, as `cover.pushforward_report`
does for graded covers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import Poly, choose_prime, root_of_unity
from .characters import CharacterTable, character_table
from .cover import Report, VerificationOutcome
from .errors import SingularMatrix, error_witness
from .groups import Group, conjugacy_classes, group_from_name, subgroup_closure
from .linalg import block_det, det, inv_mod
from .polymat import as_unit_times_power, factored_invariant_factors

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

    def coeff_lists(self) -> list[list[list[int]]]:
        """Coefficients in y of each entry C[r, c]·y^e[c], low to high: []
        where C[r, c] is 0, otherwise [0]*e[c] + [C[r, c]].

        Equal entries share one list.
        """
        base = int(self.powers.max(initial=0)) + 1
        keys, index = np.unique(self.const * base + self.powers, return_inverse=True)
        lists = [[0] * (key % base) + [key // base] if key >= base else [] for key in keys.tolist()]
        return [[lists[k] for k in row] for row in index.reshape(self.const.shape).tolist()]


@dataclass
class NormalBasisWitness:
    """Element whose translates form a basis of Frac(B) over Frac(A).

    coeffs[i] is the A-coefficient of x^i; the certificate is the
    determinant of the translate matrix in the x-power basis, nonzero
    exactly when the translates are a basis.
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
    zeta = root_of_unity(p, n)
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


def blocks_of(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal block of each row and of each column of C.

    Row (u, v) holds the coefficient of x^v in slot u, so it lies in block
    v; column x^i (x) x^j has x^(i+j) = y^e x^((i + j) mod n), so it lies
    in block (i + j) mod n.
    """
    k = np.arange(n * n)
    i, j = np.divmod(k, n)
    return j, (i + j) % n


def phi_matrix(model: CyclicCoverModel) -> PhiMatrix:
    """phi = C·diag(y^e) for m (x) b -> (m * g^-u(b))_u over A = F_p[y].

    phi(x^i (x) x^j) lands in slot u as zeta^(-uj) x^(i+j); reducing
    x^(i+j) to the basis gives the factor y^e with e = (i + j) div n, in
    row (u, (i + j) mod n).
    """
    n, p = model.n, model.p
    zeta_inv = inv_mod(model.zeta, p)
    inv_powers = np.array([pow(zeta_inv, k, p) for k in range(n)], dtype=np.int64)
    cols = np.arange(n * n)
    i, j = np.divmod(cols, n)
    u = np.arange(n)[:, None]
    const = np.zeros((n * n, n * n), dtype=np.int64)
    const[u * n + blocks_of(n)[1], cols] = inv_powers[u * j % n]
    return PhiMatrix(n, p, const, (i + j) // n)


def const_blocks(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rows and columns of the n diagonal blocks of C (`blocks_of`), for
    v = 0..n-1, each in ascending order."""
    row_block, col_block = blocks_of(n)
    return [(np.flatnonzero(row_block == v), np.flatnonzero(col_block == v)) for v in range(n)]


def off_block_entry(phi: PhiMatrix) -> tuple[int, int] | None:
    """(row, column) of the first nonzero entry of C outside its diagonal
    blocks (`blocks_of`), or None when C is block diagonal."""
    row_block, col_block = blocks_of(phi.n)
    stray = np.argwhere((phi.const != 0) & (row_block[:, None] != col_block))
    return (int(stray[0, 0]), int(stray[0, 1])) if stray.size else None


def phi_det(phi: PhiMatrix) -> Poly:
    """det(phi) = det(C)·y^(sum e).

    det(C) is the product of the n determinants of the n x n blocks of
    `const_blocks`, times the two permutation signs (`linalg.block_det`),
    in place of one n^2 x n^2 determinant.  `phi_matrix` places entries
    only inside those blocks; `cyclic_report` checks that C has none
    outside them (`off_block_entry`).
    """
    det_c = block_det(phi.const, const_blocks(phi.n), phi.p)
    return Poly.monomial(phi.p, det_c, int(np.sum(phi.powers)))


def phi_equivariance_check(model: CyclicCoverModel, phi: PhiMatrix) -> bool:
    """phi intertwines the two commuting cyclic actions.

    Source actions (h = generator): 1 (x) h scales x^i (x) x^j by zeta^j,
    h (x) 1 scales by zeta^i.  Target actions: left translation moves
    block u to h u; the twisted action moves u to u h^-1 and applies h
    inside the component (x^v scales by zeta^v).  Both identities
    phi S = T phi must hold over A.  S and diag(y^e) are diagonal, so they
    commute, and diag(y^e) is invertible over Frac(A): phi S = T phi holds
    exactly when C S = T C.  S scales the columns of C; T rolls its row
    slots u and scales the rows (u, v) by the twist, so no product is
    formed.
    """
    n, p = model.n, model.p
    weights = np.array([model.weight(k) for k in range(n)], dtype=np.int64)
    i, j = np.divmod(np.arange(n * n), n)
    slots = phi.const.reshape(n, n, n * n) % p  # slots[u, v] is row (u, v)
    translated = np.roll(slots, 1, axis=0)  # row (u, v) of T C is row (u - 1, v) of C
    twisted = np.roll(slots, -1, axis=0) * weights[:, None] % p  # zeta^v times row (u + 1, v)
    return np.array_equal(slots * weights[j] % p, translated) and np.array_equal(
        slots * weights[i] % p, twisted
    )


def normal_basis_element(model: CyclicCoverModel) -> NormalBasisWitness:
    """The element 1 + x + ... + x^(n-1) and its normal-basis certificate.

    The translate matrix of c_0 + c_1 x + ... is diag(c)·[zeta^(ij)], so
    its determinant is prod(c_i)·det[zeta^(ij)]: the all-ones element is
    a normal-basis element exactly when any element is.  The certificate
    is det[zeta^(ij)], a Vandermonde determinant that vanishes only when
    zeta has order below n; a zero is returned, not raised.
    """
    n, p = model.n, model.p
    zeta_powers = np.array(
        [[pow(model.zeta, i * j, p) for j in range(n)] for i in range(n)], dtype=np.int64
    )
    return NormalBasisWitness((Poly.const(p, 1),) * n, Poly.const(p, det(zeta_powers, p)))


def cyclic_report(model: CyclicCoverModel) -> Report:
    """Run every check on one cyclic model.

    Checks: det(phi) is a unit times y^k (k >= 1 in the polynomial
    variant, whose cokernel sits over the branch point) and C is zero off
    its diagonal blocks, the invariant factors are powers of y (certified
    by det(C) != 0), phi is equivariant, and the normal-basis certificate
    is nonzero.  `phi_det` is the product of the block determinants,
    which is det(C) only when C is zero off the blocks.  A determinant
    that fails is the witness; otherwise a nonzero entry off the blocks is.
    """
    phi = phi_matrix(model)
    determinant = phi_det(phi)
    try:
        divisors = factored_invariant_factors(determinant, phi.powers)
        div_witness = None
    except SingularMatrix as exc:
        divisors, div_witness = None, error_witness(exc, det=list(determinant.coeffs))
    mono = as_unit_times_power(determinant)
    if model.variant == "polynomial":
        det_ok = mono is not None and (mono[1] >= 1 or model.n == 1)
        anchor = "det(phi) is a unit times y^k, k >= 1: cokernel supported over the branch point"
    else:
        det_ok = mono is not None
        anchor = "det(phi) is invertible in the Laurent ring: phi is an isomorphism"
    stray = off_block_entry(phi)
    if not det_ok:
        det_witness = {"det": list(determinant.coeffs)}
    elif stray is not None:
        det_witness = {"off_block_entry": list(stray)}
    else:
        det_witness = None
    witness = normal_basis_element(model)
    data = {
        "model": model.to_dict(),
        "component_powers": decompose_pushforward(model),
        "phi_matrix": phi.coeff_lists(),
        "phi_det": list(determinant.coeffs),
        "phi_det_factor": {"unit": mono[0], "y_power": mono[1]} if mono else None,
        "elementary_divisors": None if divisors is None else [list(d.coeffs) for d in divisors],
        "normal_basis": {
            "coeffs": [list(c.coeffs) for c in witness.coeffs],
            "determinant": list(witness.determinant.coeffs),
        },
    }
    outcomes = [
        VerificationOutcome.from_witness("cyclic.phi_det", anchor, det_witness),
        VerificationOutcome.from_witness(
            "cyclic.elementary_divisors", "all invariant factors are powers of y", div_witness
        ),
        VerificationOutcome(
            "cyclic.equivariance",
            "phi intertwines the translation and twisted cyclic actions",
            phi_equivariance_check(model, phi),
        ),
        VerificationOutcome.from_witness(
            "cyclic.normal_basis",
            "translates of the witness element form a basis over Frac(A)",
            {"determinant": data["normal_basis"]["determinant"]} if witness.determinant.is_zero() else None,
        ),
    ]
    return Report(data, outcomes)
