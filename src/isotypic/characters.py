"""Irreducible characters, central idempotents, and character functors.

All values live in F_p for a splitting prime p (p = 1 mod exponent,
p > |G|).  Class functions are plain tuples of residues, one entry per
conjugacy class in class-index order.  Integer quantities (degrees,
multiplicities) are canonical lifts from [0, p), which is unambiguous
whenever the true integer is < p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EvenCharacteristicHazard,
    NoSplittingElement,
    NotAMultiplicity,
    SplitFailure,
)
from .groups import ConjugacyClasses, Group, Subgroup, power_class_map
from .linalg import inv_mod, matmul, require_exact, split

ClassFunction = tuple[int, ...]


def structure_constants(group: Group, classes: ConjugacyClasses) -> list[list[list[int]]]:
    """Class-sum multiplication counts a[i][j][k].

    a[i][j][k] counts factorizations of a fixed representative of class k
    as (element of class i) * (element of class j); equivalently the
    class sums satisfy C_i C_j = sum_k a[i][j][k] C_k.
    """
    k = classes.num_classes
    mult, inv = group.mult, group.inv
    members: list[list[int]] = [[] for _ in range(k)]
    for g in range(group.order):
        members[classes.class_of[g]].append(g)
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    for ci in range(k):
        for ck, z in enumerate(classes.reps):
            row = a[ci]
            for x in members[ci]:
                y = int(mult[inv[x], z])
                row[classes.class_of[y]][ck] += 1
    return a


@dataclass
class CharacterTable:
    """Complete list of irreducible characters over F_p.

    Rows are ordered canonically: the trivial character first, then
    ascending degree with ties broken lexicographically on the value
    tuples (as residues).  Degrees are true integers.
    """

    group: Group
    classes: ConjugacyClasses
    p: int
    values: tuple[ClassFunction, ...]
    degrees: tuple[int, ...]
    trivial_index: int = 0
    _power_maps: dict = field(default_factory=dict, repr=False)
    _idempotents: list | None = field(default=None, repr=False)

    @property
    def num_irreps(self) -> int:
        return len(self.values)

    def power_map(self, k: int):
        if k not in self._power_maps:
            self._power_maps[k] = power_class_map(self.group, self.classes, k)
        return self._power_maps[k]

    def idempotents(self) -> list[np.ndarray]:
        """`central_idempotents` of this table, built once and read-only."""
        if self._idempotents is None:
            self._idempotents = central_idempotents(self)
            for row in self._idempotents:
                row.setflags(write=False)
        return self._idempotents

    def to_dict(self) -> dict:
        return {
            "group": self.group.name,
            "order": self.group.order,
            "modulus": self.p,
            "class_sizes": list(self.classes.sizes),
            "class_reps": [list(self.group.elements[r].images) for r in self.classes.reps],
            "degrees": list(self.degrees),
            "values": [list(v) for v in self.values],
        }


def character_table(group: Group, classes: ConjugacyClasses, p: int) -> CharacterTable:
    """Compute the table by splitting common eigenspaces of class matrices.

    The vectors of class-sum eigenvalues (central characters) are the
    simultaneous eigenvectors of the commuting matrices A_i with
    (A_i)[j][k] = a[i][j][k]; each one-dimensional joint eigenspace is
    normalized back to an irreducible character.
    """
    k = classes.num_classes
    order = group.order
    require_exact(k, p)
    a = structure_constants(group, classes)
    mats = [np.array(a[i], dtype=np.int64) % p for i in range(k)]

    subspaces = [np.eye(k, dtype=np.int64)]
    for i in range(1, k):
        if all(s.shape[0] == 1 for s in subspaces):
            break
        subspaces = [
            s for b in subspaces for s in ([b] if b.shape[0] == 1 else split(b, mats[i], p, True))
        ]
    if not all(s.shape[0] == 1 for s in subspaces):
        raise SplitFailure("common eigenspaces did not refine to lines")

    size_inv = [inv_mod(s % p, p) for s in classes.sizes]
    sqrt_bound = math.isqrt(order)
    rows = []
    for s in subspaces:
        w = s[0] % p
        if w[0] == 0:
            raise SplitFailure("eigenvector vanishes on the identity class")
        omega = w * inv_mod(int(w[0]), p) % p
        denom = 0
        for c in range(k):
            denom += int(omega[c]) * int(omega[classes.inverse_class[c]]) * size_inv[c]
        denom %= p
        if denom == 0:
            raise SplitFailure("degenerate norm for a central character")
        d_sq = order * inv_mod(denom, p) % p
        degree = next((x for x in range(1, sqrt_bound + 1) if x * x % p == d_sq), None)
        if degree is None:
            raise SplitFailure("no degree lift in [1, sqrt(|G|)]; modulus too small")
        chi = tuple(int(degree * int(omega[c]) * size_inv[c] % p) for c in range(k))
        rows.append((degree, chi))

    rows.sort(key=lambda r: (r[0], r[1]))
    degrees = tuple(r[0] for r in rows)
    values = tuple(r[1] for r in rows)
    if sum(d * d for d in degrees) != order:
        raise SplitFailure("degree squares do not sum to the group order")
    table = CharacterTable(group, classes, p, values, degrees)
    # Gram matrix of inner_mult over all pairs of rows; the weighted factor
    # is reduced first, since `matmul` takes residues.
    vals = np.array(values, dtype=np.int64)
    weighted = vals * np.array(classes.sizes, dtype=np.int64) % p
    gram = matmul(weighted, vals[:, list(classes.inverse_class)].T, p) * inv_mod(order % p, p) % p
    if not np.array_equal(gram, np.eye(len(values), dtype=np.int64)):
        raise SplitFailure("row orthogonality failed")
    return table


def inner_mult(
    w: ClassFunction,
    v: ClassFunction,
    group: Group,
    classes: ConjugacyClasses,
    p: int,
    bound: int | None = None,
) -> int:
    """(1/|G|) sum_c |c| W(c) V(c^-1), as a residue mod p.

    With `bound` given, the residue is asserted to be the lift of a true
    multiplicity below the bound; a failure signals a non-character input.
    """
    acc = 0
    for c in range(classes.num_classes):
        acc += classes.sizes[c] * w[c] * v[classes.inverse_class[c]]
    val = acc * inv_mod(group.order % p, p) % p
    if bound is not None and val >= bound:
        raise NotAMultiplicity(f"inner product {val} exceeds the multiplicity bound {bound}")
    return val


def central_idempotents(table: CharacterTable) -> list[np.ndarray]:
    """Group-algebra idempotents e_i, one coefficient vector per irreducible.

    e_i assigns to g the value deg_i/|G| * chi_i(g^-1); the family is a
    complete set of orthogonal central idempotents.
    """
    group, classes, p = table.group, table.classes, table.p
    inv_class = np.asarray(classes.class_of)[list(group.inv)]  # class of g^-1
    values = np.array(table.values, dtype=np.int64)[:, inv_class]
    scale = np.array(table.degrees, dtype=np.int64) * inv_mod(group.order % p, p) % p
    return list(values * scale[:, None] % p)


def convolve(a: np.ndarray, b: np.ndarray, group: Group, p: int) -> np.ndarray:
    """Group-algebra product: (a*b)[gh] accumulates a[g] b[h]."""
    out = np.zeros(group.order, dtype=np.int64)
    for g in range(group.order):
        if a[g]:
            out[group.mult[g]] = (out[group.mult[g]] + a[g] * b) % p
    return out


def delta_element(group: Group, g: int) -> np.ndarray:
    v = np.zeros(group.order, dtype=np.int64)
    v[g] = 1
    return v


# -- character functors --------------------------------------------------------


def char_trivial(table: CharacterTable) -> ClassFunction:
    return tuple([1] * table.classes.num_classes)


def char_dual(v: ClassFunction, classes: ConjugacyClasses) -> ClassFunction:
    return tuple(v[classes.inverse_class[c]] for c in range(classes.num_classes))


def char_tensor(v: ClassFunction, w: ClassFunction, p: int) -> ClassFunction:
    return tuple(a * b % p for a, b in zip(v, w))


def _newton(v: ClassFunction, k: int, table: CharacterTable, alternating: bool) -> ClassFunction:
    """Elementary (alternating) or complete homogeneous symmetric character.

    Newton recursion on the power sums chi(g^m); requires every division
    by 1..k to be invertible mod p.
    """
    p = table.p
    for m in range(2, k + 1):
        if m % p == 0:
            raise EvenCharacteristicHazard(
                f"power {k} needs division by {m}, not invertible mod {p}"
            )
    num = table.classes.num_classes
    pows = [[v[table.power_map(m)[c]] for c in range(num)] for m in range(1, k + 1)]
    rows = [[1] * num]  # degree-0 term
    for j in range(1, k + 1):
        inv_j = inv_mod(j, p)
        row = []
        for c in range(num):
            acc = 0
            for m in range(1, j + 1):
                term = rows[j - m][c] * pows[m - 1][c]
                if alternating and m % 2 == 0:
                    acc -= term
                else:
                    acc += term
            row.append(acc * inv_j % p)
        rows.append(row)
    return tuple(rows[k])


def char_sym_power(v: ClassFunction, k: int, table: CharacterTable) -> ClassFunction:
    if k < 0:
        raise ValueError("power must be nonnegative")
    if k == 0:
        return char_trivial(table)
    return _newton(v, k, table, alternating=False)


def char_ext_power(v: ClassFunction, k: int, table: CharacterTable) -> ClassFunction:
    if k < 0:
        raise ValueError("power must be nonnegative")
    if k == 0:
        return char_trivial(table)
    return _newton(v, k, table, alternating=True)


def restrict_invariant_dim(
    v: ClassFunction, h: Subgroup, group: Group, classes: ConjugacyClasses, p: int
) -> int:
    """Dimension of the H-fixed subspace: (1/|H|) sum over h of chi(h)."""
    acc = sum(v[classes.class_of[x]] for x in h.element_indices)
    return acc * inv_mod(h.order % p, p) % p


def cyclic_weight_multiplicities(
    v: ClassFunction, g: int, group: Group, classes: ConjugacyClasses, p: int
) -> list[int]:
    """Eigenvalue multiplicities of g on a representation with character v.

    Entry a is the multiplicity of zeta^a, where zeta is the canonical
    element of order ord(g) in F_p; recovered by Fourier inversion from
    the power values chi(g^m).  Lifts are genuine integers because each
    multiplicity is at most dim < p.
    """
    from .arith import root_of_unity

    m = group.element_order(g)
    zeta = root_of_unity(p, m)
    zeta_inv = inv_mod(zeta, p)
    vals = []
    acc = 0
    for _ in range(m):
        vals.append(v[classes.class_of[acc]])
        acc = int(group.mult[acc, g])
    m_inv = inv_mod(m % p, p)
    mults = []
    for a in range(m):
        s = 0
        w = 1
        za = pow(zeta_inv, a, p)
        for j in range(m):
            s = (s + vals[j] * w) % p
            w = w * za % p
        mults.append(s * m_inv % p)
    return mults


def splitting_element(table: CharacterTable, i: int, group: Group, classes: ConjugacyClasses) -> int:
    """First element (in discovery order) acting non-scalar on irreducible i.

    Equivalently: the restriction of the character to the cyclic group it
    generates contains at least two distinct eigenvalues.  Requires
    degree >= 2; always succeeds for irreducible characters.
    """
    if table.degrees[i] < 2:
        raise ValueError("splitting elements are defined for degree >= 2")
    v = table.values[i]
    for g in range(1, group.order):
        mults = cyclic_weight_multiplicities(v, g, group, classes, table.p)
        if sum(1 for m in mults if m) >= 2:
            return g
    raise NoSplittingElement(f"irreducible {i} has no non-scalar element")


def tensor_multiplicities(table: CharacterTable) -> np.ndarray:
    """n[i][j][l] = multiplicity of irreducible l in irreducible i tensor j."""
    group, classes, p = table.group, table.classes, table.p
    r = table.num_irreps
    n = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        for j in range(i, r):
            prod = char_tensor(table.values[i], table.values[j], p)
            for l in range(r):
                bound = table.degrees[i] * table.degrees[j] + 1
                n[i, j, l] = inner_mult(prod, table.values[l], group, classes, p, bound=bound)
            n[j, i] = n[i, j]
    # bookkeeping: the trivial row is the identity functor and degrees add up
    for j in range(r):
        for l in range(r):
            if n[0, j, l] != (1 if j == l else 0):
                raise NotAMultiplicity("tensor with the trivial character is not the identity")
    degs = np.array(table.degrees, dtype=np.int64)
    for i in range(r):
        for j in range(r):
            if int(n[i, j] @ degs) != table.degrees[i] * table.degrees[j]:
                raise NotAMultiplicity("tensor multiplicities do not add up to the product degree")
    # dual symmetry <chi_j^dual * chi_l, chi_i> = n[i][j][l]
    for j in range(r):
        dual_j = char_dual(table.values[j], classes)
        for l in range(r):
            prod = char_tensor(dual_j, table.values[l], p)
            for i in range(r):
                if inner_mult(prod, table.values[i], group, classes, p) != n[i, j, l] % p:
                    raise NotAMultiplicity("dual symmetry of tensor multiplicities failed")
    return n
