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

from .arith import root_of_unity
from .errors import NoSplittingElement, NotAMultiplicity, SplitFailure
from .groups import ConjugacyClasses, Group, Subgroup
from .linalg import inv_mod, matmul, require_exact, split

ClassFunction = tuple[int, ...]


def class_matrix(group: Group, classes: ConjugacyClasses, i: int) -> np.ndarray:
    """The class matrix A_i, (A_i)[j][k] = a[i][j][k], of class i.

    a[i][j][k] counts factorizations of a fixed representative z_k of class
    k as (element of class i) * (element of class j); equivalently the
    class sums satisfy C_i C_j = sum_k a[i][j][k] C_k.  The counts are one
    bincount of the classes of x^-1 z_k over the |C_i| x k pairs (x, k).
    """
    k = classes.num_classes
    class_of = np.asarray(classes.class_of)
    inverses = np.asarray(group.inv)[class_of == i]
    quotients = group.mult[inverses[:, None], np.asarray(classes.reps)]
    return np.bincount((class_of[quotients] * k + np.arange(k)).ravel(), minlength=k * k).reshape(k, k)


@dataclass
class CharacterTable:
    """Complete list of irreducible characters over F_p.

    Rows are ordered canonically: the trivial character first, then
    ascending degree with ties broken lexicographically on the value
    tuples (as residues).  Degrees are true integers.

    `_orbit_blocks` keeps the orbit-block reductions of
    `reps._orbit_row_space` for every monomial representation decomposed
    with this table: a block is a function of the central idempotent e_i
    and of the orbit type, so all of them share it.  Both caches are left
    out of `==`, which compares the table itself.
    """

    group: Group
    classes: ConjugacyClasses
    p: int
    values: tuple[ClassFunction, ...]
    degrees: tuple[int, ...]
    _idempotents: list | None = field(default=None, init=False, repr=False, compare=False)
    _orbit_blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_irreps(self) -> int:
        return len(self.values)

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
    simultaneous eigenvectors of the commuting class matrices A_i
    (`class_matrix`, built when the split loop reaches class i); each
    one-dimensional joint eigenspace is normalized back to an irreducible
    character.
    """
    k = classes.num_classes
    order = group.order
    require_exact(k, p)

    subspaces = [np.eye(k, dtype=np.int64)]
    for i in range(1, k):
        if all(s.shape[0] == 1 for s in subspaces):
            break
        mat = class_matrix(group, classes, i) % p
        subspaces = [s for b in subspaces for s in ([b] if b.shape[0] == 1 else split(b, mat, p, True))]
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
    # Gram matrix of inner_mult over all pairs of rows
    gram = matmul(class_weights(table), np.array(values, dtype=np.int64).T, p)
    if not np.array_equal(gram, np.eye(len(values), dtype=np.int64)):
        raise SplitFailure("row orthogonality failed")
    return table


def class_weights(table: CharacterTable) -> np.ndarray:
    """W[i, c] = |c| chi_i(c^-1) / |G| mod p, so that the class-weighted
    sums (1/|G|) sum_c |c| chi_i(c^-1) f(c) of all irreducibles i are one
    product W F, F the k rows f(c)."""
    classes, p = table.classes, table.p
    sizes = np.array(classes.sizes, dtype=np.int64)
    dual = np.array(table.values, dtype=np.int64)[:, list(classes.inverse_class)]
    return dual * sizes % p * inv_mod(table.group.order % p, p) % p


def inner_mult(table: CharacterTable, w: ClassFunction, v: ClassFunction) -> int:
    """(1/|G|) sum_c |c| W(c) V(c^-1), as a residue mod p, for class
    functions W and V of the group of `table`.  For V = chi_i it is entry i
    of `class_weights` times W, for callers that need one entry."""
    classes, p = table.classes, table.p
    acc = 0
    for c in range(classes.num_classes):
        acc += classes.sizes[c] * w[c] * v[classes.inverse_class[c]]
    return acc * inv_mod(table.group.order % p, p) % p


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


def restrict_invariant_dim(table: CharacterTable, v: ClassFunction, h: Subgroup) -> int:
    """Dimension of the H-fixed subspace of a representation of the group
    of `table` with character v: (1/|H|) sum over h of chi(h)."""
    p = table.p
    acc = sum(v[table.classes.class_of[x]] for x in h.element_indices)
    return acc * inv_mod(h.order % p, p) % p


def cyclic_weight_multiplicities(table: CharacterTable, v: ClassFunction, g: int) -> list[int]:
    """Eigenvalue multiplicities of g on a representation with character v.

    Entry a is the multiplicity of zeta^a, where zeta is the canonical
    element of order ord(g) in F_p; recovered by Fourier inversion from
    the power values chi(g^m).  Lifts are genuine integers because each
    multiplicity is at most dim < p.
    """
    group, classes, p = table.group, table.classes, table.p
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


def splitting_element(table: CharacterTable, i: int) -> int:
    """First element (in discovery order) acting non-scalar on irreducible i.

    Equivalently: the restriction of the character to the cyclic group it
    generates contains at least two distinct eigenvalues.  Requires
    degree >= 2; always succeeds for irreducible characters.
    """
    if table.degrees[i] < 2:
        raise ValueError("splitting elements are defined for degree >= 2")
    v = table.values[i]
    for g in range(1, table.group.order):
        mults = cyclic_weight_multiplicities(table, v, g)
        if sum(1 for m in mults if m) >= 2:
            return g
    raise NoSplittingElement(f"irreducible {i} has no non-scalar element")


def tensor_multiplicities(table: CharacterTable) -> np.ndarray:
    """n[i][j][l] = multiplicity of irreducible l in irreducible i tensor j.

    The r^2 products chi_i chi_j are the rows of one r^2 x k residue
    matrix, and one `matmul` by the k x r transpose of `class_weights`
    gives their inner products with every irreducible.
    A non-character input fails a bookkeeping check with
    NotAMultiplicity: every value is a true multiplicity, at most
    deg_i deg_j; the trivial row is the identity functor; the degrees add
    up; and a second product gives <chi_j^dual chi_l, chi_i> = n[i][j][l].
    """
    p, r = table.p, table.num_irreps
    vals = np.array(table.values, dtype=np.int64)
    weights = class_weights(table).T
    n = matmul((vals[:, None] * vals).reshape(r * r, -1) % p, weights, p).reshape(r, r, r)
    degs = np.array(table.degrees, dtype=np.int64)
    products = degs[:, None] * degs
    above = np.argwhere(n > products[:, :, None])
    if above.size:
        i, j, l = above[0]
        raise NotAMultiplicity(f"tensor multiplicity {n[i, j, l]} exceeds the product degree {products[i, j]}")
    if not np.array_equal(n[0], np.eye(r, dtype=np.int64)):
        raise NotAMultiplicity("tensor with the trivial character is not the identity")
    if not np.array_equal(n @ degs, products):
        raise NotAMultiplicity("tensor multiplicities do not add up to the product degree")
    dual = vals[:, list(table.classes.inverse_class)]
    dual_n = matmul((dual[:, None] * vals).reshape(r * r, -1) % p, weights, p).reshape(r, r, r)
    if not np.array_equal(dual_n.transpose(2, 0, 1), n):
        raise NotAMultiplicity("dual symmetry of tensor multiplicities failed")
    return n
