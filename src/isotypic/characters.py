"""Irreducible characters, their class weights, and central idempotents.

All values live in F_p for a splitting prime p (p = 1 mod exponent,
p > |G|).  Class functions are plain tuples of residues, one entry per
conjugacy class in class-index order.  Integer quantities (degrees,
multiplicities) are canonical lifts from [0, p), which is unambiguous
whenever the true integer is < p.

The character inner product is one product: the multiplicities <f, chi_i>
of all irreducibles in a class function f are W f, W the class weights
that the table keeps (`CharacterTable.weights`).
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

    Four caches are built on first use and left out of `==`, which
    compares the table itself.  `_weights` keeps the class weights W of
    `weights()`, and `_idempotents` the central idempotents of
    `idempotents()`, both read-only.  `_orbit_blocks` keeps the orbit-block
    reductions of `reps._orbit_row_space` for every monomial representation
    decomposed with this table: a block is a function of the central
    idempotent e_i and of the orbit type, so all of them share it.
    `_models` keeps the irreducible models of `reps.irreducible_models`, a
    function of the table alone.
    """

    group: Group
    classes: ConjugacyClasses
    p: int
    values: tuple[ClassFunction, ...]
    degrees: tuple[int, ...]
    _weights: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _idempotents: list | None = field(default=None, init=False, repr=False, compare=False)
    _orbit_blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _models: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_irreps(self) -> int:
        return len(self.values)

    def weights(self) -> np.ndarray:
        """`class_weights` of this table, built once and read-only."""
        if self._weights is None:
            self._weights = class_weights(self)
            self._weights.setflags(write=False)
        return self._weights

    def idempotents(self) -> list[np.ndarray]:
        """`central_idempotents` of this table, built once and read-only."""
        if self._idempotents is None:
            self._idempotents = central_idempotents(self)
            for row in self._idempotents:
                row.setflags(write=False)
        return self._idempotents

    def require_owner(self, owner, kind: str) -> None:
        """Raise ValueError when `owner`, a representation or a cover action
        (`kind` names which), is not of this table's group object and prime."""
        if owner.group is not self.group or owner.p != self.p:
            raise ValueError(
                f"the character table of {self.group.name} at p = {self.p} does not belong"
                f" to the {kind} of {owner.group.name} at p = {owner.p}"
            )

    def to_dict(self) -> dict:
        return {
            "group": self.group.name,
            "order": self.group.order,
            "modulus": self.p,
            "class_sizes": list(self.classes.sizes),
            "class_reps": self.group.images[list(self.classes.reps)].tolist(),
            "degrees": list(self.degrees),
            "values": [list(v) for v in self.values],
        }


def character_table(group: Group, classes: ConjugacyClasses, p: int) -> CharacterTable:
    """Compute the table by splitting common eigenspaces of class matrices.

    The vectors of class-sum eigenvalues (central characters) are the
    simultaneous eigenvectors of the commuting class matrices A_i
    (`class_matrix`, built when the split loop reaches class i).  The
    one-dimensional joint eigenspaces are normalized back to irreducible
    characters all at once: a line scaled to 1 on the identity is a
    central character omega, of norm sum_c omega(c) omega(c^-1)/|c| =
    |G|/deg^2; deg is the x <= sqrt(|G|) with x^2 norm = |G| mod p, and
    chi(c) = deg omega(c)/|c|.  The rows must be orthonormal under W.
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

    lines = np.concatenate(subspaces) % p
    if not lines[:, 0].all():
        raise SplitFailure("eigenvector vanishes on the identity class")
    omega = lines * np.array([inv_mod(int(w), p) for w in lines[:, 0]])[:, None] % p
    # 1/|c| = |C_G(c)|/|G|; every norm term is below p^2, exact under require_exact
    size_inv = order // np.array(classes.sizes, dtype=np.int64) * inv_mod(order % p, p) % p
    norms = (omega * omega[:, list(classes.inverse_class)] % p * size_inv).sum(axis=1) % p
    if not norms.all():
        raise SplitFailure("degenerate norm for a central character")
    # deg^2 * norm = |G| mod p; x^2 <= |G| < p are distinct residues, so deg is unique
    squares = np.arange(1, math.isqrt(order) + 1, dtype=np.int64) ** 2
    lifts = squares * norms[:, None] % p == order % p
    if not lifts.any(axis=1).all():
        raise SplitFailure("no degree lift in [1, sqrt(|G|)]; modulus too small")
    degs = lifts.argmax(axis=1) + 1
    chis = degs[:, None] * omega % p * size_inv % p
    degrees, values = zip(*sorted(zip(degs.tolist(), map(tuple, chis.tolist()))))
    if sum(d * d for d in degrees) != order:
        raise SplitFailure("degree squares do not sum to the group order")
    table = CharacterTable(group, classes, p, values, degrees)
    # the Gram matrix of the character inner product over all pairs of rows
    gram = matmul(table.weights(), np.array(values, dtype=np.int64).T, p)
    if not np.array_equal(gram, np.eye(len(values), dtype=np.int64)):
        raise SplitFailure("row orthogonality failed")
    return table


def class_weights(table: CharacterTable) -> np.ndarray:
    """W[i, c] = |c| chi_i(c^-1) / |G| mod p, so that the class-weighted
    sums (1/|G|) sum_c |c| chi_i(c^-1) f(c) of all irreducibles i are one
    product W F, F the k rows f(c).  Read it through
    `CharacterTable.weights`, which builds it once per table."""
    classes, p = table.classes, table.p
    sizes = np.array(classes.sizes, dtype=np.int64)
    dual = np.array(table.values, dtype=np.int64)[:, list(classes.inverse_class)]
    return dual * sizes % p * inv_mod(table.group.order % p, p) % p


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
    matrix, and one `matmul` by the k x r transpose of `weights()`
    gives their inner products with every irreducible.
    A non-character input fails a bookkeeping check with
    NotAMultiplicity: every value is a true multiplicity, at most
    deg_i deg_j; the trivial row is the identity functor; the degrees add
    up; and a second product gives <chi_j^dual chi_l, chi_i> = n[i][j][l].
    """
    p, r = table.p, table.num_irreps
    vals = np.array(table.values, dtype=np.int64)
    weights = table.weights().T
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
