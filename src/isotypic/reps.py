"""Explicit matrix representations over F_p and their isotypic structure.

A representation assigns one invertible matrix per group element, indexed
by the canonical element order.  Central projectors cut out the isotypic
components.  Multiplicity spaces Hom_G(V_i, E) come from Serre's operators
p_{a1} built from the matrix coefficients of an irreducible model, and the
evaluation map assembled from them is checked to be an isomorphism onto the
component.

All rank and null-space computations go through the deterministic
eliminations in `linalg`, so component bases are reproducible.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from . import linalg
from .characters import (
    CharacterTable,
    char_dual,
    char_tensor,
    char_trivial,
    inner_mult,
)
from .errors import (
    DimensionMismatch,
    InconsistentMultiplicity,
    MethodMismatch,
    NotAHomomorphism,
    NotAnIntertwiner,
    NotInjective,
    SingularMatrix,
    SplitFailure,
    SystemTooLarge,
    WrongImage,
)
from .groups import ConjugacyClasses, Group, Subgroup
from .linalg import inv_mod

# Largest dense array built for a hom system or a graded cover piece: 2^24
# int64 cells are 128 MB, where S5's regular rep would need 28800 x 14400.
MAX_SYSTEM_CELLS = 2**24


def check_size(what: str, *shape: int) -> None:
    """Raise SystemTooLarge, before anything is allocated, when an array of
    this shape would exceed MAX_SYSTEM_CELLS."""
    cells = math.prod(shape)
    if cells > MAX_SYSTEM_CELLS:
        raise SystemTooLarge(
            f"{what} is {' x '.join(map(str, shape))} ({cells} cells),"
            f" above the limit of {MAX_SYSTEM_CELLS} cells"
        )


class MatrixRep:
    """One invertible dim x dim matrix over F_p per group element.

    Stored densely, or in monomial form: two |G| x dim arrays `images` and
    `scalars` with rho(g) e_j = scalars[g, j] e_{images[g, j]}.  A monomial
    representation builds its dense `mats` only when a caller reads them.
    """

    def __init__(
        self,
        group: Group,
        p: int,
        mats: np.ndarray | None = None,
        validate: bool = True,
        *,
        images: np.ndarray | None = None,
        scalars: np.ndarray | None = None,
    ):
        """Dense from `mats`, or monomial from `images` and `scalars`.

        With `validate`, dense `mats` are copied reduced mod p and checked.
        Without it the representation takes ownership of an int64 `mats`
        and reduces it in place, so the caller passes a fresh array and
        keeps no alias.  The monomial arrays are always taken over, and
        `scalars` is reduced in place.
        """
        self.group = group
        self.p = p
        self.images = self.scalars = None
        if images is not None:
            self.images = np.asarray(images, dtype=np.int64)
            scalars = np.asarray(scalars, dtype=np.int64)
            self.scalars = np.remainder(scalars, p, out=scalars)
            self.dim = int(self.images.shape[1]) if self.images.ndim == 2 else 0
        else:
            mats = np.asarray(mats, dtype=np.int64)
            self.dim = int(mats.shape[1]) if mats.ndim == 3 else 0
            self.mats = mats % p if validate else np.remainder(mats, p, out=mats)
        linalg.require_exact(self.dim, p)
        self.validation = "skipped"
        if validate:
            self._validate()

    @functools.cached_property
    def mats(self) -> np.ndarray:
        """The dense matrices of a monomial representation, built on first use."""
        n, d = self.group.order, self.dim
        mats = np.zeros((n, d, d), dtype=np.int64)
        mats[np.arange(n)[:, None], self.images, np.arange(d)] = self.scalars
        return mats

    def _validate(self):
        """Check rho(e) = I and rho(b) rho(s) = rho(b*s) for every element b
        and every generator s.

        By induction on the breadth-first words this proves rho(b) rho(a) =
        rho(b*a) for all a, b, so rho is a homomorphism; invertibility
        follows from rho(g) rho(g^-1) = rho(e) = I.  Each generator costs
        one (|G|*dim) x dim matrix product, or for a monomial
        representation one composition of index maps, O(|G|*dim).
        """
        if self.images is not None:
            self._validate_monomial()
            return
        group, p, mats, d = self.group, self.p, self.mats, self.dim
        n = group.order
        if mats.shape != (n, d, d):
            raise NotAHomomorphism("matrix block count or shape does not match the group")
        if not np.array_equal(mats[0], linalg.identity(d)):
            raise NotAHomomorphism("identity element must map to the identity matrix")
        rows = mats.reshape(n * d, d)
        for pos, s in enumerate(group.generator_indices):
            prod = linalg.matmul(rows, mats[s], p).reshape(n, d, d)
            bad = np.nonzero((prod != mats[group.mult[:, s]]).any(axis=(1, 2)))[0]
            if bad.size:
                self._bad_edge(int(bad[0]), pos)
        self.validation = "exhaustive"

    def _validate_monomial(self):
        group, p, images, scalars, d = self.group, self.p, self.images, self.scalars, self.dim
        n = group.order
        if images.shape != (n, d) or scalars.shape != (n, d):
            raise NotAHomomorphism("index map count or shape does not match the group")
        if images.size and (images.min() < 0 or images.max() >= d):
            raise NotAHomomorphism("an index map leaves the basis")
        if not (np.array_equal(images[0], np.arange(d)) and (scalars[0] == 1).all()):
            raise NotAHomomorphism("identity element must map to the identity matrix")
        for pos, s in enumerate(group.generator_indices):
            # rho(b) rho(s) e_j = scalars[s, j] scalars[b, t] e_{images[b, t]}, t = images[s, j]
            t = images[s]
            bs = group.mult[:, s]
            wrong = (images[:, t] != images[bs]) | (scalars[:, t] * scalars[s] % p != scalars[bs])
            bad = np.nonzero(wrong.any(axis=1))[0]
            if bad.size:
                self._bad_edge(int(bad[0]), pos)
        self.validation = "exhaustive"

    def _bad_edge(self, b: int, pos: int) -> NoReturn:
        raise NotAHomomorphism(
            f"rho({b})rho(g{pos}) != rho({b}*g{pos})",
            word=self.group.word_string(b) + f".g{pos}",
        )

    def to_dict(self) -> dict:
        return {
            "modulus": self.p,
            "dim": self.dim,
            "matrices": [m.reshape(-1).tolist() for m in self.mats],
        }

    def __repr__(self) -> str:
        return f"MatrixRep(group={self.group.name}, dim={self.dim}, p={self.p})"


@dataclass(frozen=True)
class RepType:
    """Multiplicity vector (m_0, ..., m_r) of a representation."""

    multiplicities: tuple[int, ...]


@dataclass
class IsotypicDecomposition:
    """Per-irreducible bases (row matrices) of the projector images."""

    components: list[np.ndarray]

    def dims(self) -> tuple[int, ...]:
        return tuple(int(c.shape[0]) for c in self.components)


# -- constructors ---------------------------------------------------------------


def trivial_rep(group: Group, p: int, dim: int = 1) -> MatrixRep:
    n = group.order
    images = np.broadcast_to(np.arange(dim, dtype=np.int64), (n, dim)).copy()
    return MatrixRep(group, p, images=images, scalars=np.ones((n, dim), dtype=np.int64), validate=False)


def regular_rep(group: Group, p: int) -> MatrixRep:
    """Left-translation action on the group algebra basis."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=np.int64)
    cols = np.arange(n)
    for g in range(n):
        mats[g, group.mult[g, cols], cols] = 1
    return MatrixRep(group, p, mats)


def permutation_rep(group: Group, p: int) -> MatrixRep:
    """Permutation matrices of the defining permutation realization."""
    perms = group.elements
    deg = perms[0].degree
    mats = np.zeros((group.order, deg, deg), dtype=np.int64)
    cols = np.arange(deg)
    for g in range(group.order):
        mats[g, np.array(perms[g].images), cols] = 1
    return MatrixRep(group, p, mats)


def rep_from_matrices(group: Group, p: int, gen_mats, dim: int = 1) -> MatrixRep:
    """Extend generator matrices along the breadth-first words.

    Every element's matrix is the word product of generator matrices; the
    validation of the result checks every generator edge of the Cayley
    graph, so an assignment that is not a homomorphism raises
    NotAHomomorphism with the word of the first bad edge.  `dim` is only
    consulted for the generator-free trivial group.
    """
    gen_mats = [np.asarray(m, dtype=np.int64) % p for m in gen_mats]
    if len(gen_mats) != len(group.generators):
        raise NotAHomomorphism(
            f"expected {len(group.generators)} generator matrices, got {len(gen_mats)}"
        )
    if gen_mats:
        dim = gen_mats[0].shape[0]
        for m in gen_mats:
            if m.shape != (dim, dim):
                raise NotAHomomorphism("generator matrices must be square of equal size")
            try:
                linalg.inverse(m, p)
            except SingularMatrix:
                raise SingularMatrix("generator matrix is singular mod p") from None
    mats = np.zeros((group.order, dim, dim), dtype=np.int64)
    mats[0] = linalg.identity(dim)
    for k in range(1, group.order):
        parent, gen_pos = group.words[k]
        mats[k] = linalg.matmul(mats[parent], gen_mats[gen_pos], p)
    return MatrixRep(group, p, mats)


def as_monomial(rep: MatrixRep) -> MatrixRep:
    """`rep` in monomial form, validated, when every matrix has exactly one
    nonzero entry per column; otherwise `rep` itself."""
    if rep.images is not None:
        return rep
    nonzero = rep.mats != 0
    if not (nonzero.sum(axis=1) == 1).all():
        return rep
    images = nonzero.argmax(axis=1)  # the row of the nonzero entry of column j
    scalars = np.take_along_axis(rep.mats, images[:, None, :], axis=1)[:, 0, :]
    return MatrixRep(rep.group, rep.p, images=images, scalars=scalars)


def direct_sum_rep(a: MatrixRep, b: MatrixRep) -> MatrixRep:
    if a.group is not b.group or a.p != b.p:
        raise ValueError("direct sum requires a common group and modulus")
    n = a.group.order
    d = a.dim + b.dim
    mats = np.zeros((n, d, d), dtype=np.int64)
    mats[:, : a.dim, : a.dim] = a.mats
    mats[:, a.dim :, a.dim :] = b.mats
    return MatrixRep(a.group, a.p, mats, validate=False)


# -- characters and projectors ---------------------------------------------------


def character_of(rep: MatrixRep, classes: ConjugacyClasses) -> tuple[int, ...]:
    """Traces of the class representatives; a monomial representation sums
    its scalars on fixed points."""
    if rep.images is not None:
        elems = list(classes.reps)
        fixed = rep.images[elems] == np.arange(rep.dim)
        return tuple(int(t) for t in (rep.scalars[elems] * fixed).sum(axis=1) % rep.p)
    return tuple(int(np.trace(rep.mats[r]) % rep.p) for r in classes.reps)


def isotypic_projector(rep: MatrixRep, i: int, table: CharacterTable) -> np.ndarray:
    """Central projector deg_i/|G| * sum_g chi_i(g^-1) rho(g).

    A monomial representation scatter-adds the coefficient times the scalar
    of each (g, j) into cell (images[g, j], j).  A cell sums at most |G|
    residues, so while |G| p < 2^53 (always, under the closure cap and
    MAX_MODULUS) the float64 sums of `np.bincount` are exact.
    """
    p, d = table.p, rep.dim
    coef = table.idempotents()[i]
    if rep.images is not None and rep.group.order * p < linalg.FLOAT_EXACT:
        weights = coef[:, None] * rep.scalars % p
        cells = rep.images * d + np.arange(d)
        proj = np.bincount(cells.ravel(), weights=weights.ravel(), minlength=d * d)
        return (proj.astype(np.int64) % p).reshape(d, d)
    flat = rep.mats.reshape(rep.group.order, d * d)
    return linalg.matmul(coef, flat, p).reshape(d, d)


def decompose(rep: MatrixRep, table: CharacterTable) -> tuple[IsotypicDecomposition, RepType]:
    """Isotypic decomposition plus the multiplicity vector.

    Multiplicities are true integers rank(P_i)/deg_i; each one is cross-
    checked against the character inner product, which lives mod p, so the
    two methods must agree as residues.
    """
    group, classes, p = table.group, table.classes, table.p
    chi = character_of(rep, classes)
    components = []
    mults = []
    total = 0
    for i in range(table.num_irreps):
        proj = isotypic_projector(rep, i, table)
        basis = linalg.row_space(proj.T, p)
        r = basis.shape[0]
        if r % table.degrees[i] != 0:
            raise InconsistentMultiplicity(
                f"projector rank {r} is not a multiple of degree {table.degrees[i]}"
            )
        m = r // table.degrees[i]
        char_m = inner_mult(chi, table.values[i], group, classes, p)
        if m % p != char_m:
            raise InconsistentMultiplicity(
                f"projector multiplicity {m} != character multiplicity {char_m} (mod {p})"
            )
        components.append(basis)
        mults.append(m)
        total += r
    if total != rep.dim:
        raise InconsistentMultiplicity("component dimensions do not fill the representation")
    return IsotypicDecomposition(components), RepType(tuple(mults))


def restrict_to_subspace(rep: MatrixRep, basis: np.ndarray) -> MatrixRep:
    """Action matrices on an invariant row-subspace, in basis coordinates.

    The coordinates of the images of the basis rows under every element
    come from one `linalg.coordinates` call, which raises SingularMatrix
    when the subspace is not invariant.
    """
    p, n, d = rep.p, rep.group.order, rep.dim
    basis = linalg.asmat(basis, p)
    k = basis.shape[0]
    # images[g] = basis @ rho(g)^T, the images of the basis rows
    images = linalg.matmul(rep.mats, basis.T, p).transpose(0, 2, 1)
    coords = linalg.coordinates(basis, images.reshape(n * k, d), p)
    return MatrixRep(rep.group, p, coords.reshape(n, k, k).transpose(0, 2, 1), validate=False)


# -- hom spaces -------------------------------------------------------------------


def _intertwiner_system(r1: MatrixRep, r2: MatrixRep) -> np.ndarray:
    """Linear system whose null space is {T : T rho1(g) = rho2(g) T}.

    T has shape (dim2, dim1) and is flattened row-major; one block of
    equations per generator suffices.  A system above MAX_SYSTEM_CELLS
    raises SystemTooLarge before anything is allocated.
    """
    p = r1.p
    d1, d2 = r1.dim, r2.dim
    check_size("the intertwiner system", len(r1.group.generator_indices) * d1 * d2, d1 * d2)
    blocks = []
    for g_pos, g in enumerate(r1.group.generator_indices):
        a = np.kron(linalg.identity(d2), r1.mats[g].T)
        b = np.kron(r2.mats[g], linalg.identity(d1))
        blocks.append((a - b) % p)
    if not blocks:
        return np.zeros((0, d1 * d2), dtype=np.int64)
    return np.concatenate(blocks, axis=0)


def intertwiner_basis(r1: MatrixRep, r2: MatrixRep) -> list[np.ndarray]:
    """Deterministic basis of Hom_G(r1, r2) as (dim2 x dim1) matrices."""
    null = linalg.nullspace(_intertwiner_system(r1, r2), r1.p)
    return [row.reshape(r2.dim, r1.dim) for row in null]


def hom_dim(r1: MatrixRep, r2: MatrixRep, table: CharacterTable) -> int:
    """Dimension of the intertwiner space, computed two independent ways.

    The null-space count is the returned integer; the character inner
    product <chi_1^dual * chi_2, 1> must match it mod p.
    """
    group, classes, p = table.group, table.classes, table.p
    nullity = len(intertwiner_basis(r1, r2))
    chi = char_tensor(
        char_dual(character_of(r1, classes), classes), character_of(r2, classes), p
    )
    char_val = inner_mult(chi, char_trivial(table), group, classes, p)
    if nullity % p != char_val:
        raise MethodMismatch(
            f"nullity {nullity} and character value {char_val} disagree mod {p}"
        )
    return nullity


def decomposition_report(rep: MatrixRep, table: CharacterTable) -> dict:
    """Type, component dimensions and dim End_G(rep), JSON-ready.

    `pass` holds when dim End_G(rep) from `hom_dim` equals the sum of the
    squared multiplicities from `decompose`, as Schur's lemma requires.
    """
    decomp, rtype = decompose(rep, table)
    endo = hom_dim(rep, rep, table)
    return {
        "dim": rep.dim,
        "type": list(rtype.multiplicities),
        "component_dims": list(decomp.dims()),
        "endomorphism_dim": endo,
        "pass": endo == sum(m * m for m in rtype.multiplicities),
    }


# -- functorial constructions -----------------------------------------------------


def dual_rep(rep: MatrixRep) -> MatrixRep:
    """Contragredient action rho(g^-1)^T on the dual basis."""
    mats = rep.mats[list(rep.group.inv)].transpose(0, 2, 1)
    return MatrixRep(rep.group, rep.p, mats, validate=False)


def tensor_rep(a: MatrixRep, b: MatrixRep) -> MatrixRep:
    """Tensor product on the lexicographic basis e_i (x) f_j."""
    if a.group is not b.group or a.p != b.p:
        raise ValueError("tensor requires a common group and modulus")
    mats = np.stack(
        [np.kron(a.mats[g], b.mats[g]) % a.p for g in range(a.group.order)]
    )
    return MatrixRep(a.group, a.p, mats, validate=False)


def _sym_power_step(prev: MatrixRep, rep: MatrixRep, d: int) -> MatrixRep:
    """Sym^d from Sym^(d-1) on the lexicographic multiset bases.

    The column of multiset beta + (j,) (j its largest entry) is column beta
    of `prev` times column j of `rep`: entry (beta', i) of that outer
    product lands on row beta' + (i,).  When both are monomial so is the
    result: its index map sends beta + (j,) to the multiset of the two
    images, with the product of the scalars, and it is validated.
    Otherwise one element at a time, so only one Sym^d matrix of
    temporaries is alive.  Each entry is a sum of dim(rep) products below
    p^2, exact in int64 because `rep` passed `require_exact`; the MatrixRep
    constructor reduces it mod p.
    """
    from itertools import combinations_with_replacement

    n = rep.dim
    below = {m: i for i, m in enumerate(combinations_with_replacement(range(n), d - 1))}
    basis = {m: i for i, m in enumerate(combinations_with_replacement(range(n), d))}
    beta = np.array([below[m[:-1]] for m in basis], dtype=np.int64)
    last = np.array([m[-1] for m in basis], dtype=np.int64)
    scatter = np.array(
        [[basis[tuple(sorted(m + (i,)))] for i in range(n)] for m in below], dtype=np.int64
    ).reshape(len(below), n)
    if prev.images is not None and rep.images is not None:
        images = scatter[prev.images[:, beta], rep.images[:, last]]
        scalars = prev.scalars[:, beta] * rep.scalars[:, last]
        return MatrixRep(rep.group, rep.p, images=images, scalars=scalars)
    out = np.zeros((rep.group.order, len(basis), len(basis)), dtype=np.int64)
    for g in range(rep.group.order):
        cols = prev.mats[g][:, beta]
        lin = rep.mats[g][:, last]
        for i in range(n):
            out[g, scatter[:, i]] += cols * lin[i]
    return MatrixRep(rep.group, rep.p, out, validate=False)


def sym_power_rep(rep: MatrixRep, k: int) -> MatrixRep:
    """Symmetric power on the lexicographic multiset basis, one degree at a
    time from the trivial representation."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    out = trivial_rep(rep.group, rep.p)
    for d in range(1, k + 1):
        out = _sym_power_step(out, rep, d)
    return out


def ext_power_rep(rep: MatrixRep, k: int) -> MatrixRep:
    """Exterior power: the k-th compound matrix on lexicographic subsets."""
    from itertools import combinations

    if not 0 <= k <= rep.dim:
        raise ValueError("power must satisfy 0 <= k <= dim")
    p = rep.p
    subsets = list(combinations(range(rep.dim), k))
    out = np.zeros((rep.group.order, len(subsets), len(subsets)), dtype=np.int64)
    for g in range(rep.group.order):
        mat = rep.mats[g]
        for a, rows in enumerate(subsets):
            for b, cols in enumerate(subsets):
                minor = mat[np.ix_(rows, cols)]
                out[g, a, b] = linalg.det(minor, p)
    return MatrixRep(rep.group, p, out, validate=False)


# -- invariants and the evaluation map ---------------------------------------------


def _averaging_projector(rep: MatrixRep, h: Subgroup) -> np.ndarray:
    """(1/|H|) sum_{h in H} rho(h)."""
    p = rep.p
    # |H| (p-1) is far below 2^63, so the sum is exact before reducing
    acc = rep.mats[list(h.element_indices)].sum(axis=0) % p
    return acc * inv_mod(h.order % p, p) % p


def subgroup_invariants(rep: MatrixRep, h: Subgroup, table: CharacterTable) -> np.ndarray:
    """Basis of the H-fixed subspace via the averaging projector.

    The dimension is cross-checked against the character-side count
    sum_i m_i * dim V_i^H; a mismatch indicts the implementation.
    """
    from .characters import restrict_invariant_dim

    p = rep.p
    basis = linalg.row_space(_averaging_projector(rep, h).T, p)
    _, rtype = decompose(rep, table)
    expected = sum(
        m * restrict_invariant_dim(table.values[i], h, table.group, table.classes, p)
        for i, m in enumerate(rtype.multiplicities)
    )
    if basis.shape[0] != expected:
        raise DimensionMismatch(
            f"fixed subspace has dim {basis.shape[0]}, character predicts {expected}"
        )
    return basis


def fixed_dim(rep: MatrixRep, h: Subgroup) -> int:
    """Dimension of the H-fixed subspace of `rep`.

    On a monomial representation H permutes the basis lines.  On each
    H-orbit, a fixed vector's coordinates are determined by any one of
    them, and the orbit carries a nonzero fixed vector exactly when the
    stabilizer of its points acts on them by the scalar 1; so the dimension
    is a count of orbits (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, ch. 7).  A dense representation takes the
    rank of the averaging projector.
    """
    if rep.images is not None:
        elems = list(h.element_indices)
        images, scalars = rep.images[elems], rep.scalars[elems]
        # H is a group, so images[:, j] is the orbit of j; its least point labels it
        label = images.min(axis=0)
        twisted = ((images == np.arange(rep.dim)) & (scalars != 1)).any(axis=0)
        return len(np.unique(label)) - len(np.unique(label[twisted]))
    return linalg.rank(_averaging_projector(rep, h), rep.p)


def multiplicity_space(rep: MatrixRep, model: MatrixRep) -> list[np.ndarray]:
    """Basis of Hom_G(model, rep) as (rep.dim x n_i) matrices, n_i = model.dim.

    Serre's operators (*Linear Representations of Finite Groups*, §2.7,
    Prop. 8), with r(g) the model matrices:
    p_a = (n_i/|G|) sum_g r(g^-1)[0, a] rho(g) for a = 0..n_i-1, all from
    one product of the (n_i x |G|) coefficients with the (|G| x dim^2)
    matrices.  For an irreducible model, p_0 projects onto a space W of
    dimension the multiplicity, and for w in W the matrix
    T_w = [p_0 w | ... | p_{n_i-1} w] intertwines: rho(g) T_w = T_w r(g).
    The T_w over the row basis of W, `row_space(p_0^T)`, form the basis;
    one product gives them all.  Each is checked against every generator,
    one pair of products per generator, and the first generator whose
    intertwining equation fails raises NotAnIntertwiner.  That generator
    need not be the one with a wrong matrix, since every rho(g) enters
    every p_a; wrong matrices are caught by MatrixRep's validation.
    """
    group, p = rep.group, rep.p
    n, d, n_i = group.order, rep.dim, model.dim
    scale = n_i * inv_mod(n, p) % p
    coef = model.mats[list(group.inv), 0, :].T * scale % p
    ops = linalg.matmul(coef, rep.mats.reshape(n, d * d), p).reshape(n_i, d, d)
    w = linalg.row_space(ops[0].T, p)
    m = w.shape[0]
    # cols[a, :, s] = p_a w_s, column a of the s-th intertwiner T_s
    cols = linalg.matmul(ops.reshape(n_i * d, d), w.T, p).reshape(n_i, d, m)
    side_by_side = cols.transpose(1, 2, 0).reshape(d, m * n_i)  # [T_0 | T_1 | ...]
    stacked = cols.transpose(2, 1, 0).reshape(m * d, n_i)  # T_0 over T_1 over ...
    for pos, g in enumerate(group.generator_indices):
        left = linalg.matmul(rep.mats[g], side_by_side, p).reshape(d, m, n_i)
        right = linalg.matmul(stacked, model.mats[g], p).reshape(m, d, n_i)
        if not np.array_equal(left, right.transpose(1, 0, 2)):
            raise NotAnIntertwiner(
                f"g{pos} is the first generator whose intertwining equation fails: "
                f"a multiplicity-space matrix T has rho(g{pos}) T != T r(g{pos})"
            )
    return list(stacked.reshape(m, d, n_i))


def evaluation_iso_check(
    rep: MatrixRep, i: int, table: CharacterTable, model: MatrixRep
) -> tuple[bool, np.ndarray]:
    """Assemble V_i (x) Hom_G(V_i, rep) -> rep and certify it.

    The map v (x) T -> T v must be injective with image exactly the i-th
    isotypic component; both failures are impossible for valid inputs and
    raise.  The multiplicity space comes from the model's matrix
    coefficients (`multiplicity_space`) and the component from the
    character table, so the image check compares two independent routes.
    """
    if hom_dim(model, model, table) != 1:
        raise WrongImage("the supplied model is not irreducible (endomorphisms != scalars)")
    p = rep.p
    basis = multiplicity_space(rep, model)
    m = len(basis)
    n_i = model.dim
    assembled = np.zeros((rep.dim, n_i * m), dtype=np.int64)
    for s, t_mat in enumerate(basis):
        assembled[:, s::m] = t_mat  # column a * m + s is T_s e_a
    if linalg.rank(assembled, p) != n_i * m:
        raise NotInjective(f"evaluation map for irreducible {i} has a kernel")
    component = linalg.row_space(isotypic_projector(rep, i, table).T, p)
    image = linalg.row_space(assembled.T, p)
    if image.shape != component.shape or not np.array_equal(image, component):
        raise WrongImage(f"evaluation image differs from isotypic component {i}")
    return True, assembled


# -- irreducible models --------------------------------------------------------------


def irreducible_models(group: Group, table: CharacterTable) -> list[MatrixRep]:
    """One explicit matrix model per irreducible character.

    Each model is cut out of the regular representation.  Right
    multiplication R_a: x -> x*a by an element a of F_p[G] commutes with
    the left regular action and preserves each isotypic component (a
    two-sided ideal), so its eigenspaces there are invariant; their
    dimensions are multiples of the degree n_i, and an eigenspace of
    dimension exactly n_i is one copy of the irreducible.  The elements a
    are seeded random draws, so the models are deterministic.
    """
    p = table.p
    reg = regular_rep(group, p)
    decomp, _ = decompose(reg, table)
    models = []
    for i in range(table.num_irreps):
        basis = decomp.components[i]
        if basis.shape[0] > table.degrees[i]:
            basis = _one_copy(group, p, basis, table.degrees[i])
        model = restrict_to_subspace(reg, basis)
        model._validate()
        models.append(model)
    return models


def _one_copy(group: Group, p: int, basis: np.ndarray, n_i: int) -> np.ndarray:
    """An n_i-dimensional eigenspace of a right translation on the component,
    from at most 100 seeded draws of the translating element."""
    n = group.order
    cols = np.arange(n)[:, None]
    rng = random.Random(0)
    for _ in range(100):
        right = np.zeros((n, n), dtype=np.int64)
        # R_a e_c = sum_h a_h e_{c*h}; c -> c*h is a bijection for each c
        right[group.mult, cols] = [rng.randrange(p) for _ in range(n)]
        for space in linalg.split(basis, right, p, False):
            if space.shape[0] == n_i:
                return space
    raise SplitFailure("no right translation cut the isotypic component down to one copy")
