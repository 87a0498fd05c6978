"""Explicit matrix representations over F_p and their isotypic structure.

A representation assigns one invertible matrix per group element, indexed
by the canonical element order.  Central projectors cut out the isotypic
components.  Multiplicity spaces Hom_G(V_i, E) come from Serre's operators
built from the matrix coefficients of an irreducible model, and the
evaluation map assembled from them is checked to be an isomorphism onto the
component.  They are the one route to Hom_G, which `hom_dim` counts
against the models that the character table keeps.

The character side of every check is W chi, the multiplicities mod p of
a representation's character chi, W the table's `weights()`.

A subgroup's invariants are counted (`fixed_dim`), not spanned: no
Reynolds image, a basis of the H-fixed subspace, is built.

All rank and row-space computations go through the deterministic
eliminations in `linalg`, so component bases are reproducible.  The
component of a monomial representation is reduced one orbit block at a
time, and the blocks are kept on the character table, so every
representation decomposed or checked with one table reduces each orbit
type once.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from . import linalg
from .characters import CharacterTable
from .errors import (
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

# Largest dense array built for a multiplicity space or a graded cover
# piece: 2^24 int64 cells are 128 MB; S5's regular rep takes 120 x 120 x 6.
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
    Every representation is validated as it is built, so one that exists
    is a homomorphism, unless a caller rewrites its arrays afterwards.
    """

    def __init__(
        self,
        group: Group,
        p: int,
        mats: np.ndarray | None = None,
        *,
        images: np.ndarray | None = None,
        scalars: np.ndarray | None = None,
    ):
        """Dense from `mats`, or monomial from `images` and `scalars`;
        either way `_validate` checks the result.

        Dense `mats` are copied reduced mod p.  The monomial arrays are
        taken over, and `scalars` is reduced in place.
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
            self.mats = mats % p
        linalg.require_exact(self.dim, p)
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

    def _bad_edge(self, b: int, pos: int) -> NoReturn:
        raise NotAHomomorphism(
            f"rho({b})rho(g{pos}) != rho({b}*g{pos})",
            word=self.group.word_string(b) + f".g{pos}",
        )

    def __repr__(self) -> str:
        return f"MatrixRep(group={self.group.name}, dim={self.dim}, p={self.p})"


@dataclass
class IsotypicDecomposition:
    """Per-irreducible bases (row matrices) of the projector images, and the
    multiplicity vector (m_0, ..., m_r)."""

    components: list[np.ndarray]
    multiplicities: tuple[int, ...]

    def dims(self) -> tuple[int, ...]:
        return tuple(int(c.shape[0]) for c in self.components)


# -- constructors ---------------------------------------------------------------


def trivial_rep(group: Group, p: int) -> MatrixRep:
    """The one-dimensional trivial representation, monomial."""
    n = group.order
    return MatrixRep(group, p, images=np.zeros((n, 1), dtype=np.int64), scalars=np.ones((n, 1), dtype=np.int64))


def regular_rep(group: Group, p: int) -> MatrixRep:
    """Left-translation action on the group algebra basis, rho(g) e_c =
    e_{g*c}: monomial, with the rows of the multiplication table as index maps."""
    return MatrixRep(group, p, images=group.mult.copy(), scalars=np.ones_like(group.mult))


def permutation_rep(group: Group, p: int) -> MatrixRep:
    """Permutation matrices of the defining permutation realization, in
    monomial form: the index map of g is its row of `group.images`, widened
    to int64 because products such as `images * d` would wrap on its narrow
    unsigned type."""
    images = group.images.astype(np.int64)
    return MatrixRep(group, p, images=images, scalars=np.ones_like(images))


def rep_from_matrices(group: Group, p: int, gen_mats) -> MatrixRep:
    """Extend generator matrices along the breadth-first words.

    Every element's matrix is the word product of generator matrices.  When
    every generator has exactly one nonzero entry per column, the products
    are composed as index maps and scalars, and the result is monomial;
    otherwise they are dense.  The validation of the result checks every
    generator edge of the Cayley graph, so an assignment that is not a
    homomorphism raises NotAHomomorphism with the word of the first bad
    edge.  The generator-free trivial group gets the one-dimensional
    trivial representation.
    """
    gen_mats = [np.asarray(m, dtype=np.int64) % p for m in gen_mats]
    if len(gen_mats) != len(group.generator_indices):
        raise NotAHomomorphism(
            f"expected {len(group.generator_indices)} generator matrices, got {len(gen_mats)}"
        )
    dim = gen_mats[0].shape[0] if gen_mats else 1
    for m in gen_mats:
        if m.shape != (dim, dim):
            raise NotAHomomorphism("generator matrices must be square of equal size")
        if linalg.det(m, p) == 0:
            raise SingularMatrix("generator matrix is singular mod p")
    n = group.order
    if all(((m != 0).sum(axis=0) == 1).all() for m in gen_mats):
        # rho(k) e_j = s_j rho(parent) e_{t_j}, s_j in row t_j of column j
        gens = [(np.nonzero(m.T)[1], m.T[m.T != 0]) for m in gen_mats]
        images, scalars = np.empty((2, n, dim), dtype=np.int64)
        images[0], scalars[0] = np.arange(dim), 1
        for k in range(1, n):
            parent, gen_pos = group.words[k]
            t, s = gens[gen_pos]
            images[k], scalars[k] = images[parent, t], scalars[parent, t] * s % p
        return MatrixRep(group, p, images=images, scalars=scalars)
    mats = np.zeros((n, dim, dim), dtype=np.int64)
    mats[0] = linalg.identity(dim)
    for k in range(1, n):
        parent, gen_pos = group.words[k]
        mats[k] = linalg.matmul(mats[parent], gen_mats[gen_pos], p)
    return MatrixRep(group, p, mats)


# -- characters and projectors ---------------------------------------------------


def character_of(rep: MatrixRep, classes: ConjugacyClasses) -> tuple[int, ...]:
    """Traces of the class representatives; a monomial representation sums
    its scalars on fixed points."""
    if rep.images is not None:
        elems = list(classes.reps)
        fixed = rep.images[elems] == np.arange(rep.dim)
        return tuple(int(t) for t in (rep.scalars[elems] * fixed).sum(axis=1) % rep.p)
    return tuple(int(np.trace(rep.mats[r]) % rep.p) for r in classes.reps)


def _character_multiplicities(rep: MatrixRep, table: CharacterTable) -> np.ndarray:
    """W chi: the multiplicity of every irreducible in `rep` as a residue
    mod p, one product of the table's class weights with the character,
    exact in int64 under the table's `require_exact`."""
    chi = np.array(character_of(rep, table.classes), dtype=np.int64)
    return table.weights() @ chi % table.p


def _group_sum(rep: MatrixRep, elems, coef: np.ndarray) -> np.ndarray:
    """sum_k coef[k] rho(elems[k]), one dim x dim matrix.

    `elems` indexes the group elements (a list, or slice(None) for all).
    A monomial representation scatter-adds the coefficient times the scalar
    of each (g, j) into cell (images[g, j], j), one `np.bincount`.  A cell
    sums at most |G| residues, so its float64 sums are exact: for
    dim >= 1, `require_exact` keeps p <= isqrt(2^63 - 1) + 1, and with
    |G| <= DEFAULT_CAP that makes |G| p < 1.6 10^13 < 2^53 (a dim-0
    representation sums no cells).  A dense representation takes one
    `linalg.matmul` with the flattened matrices.
    """
    p, d = rep.p, rep.dim
    if rep.images is not None:
        cells = (rep.images[elems] * d + np.arange(d)).ravel()
        weights = coef[:, None] * rep.scalars[elems] % p
        out = np.bincount(cells, weights=weights.ravel(), minlength=d * d).astype(np.int64)
        return np.remainder(out, p, out=out).reshape(d, d)
    mats = rep.mats[elems]
    return linalg.matmul(coef, mats.reshape(len(mats), d * d), p).reshape(d, d)


def _act(rep: MatrixRep, elems, cols: np.ndarray) -> np.ndarray:
    """rho(g) @ cols for each g in `elems` (as in `_group_sum`), stacked;
    `cols` holds residues mod p.

    A monomial rho(g) moves row j of `cols`, times scalars[g, j], to row
    images[g, j] (each index map of a representation is a permutation):
    one scatter, with no product when every scalar is 1.  A dense
    representation takes one `linalg.matmul`.
    """
    if rep.images is None:
        return linalg.matmul(rep.mats[elems], cols, rep.p)
    images, scalars = rep.images[elems], rep.scalars[elems]
    out = np.zeros(images.shape + cols.shape[1:], dtype=np.int64)
    rows = np.arange(len(images))[:, None]
    if (scalars == 1).all():
        out[rows, images] = cols
    else:
        out[rows, images] = scalars[:, :, None] * cols % rep.p
    return out


def isotypic_projector(rep: MatrixRep, i: int, table: CharacterTable) -> np.ndarray:
    """Central projector deg_i/|G| * sum_g chi_i(g^-1) rho(g), one
    `_group_sum` over the whole group."""
    return _group_sum(rep, slice(None), table.idempotents()[i])


def decompose(rep: MatrixRep, table: CharacterTable) -> IsotypicDecomposition:
    """Isotypic decomposition, with the multiplicity vector.

    The component of i is `row_space(P_i^T)`, from `_components`, which
    raises ValueError for a representation of another group object or
    prime than the table's.  Multiplicities are true integers
    rank(P_i)/deg_i; each one is cross-checked against the character
    multiplicity, entry i of W chi, which lives mod p, so the two methods
    must agree as residues.
    """
    components = _components(rep, table, range(table.num_irreps))
    p = table.p
    char_mults = _character_multiplicities(rep, table)
    mults = []
    for i, basis in enumerate(components):
        r = basis.shape[0]
        if r % table.degrees[i] != 0:
            raise InconsistentMultiplicity(
                f"projector rank {r} is not a multiple of degree {table.degrees[i]}"
            )
        m = r // table.degrees[i]
        if m % p != char_mults[i]:
            raise InconsistentMultiplicity(
                f"projector multiplicity {m} != character multiplicity {char_mults[i]} (mod {p})"
            )
        mults.append(m)
    if sum(c.shape[0] for c in components) != rep.dim:
        raise InconsistentMultiplicity("component dimensions do not fill the representation")
    return IsotypicDecomposition(components, tuple(mults))


def _components(rep: MatrixRep, table: CharacterTable, irreps) -> list[np.ndarray]:
    """The isotypic components `row_space(P_i^T)` of `rep`, for each i in
    `irreps`.

    A dense representation reduces its dense projector.  A monomial one
    finds its orbits and their types once (`_orbit_types`), and each
    component is assembled by `_orbit_row_space` from one block reduction
    per (type, i), read from or added to the memo of the table.  That memo
    is keyed by local index maps only, so a representation of another
    group object or prime raises ValueError rather than plant or read
    blocks that are not its own.
    """
    table.require_owner(rep, "representation")
    if rep.images is None:
        return [linalg.row_space(isotypic_projector(rep, i, table).T, rep.p) for i in irreps]
    types = _orbit_types(rep)
    return [_orbit_row_space(rep, types, table, i) for i in irreps]


def _orbit_types(rep: MatrixRep) -> list[tuple[tuple[int, bytes], np.ndarray]]:
    """The G-orbits of the basis of a monomial representation, grouped by
    orbit type: (type key, orbits) pairs, the orbits of one type stacked as
    the rows of an array, each row ascending.

    With local[orbit] = arange(|O|), the type key is the orbit size and the
    bytes of the generators' local index maps and scalars on the orbit.
    Those of the generators fix those of every element, as rho is a
    homomorphism, so orbits of one type have one block of every P_i.
    """
    gens = list(rep.group.generator_indices)
    label = _orbit_labels(rep.images)
    # the points of each orbit together, ascending within it, orbits by least point
    order = np.argsort(label, kind="stable")
    sizes = np.bincount(label, minlength=rep.dim)
    sizes = sizes[sizes > 0]
    starts = np.cumsum(sizes) - sizes
    local = np.empty(rep.dim, dtype=np.int64)
    local[order] = np.arange(rep.dim) - np.repeat(starts, sizes)
    # row k: the generators' local index maps and scalars at point order[k]
    keyed = np.concatenate([local[rep.images[gens]], rep.scalars[gens]]).T[order]
    types: dict[tuple[int, bytes], list[int]] = {}
    for start, size in zip(starts.tolist(), sizes.tolist()):
        types.setdefault((size, keyed[start : start + size].tobytes()), []).append(start)
    return [(key, order[np.add.outer(firsts, np.arange(key[0]))]) for key, firsts in types.items()]


def _orbit_row_space(
    rep: MatrixRep, types: list[tuple[tuple[int, bytes], np.ndarray]], table: CharacterTable, i: int
) -> np.ndarray:
    """`linalg.row_space(P_i^T)` for the isotypic projector P_i of a
    monomial representation, `types` its orbits grouped by `_orbit_types`.

    P_i only has cells (images[g, j], j), so it is block diagonal over the
    orbits.  With local[orbit] = arange(|O|), cell (a, b) of an orbit's
    block is a * |O| + b, so rho(g) e_j, j = orbit[a], lands on cell
    a * |O| + local[images[g, j]] of the block of P_i^T, with weight
    e_i[g] * scalars[g, j]: one `np.bincount` of |G| * |O| weights.  A
    cell sums at most |G| residues, exact in float64 for the reason
    `_group_sum` gives: a representation with an orbit block has
    dim >= 1, so `require_exact` bounds p, and DEFAULT_CAP bounds |G|.
    Each block is row-reduced alone, and its rows, embedded and sorted by
    pivot column, are the reduced row-echelon form of all of P_i^T, which
    is unique, so the same basis.

    A block is a function of e_i and of the orbit type, so
    `table._orbit_blocks` keeps its reduction under (i, type key), and
    every orbit of that type, in this or any representation decomposed
    with the table, reuses it: the rows of one (type, i) go into all the
    orbits of the type with one scatter.
    """
    p, e, memo = rep.p, table.idempotents()[i], table._orbit_blocks
    blocks = []
    for key, orbits in types:
        memo_key = (i, *key)
        if memo_key not in memo:
            orbit = orbits[0]
            size = len(orbit)
            local = np.empty(rep.dim, dtype=np.int64)
            local[orbit] = np.arange(size)
            cells = (np.arange(size) * size + local[rep.images[:, orbit]]).ravel()
            weights = (e[:, None] * rep.scalars[:, orbit] % p).ravel()
            block = np.bincount(cells, weights, size * size).astype(np.int64).reshape(size, size)
            # a transitive rep (the regular rep) is one orbit of |G|: free
            # its |G|^2-cell arrays before the elimination's own copies
            del cells, weights
            r, piv = linalg.rref(block, p)  # rref reduces mod p
            memo[memo_key] = r[: len(piv)].copy(), piv
        blocks.append(memo[memo_key])
    # the pivot columns of the embedded rows, type by type, orbit by orbit
    pivots = np.concatenate(
        [np.empty(0, dtype=np.int64)] + [orbits[:, list(piv)].ravel() for (_, orbits), (_, piv) in zip(types, blocks)]
    )
    # the k-th embedded row is row position[k] of the result
    position = np.empty(len(pivots), dtype=np.int64)
    position[np.argsort(pivots)] = np.arange(len(pivots))
    out = np.zeros((len(pivots), rep.dim), dtype=np.int64)
    start = 0
    for (_, orbits), (rows, _) in zip(types, blocks):
        count = len(orbits) * len(rows)
        at = position[start : start + count].reshape(len(orbits), len(rows))
        out[at[:, :, None], orbits[:, None, :]] = rows
        start += count
    return out


def restrict_to_subspace(rep: MatrixRep, basis: np.ndarray) -> MatrixRep:
    """Action matrices on an invariant row-subspace, in basis coordinates.

    `linalg.pivot_inverse` gives the pivot columns P of the basis and the
    inverse of basis[:, P].  The images of the basis rows under the
    generators, one `_act`, must lie in its span (`linalg.check_span`): a
    subspace the generators keep is kept by the group they generate.  So
    the coordinates of every element's images are their pivot columns, rows
    P of rho(g) basis^T (|G| x k x k), times the inverse.  Both checks
    raise SingularMatrix, and the result is validated.
    """
    group, p = rep.group, rep.p
    basis = linalg.asmat(basis, p)
    pivots, inverse = linalg.pivot_inverse(basis, p)
    if rep.images is None:
        rows = linalg.matmul(rep.mats[:, pivots], basis.T, p)
    else:
        # row i of a monomial rho(g) holds scalars[g, j] in column j = images[g^-1, i]
        j = rep.images[:, pivots][list(group.inv)]
        rows = rep.scalars[np.arange(group.order)[:, None], j, None] * basis.T[j] % p
    coords = linalg.matmul(rows.transpose(0, 2, 1), inverse, p)
    # the generators' images of the basis rows, basis @ rho(s)^T
    gens = list(group.generator_indices)
    linalg.check_span(coords[gens], basis, _act(rep, gens, basis.T).transpose(0, 2, 1), p)
    return MatrixRep(group, p, coords.transpose(0, 2, 1))


# -- hom spaces -------------------------------------------------------------------


def hom_dim(r1: MatrixRep, r2: MatrixRep, table: CharacterTable) -> int:
    """Dimension of Hom_G(r1, r2), computed two independent ways.

    As E = sum_i V_i (x) Hom_G(V_i, E), it is sum_i m_i(r1) m_i(r2), m_i the
    length of `multiplicity_space` against model i of the table's
    `irreducible_models`.  Every m_i of both reps must equal its character
    multiplicity, entry i of W chi, mod p, so the total matches the
    character side too; the first irreducible that differs raises
    MethodMismatch naming the rep.  A rep of another group object or prime
    than the table's raises ValueError, and a p_0 or translates of W above
    MAX_SYSTEM_CELLS raise SystemTooLarge, both before any model is built;
    the character multiplicities, exact while dim < p, give m.
    """
    char_mults = []
    for rep in (r1, r2):
        table.require_owner(rep, "representation")
        char_mults.append(_character_multiplicities(rep, table))
        check_size("Serre's operator p_0", rep.dim, rep.dim)
        m = int(char_mults[-1].max())
        check_size("the array of the translates of W", table.group.order, rep.dim, m)
    models = irreducible_models(table.group, table)
    m1 = [len(multiplicity_space(r1, model)) for model in models]
    m2 = m1 if r2 is r1 else [len(multiplicity_space(r2, model)) for model in models]
    for name, mults, chars in (("r1", m1, char_mults[0]), ("r2", m2, char_mults[1])):
        differ = np.flatnonzero(np.array(mults) % table.p != chars)
        if differ.size:
            i = differ[0]
            raise MethodMismatch(
                f"{name}: multiplicity space {i} has dimension {mults[i]}, character {chars[i]} mod {table.p}"
            )
    return sum(a * b for a, b in zip(m1, m2))


def decomposition_report(rep: MatrixRep, table: CharacterTable) -> dict:
    """Type, component dimensions and dim End_G(rep), JSON-ready.

    `pass` holds when dim End_G(rep) from `hom_dim` equals the sum of the
    squared multiplicities from `decompose`, as Schur's lemma requires.
    """
    decomp = decompose(rep, table)
    endo = hom_dim(rep, rep, table)
    return {
        "dim": rep.dim,
        "type": list(decomp.multiplicities),
        "component_dims": list(decomp.dims()),
        "endomorphism_dim": endo,
        "pass": endo == sum(m * m for m in decomp.multiplicities),
    }


# -- functorial constructions -----------------------------------------------------


def dual_rep(rep: MatrixRep) -> MatrixRep:
    """Contragredient action rho(g^-1)^T on the dual basis.

    For a monomial rho(g) = P D it is P D^-1: the same index map, with the
    scalar of column k that of rho(g^-1) on images[g, k].
    """
    inv = list(rep.group.inv)
    if rep.images is not None:
        scalars = np.take_along_axis(rep.scalars[inv], rep.images, axis=1)
        return MatrixRep(rep.group, rep.p, images=rep.images.copy(), scalars=scalars)
    return MatrixRep(rep.group, rep.p, rep.mats[inv].transpose(0, 2, 1))


# -- invariants and the evaluation map ---------------------------------------------


def _averaging_projector(rep: MatrixRep, h: Subgroup) -> np.ndarray:
    """(1/|H|) sum_{h in H} rho(h), one `_group_sum` over H."""
    coef = np.full(h.order, inv_mod(h.order % rep.p, rep.p), dtype=np.int64)
    return _group_sum(rep, list(h.element_indices), coef)


def _orbit_labels(images: np.ndarray) -> np.ndarray:
    """The least point of the orbit of each basis index, for the index maps
    `images` (one row per element) of a group: images[:, j] is then the
    orbit of j."""
    return images.min(axis=0)


def fixed_dim(rep: MatrixRep, h: Subgroup) -> int:
    """Dimension of the H-fixed subspace of `rep`.

    On a monomial representation H permutes the basis lines.  On each
    H-orbit, a fixed vector's coordinates are determined by any one of
    them, and the orbit carries a nonzero fixed vector exactly when the
    stabilizer of its points acts on them by the scalar 1; so the dimension
    is a count of orbits (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, ch. 7).  The orbits are counted by their
    least points, those equal to their `_orbit_labels`, with no sort; only
    when some point is twisted (fixed with a scalar other than 1) are the
    labels of the twisted points made unique, to drop their orbits.  A
    dense representation takes the rank of the averaging projector.
    """
    if rep.images is not None:
        elems = list(h.element_indices)
        images, scalars = rep.images[elems], rep.scalars[elems]
        label = _orbit_labels(images)
        count = int(np.count_nonzero(label == np.arange(rep.dim)))
        twisted = ((images == np.arange(rep.dim)) & (scalars != 1)).any(axis=0)
        if twisted.any():
            count -= len(np.unique(label[twisted]))
        return count
    return linalg.rank(_averaging_projector(rep, h), rep.p)


def multiplicity_space(rep: MatrixRep, model: MatrixRep) -> list[np.ndarray]:
    """Basis of Hom_G(model, rep) as (rep.dim x n_i) matrices, n_i = model.dim.

    Serre's operators (*Linear Representations of Finite Groups*, §2.7,
    Prop. 8), with r(g) the model matrices:
    p_a = (n_i/|G|) sum_g r(g^-1)[0, a] rho(g) for a = 0..n_i-1.  For an
    irreducible model, p_0 projects onto a space W of dimension the
    multiplicity m, and for w in W the matrix T_w = [p_0 w | ... |
    p_{n_i-1} w] intertwines: rho(g) T_w = T_w r(g).  Only p_0 is built,
    by one `_group_sum`, and W is its row basis `row_space(p_0^T)`.  The
    columns p_a w of every T_w come from one `_act` of W^T over the group,
    the |G| x dim x m translates rho(g) W^T, and one product with the
    (n_i x |G|) coefficients.  Each T_w is checked against every
    generator, one `_act` and one product per generator, and the first
    generator whose intertwining equation fails raises NotAnIntertwiner.
    That generator need not be the one with a wrong matrix, since every
    rho(g) enters every p_a.  MatrixRep validates every representation it
    builds, so a corrupted generator reaches this check only through a
    caller that rewrites a representation's arrays after construction.
    p_0 and the translates above MAX_SYSTEM_CELLS raise SystemTooLarge
    before they are built.
    """
    group, p = rep.group, rep.p
    n, d, n_i = group.order, rep.dim, model.dim
    scale = n_i * inv_mod(n, p) % p
    coef = model.mats[list(group.inv), 0, :].T * scale % p
    check_size("Serre's operator p_0", d, d)
    w = linalg.row_space(_group_sum(rep, slice(None), coef[0]).T, p)
    m = w.shape[0]
    check_size("the array of the translates of W", n, d, m)
    # cols[a, :, s] = p_a w_s, column a of the s-th intertwiner T_s
    cols = linalg.matmul(coef, _act(rep, slice(None), w.T).reshape(n, d * m), p).reshape(n_i, d, m)
    side_by_side = cols.transpose(1, 2, 0).reshape(d, m * n_i)  # [T_0 | T_1 | ...]
    stacked = cols.transpose(2, 1, 0).reshape(m * d, n_i)  # T_0 over T_1 over ...
    for pos, g in enumerate(group.generator_indices):
        left = _act(rep, [g], side_by_side)[0].reshape(d, m, n_i)
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
    character table (`_components`), so the image check compares two
    independent routes.  On a monomial representation the component is
    assembled from the table's reduced orbit blocks, which `decompose`,
    through `irreducible_models`, has already filled for the regular rep.

    The model is first checked irreducible two ways: Burnside's rank n_i^2
    of its |G| x n_i^2 flattened matrices, which for p not dividing |G|
    holds exactly when End_G(model) = F_p (double centralizer theorem), and
    its character multiplicities W chi, which must be a unit vector e_j:
    the irreducible characters are a basis of the class functions, so then
    chi = chi_j.  A unit vector at j != i raises WrongImage naming j.
    Before any of this, a rep or model of another group object or prime
    than the table's raises ValueError.
    """
    table.require_owner(rep, "representation")
    table.require_owner(model, "model")
    p, n_i = rep.p, model.dim
    span = linalg.rank(model.mats.reshape(model.group.order, n_i * n_i), p)
    char_mults = _character_multiplicities(model, table)
    # residues in [0, p) sum to 1 only on a unit vector
    if span != n_i * n_i or char_mults.sum() != 1:
        raise WrongImage("the supplied model is not irreducible (endomorphisms != scalars)")
    j = int(char_mults.argmax())
    if j != i:
        raise WrongImage(f"the supplied model has the character of irreducible {j}, not {i}")
    basis = multiplicity_space(rep, model)
    m = len(basis)
    assembled = np.zeros((rep.dim, n_i * m), dtype=np.int64)
    for s, t_mat in enumerate(basis):
        assembled[:, s::m] = t_mat  # column a * m + s is T_s e_a
    image = linalg.row_space(assembled.T, p)
    if image.shape[0] != n_i * m:
        raise NotInjective(f"evaluation map for irreducible {i} has a kernel")
    component = _components(rep, table, [i])[0]
    if image.shape != component.shape or not np.array_equal(image, component):
        raise WrongImage(f"evaluation image differs from isotypic component {i}")
    return True, assembled


# -- irreducible models --------------------------------------------------------------


def irreducible_models(group: Group, table: CharacterTable) -> list[MatrixRep]:
    """One explicit matrix model per irreducible character, kept on the table.

    Each model is cut out of the regular representation.  Right
    multiplication R_a: x -> x*a by an element a of F_p[G] commutes with
    the left regular action and preserves each isotypic component (a
    two-sided ideal), so its eigenspaces there are invariant; their
    dimensions are multiples of the degree n_i, and an eigenspace of
    dimension exactly n_i is one copy of the irreducible, which
    `restrict_to_subspace` restricts to.  The elements a are seeded random
    draws, so the models are deterministic.  They are a function of the
    table alone: the first call builds them into `table._models`, with
    read-only matrices, and every call returns them.  A `group` that is
    not `table.group` raises ValueError.
    """
    if group is not table.group:
        raise ValueError(f"the character table of {table.group.name} does not belong to the group {group.name}")
    if table._models is None:
        reg = regular_rep(group, table.p)
        table._models = [
            restrict_to_subspace(reg, _one_copy(table, basis, i) if len(basis) > table.degrees[i] else basis)
            for i, basis in enumerate(decompose(reg, table).components)
        ]
        for model in table._models:
            model.mats.setflags(write=False)
    return list(table._models)


def _one_copy(table: CharacterTable, basis: np.ndarray, i: int) -> np.ndarray:
    """A deg_i-dimensional eigenspace of a right translation on the basis of
    the i-th isotypic component of the regular rep, from at most 100 seeded
    draws of the translating element."""
    group, p = table.group, table.p
    n = group.order
    cols = np.arange(n)[:, None]
    rng = random.Random(0)
    for _ in range(100):
        right = np.zeros((n, n), dtype=np.int64)
        # R_a e_c = sum_h a_h e_{c*h}; c -> c*h is a bijection for each c
        right[group.mult, cols] = [rng.randrange(p) for _ in range(n)]
        for space in linalg.split(basis, right, p, False):
            if space.shape[0] == table.degrees[i]:
                return space
    raise SplitFailure("no right translation cut the isotypic component down to one copy")
