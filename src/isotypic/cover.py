"""Graded model of a quotient cover for a faithful linear group action.

The group acts on polynomial functions in n variables by
(g . f)(x) = f(rho(g)^-1 x); each graded piece is a finite-dimensional
representation, and the generating function of the multiplicities of an
irreducible across degrees is a rational function (a finite sum over the
group).  The rank of each multiplicity module over the invariant ring is
read off exactly as the t -> 1 limit of series ratios, and the expected
identities (generic rank = irreducible dimension, fixed-ring dimension
counts, product vanishing patterns) are verified degree by degree.

Per-degree multiplicities from projector ranks are true integers; series
coefficients live in F_p, so series-side comparisons are congruences
mod p.  The load-bearing cross-check between the two, which pins down the
orientation convention, is the `cover.series_vs_projectors` outcome of
every report, through at least CHECK_DEGREE.

`builtin_action` builds the named actions (perm, reflection, scalar) that
the command line and the verify-all scenarios use.  `VerificationOutcome`
is the one outcome type of every report, and `Report` the one report type:
`pushforward_report` and `cyclic.cyclic_report` return their data and
outcomes in it, and verify-all collects the outcomes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import linalg
from .arith import Poly, RatFunc, limit_at_one, poly_gcd, root_of_unity, series_prefix
from .characters import CharacterTable, class_weights, restrict_invariant_dim, tensor_multiplicities
from .errors import NotFaithful
from .groups import ConjugacyClasses, Group, Subgroup, cyclic_subgroup
from .reps import (
    IsotypicDecomposition,
    MatrixRep,
    _group_sum,
    check_size,
    decompose,
    dual_rep,
    fixed_dim,
    isotypic_projector,
    permutation_rep,
    rep_from_matrices,
    trivial_rep,
)

# Degrees through which the Molien series is checked against projector
# multiplicities, and through which component products are checked.
CHECK_DEGREE = 6
PRODUCT_DEGREE = 4


def _products(n: int, a: int, b: int) -> np.ndarray:
    """The index in B_{a+b} of x^alpha x^beta for each (alpha, beta) in
    B_a x B_b, flattened.  The basis of B_d in n variables is the multisets
    of `combinations_with_replacement(range(n), d)`: graded lex, x_0^d first.

    The index of x^e in B_d is the number of degree-d monomials before it,
    those that agree with it before some x_k and have a larger exponent of
    x_k.  With t the degree of x^e in x_{k+1}..x_{n-1} (`_tails`, which
    add up over a product), they are x^e's prefix times x_k times the
    monomials of degree t - 1 in x_k..x_{n-1}: C(t + n-k-2, n-k-1) of
    them.  Each count is at most dim B_d, so unlike a mixed-radix code of
    the exponent vectors the sum cannot overflow.
    """
    d = a + b
    tail_a, tail_b = _tails(n, a), _tails(n, b)
    tail = (tail_a[:, None] + tail_b).reshape(len(tail_a) * len(tail_b), n - 1)
    counts = np.array(
        [[math.comb(t + n - k - 2, n - k - 1) for k in range(n - 1)] for t in range(d + 1)], dtype=np.int64
    ).reshape(d + 1, n - 1)
    return counts[tail, np.arange(n - 1)].sum(axis=1)


def _tails(n: int, d: int) -> np.ndarray:
    """tails[m, k], the degree in x_{k+1}..x_{n-1} of the m-th monomial of
    B_d: the number of its factors above x_k."""
    combos = list(combinations_with_replacement(range(n), d))
    factors = np.array(combos, dtype=np.int64).reshape(len(combos), d, 1)
    return (factors > np.arange(n - 1)).sum(axis=1)


def _sym_power_step(prev: MatrixRep, rep: MatrixRep, d: int) -> MatrixRep:
    """B_d from B_{d-1} (`prev`) and B_1 (`rep`) on the bases of `_products`.

    x^beta x_i is monomial scatter[beta, i] of B_d.  Column m is column beta
    of `prev` times column j of `rep` for any one factorization x^m =
    x^beta x_j, as g acts by ring automorphisms: g . (x^beta x_j) =
    (g . x^beta)(g . x_j).  Entry (beta', i) of that outer product lands on
    row scatter[beta', i].  When both are monomial so is the result, with
    the product of the scalars.  Otherwise one element at a time, so only
    one matrix of temporaries is alive.  Each entry is a sum of dim(rep)
    products below p^2, exact in int64 because `rep` passed
    `require_exact`; the MatrixRep constructor reduces it mod p.
    """
    n = rep.dim
    scatter = _products(n, d - 1, 1).reshape(prev.dim, n)
    factor = np.empty(scatter.max() + 1, dtype=np.int64)
    # one factorization (beta, j) per monomial of B_d, whichever is written last
    factor[scatter.ravel()] = np.arange(scatter.size)
    beta, last = np.divmod(factor, n)
    if prev.images is not None and rep.images is not None:
        images = scatter[prev.images[:, beta], rep.images[:, last]]
        scalars = prev.scalars[:, beta] * rep.scalars[:, last]
        return MatrixRep(rep.group, rep.p, images=images, scalars=scalars)
    out = np.zeros((rep.group.order, factor.size, factor.size), dtype=np.int64)
    for g in range(rep.group.order):
        cols = prev.mats[g][:, beta]
        lin = rep.mats[g][:, last]
        for i in range(n):
            out[g, scatter[:, i]] += cols * lin[i]
    return MatrixRep(rep.group, rep.p, out)


class LinearCoverAction:
    """Faithful linear action on polynomial functions in n variables."""

    def __init__(self, rep: MatrixRep, name: str = "custom"):
        self.group, self.p = rep.group, rep.p
        self.rep = rep
        self.n = rep.dim
        self.name = name
        self._pieces: dict[int, MatrixRep] = {}
        self._piece_data: dict[int, IsotypicDecomposition] = {}
        self._forbidden_projectors: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        self._molien: tuple[Poly, list[Poly], list[list[int]]] | None = None
        self._mul_maps: dict[tuple[int, int], np.ndarray] = {}
        self._tensors: np.ndarray | None = None
        kernel = [g for g in range(rep.group.order) if np.array_equal(rep.mats[g], rep.mats[0])]
        if len(kernel) != 1:
            raise NotFaithful(
                f"{len(kernel)} elements act trivially; the cover group would be a quotient"
            )

    # -- graded pieces ---------------------------------------------------------

    def piece(self, d: int) -> MatrixRep:
        """The action on B_d, on the monomial basis of `_products`, memoized."""
        if d not in self._pieces:
            if d < 0:
                raise ValueError("degree must be nonnegative")
            dim = math.comb(self.n + d - 1, d)
            check_size(f"the degree-{d} piece", self.group.order, dim, dim)
            if d == 0:
                self._pieces[d] = trivial_rep(self.group, self.p)
            elif d == 1:
                # g . x_j = sum_i (rho(g)^-1)[j, i] x_i: the contragredient action
                self._pieces[d] = dual_rep(self.rep)
            else:
                self._pieces[d] = _sym_power_step(self.piece(d - 1), self.piece(1), d)
        return self._pieces[d]

    def piece_decomposition(self, d: int, table: CharacterTable) -> IsotypicDecomposition:
        """`decompose` of the degree-d piece, memoized.

        All degrees share the table's memo of orbit-block reductions: the
        orbits of one type decompose the same way in every degree.
        """
        _require_own_table(self, table)
        if d not in self._piece_data:
            self._piece_data[d] = decompose(self.piece(d), table)
        return self._piece_data[d]

    def multiplication_map(self, a: int, b: int) -> np.ndarray:
        """`_products(n, a, b)`, memoized.

        It stands for the 0/1 (dim B_a * dim B_b) x dim B_{a+b} matrix with
        one 1 per row, and the size guard counts that matrix, which bounds
        the array `product_structure_check` scatters along it.
        """
        key = (a, b)
        if key not in self._mul_maps:
            pa, pb, pab = self.piece(a), self.piece(b), self.piece(a + b)
            check_size(f"the multiplication map of degrees {a} and {b}", pa.dim * pb.dim, pab.dim)
            self._mul_maps[key] = _products(self.n, a, b)
        return self._mul_maps[key]

    def to_dict(self) -> dict:
        return {
            "group": self.group.name,
            "modulus": self.p,
            "variables": self.n,
            "generator_matrices": [
                self.rep.mats[g].reshape(-1).tolist() for g in self.group.generator_indices
            ],
        }


def validate_action(group: Group, gen_mats, p: int, name: str = "custom") -> LinearCoverAction:
    """Extend generator matrices to a faithful action on coordinates (one
    variable for the generator-free trivial group)."""
    return LinearCoverAction(rep_from_matrices(group, p, gen_mats), name=name)


# -- builtin actions -------------------------------------------------------------


def perm_action(group: Group, p: int) -> LinearCoverAction:
    """The defining permutation matrices acting on one variable per point."""
    return LinearCoverAction(permutation_rep(group, p), name=f"perm{group.degree}")


def reflection_action(group: Group, p: int) -> LinearCoverAction:
    """Two-dimensional rotation/reflection matrices for a dihedral group.

    Expects the builtin generators of D<n>, n >= 3 (rotation, reflection):
    the rotation becomes [[0, -1], [1, zeta + zeta^-1]] for zeta of order
    |G|/2, the reflection swaps the two coordinates.
    """
    zeta = root_of_unity(p, group.order // 2)
    trace = (zeta + linalg.inv_mod(zeta, p)) % p
    rot = np.array([[0, -1], [1, trace]], dtype=np.int64) % p
    ref = np.array([[0, 1], [1, 0]], dtype=np.int64)
    return validate_action(group, [rot, ref], p, name="reflection2")


def scalar_action(group: Group, p: int) -> LinearCoverAction:
    """One-variable action of a cyclic group: the generator, if any, scales
    by a primitive |G|-th root of unity."""
    zeta = root_of_unity(p, group.order)
    gens = [np.array([[zeta]], dtype=np.int64)] * len(group.generator_indices)
    return validate_action(group, gens, p, name="scalar1")


def builtin_action(group: Group, p: int, name: str) -> LinearCoverAction:
    """The action named perm[<degree>], reflection[2] or scalar[1].

    A name that does not fit the group raises ValueError.
    """
    m = re.fullmatch(r"(perm|reflection|scalar)(\d*)", name)
    if not m:
        raise ValueError(f"unknown builtin action {name!r}")
    kind, size = m.group(1), m.group(2)
    if kind == "perm":
        if size and int(size) != group.degree:
            raise ValueError(f"action perm{size} does not match the group degree {group.degree}")
        return perm_action(group, p)
    if kind == "reflection":
        if not re.fullmatch(r"D\d+", group.name):
            raise ValueError("reflection actions are defined for dihedral groups D<n>")
        if int(group.name[1:]) < 3:
            raise ValueError(f"reflection actions need D<n> with n >= 3: {group.name} has no rotation generator")
        if size and int(size) != 2:
            raise ValueError("reflection actions are two-dimensional")
        return reflection_action(group, p)
    if not re.fullmatch(r"C\d+", group.name):
        raise ValueError("scalar actions are defined for cyclic groups C<n>")
    if size and int(size) != 1:
        raise ValueError("scalar actions are one-dimensional")
    return scalar_action(group, p)


def _require_own_table(action: LinearCoverAction, table: CharacterTable) -> None:
    """The memos of an action are built from one table: raise ValueError for
    a table of another group object or prime."""
    if table.group is not action.group or table.p != action.p:
        raise ValueError(
            f"the character table of {table.group.name} at p = {table.p} does not belong"
            f" to the action of {action.group.name} at p = {action.p}"
        )


# -- multiplicity series -----------------------------------------------------------


def _inverse_dets(action: LinearCoverAction, classes: ConjugacyClasses) -> list[Poly]:
    """det(I - t rho(g)^-1) for g the representative of each class; a class
    function, as conjugate matrices have one characteristic polynomial."""
    # det(I - tA) = t^n charpoly_A(1/t): the coefficients reversed
    mats, inv = action.rep.mats, action.group.inv
    return [Poly(action.p, linalg.charpoly(mats[inv[g]], action.p)[::-1]) for g in classes.reps]


def _molien_sums(action: LinearCoverAction, table: CharacterTable) -> tuple[Poly, list[Poly], list[list[int]]]:
    """The Molien series of every irreducible over one common denominator,
    memoized: (D, N, prefixes), irreducible i's series being N_i / D, not
    reduced.  D is the lcm of the class determinants det(1 - t rho(g_c)^-1),
    from k - 1 gcds, and N = W Q is one product of the `class_weights` W
    and the rows Q_c = D / det_c, exact under the table's `require_exact`.
    Row i of the prefixes is the longest power-series prefix of N_i / D
    expanded so far, none at first.
    """
    _require_own_table(action, table)
    if action._molien is None:
        p = action.p
        dets = _inverse_dets(action, table.classes)
        den = dets[0]
        for det in dets[1:]:
            den = den * det.exact_div(poly_gcd(den, det))
        quotients = np.zeros((len(dets), den.degree + 1), dtype=np.int64)
        for c, det in enumerate(dets):
            coeffs = den.exact_div(det).coeffs
            quotients[c, : len(coeffs)] = coeffs
        nums = linalg.matmul(class_weights(table), quotients, p)
        action._molien = den, [Poly(p, row) for row in nums], [[] for _ in nums]
    return action._molien


def molien_multiplicity_series(action: LinearCoverAction, i: int, table: CharacterTable) -> RatFunc:
    """Generating function of the multiplicities of irreducible i by degree.

    The finite sum (1/|G|) sum_g chi_i(g^-1) / det(1 - t rho(g)^-1), the
    orientation fixed by the contragredient action on the variables, is
    taken over the conjugacy classes, each term weighted by its class size,
    as both factors are class functions: N_i / D of `_molien_sums`, reduced.
    `pushforward_report` compares its coefficients with the projector
    multiplicities.
    """
    den, nums, _ = _molien_sums(action, table)
    return RatFunc(nums[i], den)


def _series_prefixes(action: LinearCoverAction, terms: int, table: CharacterTable) -> list[list[int]]:
    """`series_prefix` of every irreducible's Molien series through degree
    `terms`: the memo's prefixes are expanded anew for a longer request,
    and sliced for a shorter one."""
    den, nums, prefixes = _molien_sums(action, table)
    if len(prefixes[0]) <= terms:
        prefixes[:] = [series_prefix(num, den, terms) for num in nums]
    return [row[: terms + 1] for row in prefixes]


def generic_multiplicity(action: LinearCoverAction, i: int, table: CharacterTable) -> int:
    """Rank of the i-th multiplicity module over the invariant ring.

    Computed as the exact limit at t = 1 of M_i / M_0 = N_i / N_0, where
    the common denominator D cancels; the structure theory predicts this
    equals dim V_i.
    """
    _, nums, _ = _molien_sums(action, table)
    return limit_at_one(RatFunc(nums[i], nums[0]))


# -- verification checks --------------------------------------------------------------


def invariants_series_check(
    action: LinearCoverAction, h: Subgroup, max_degree: int, table: CharacterTable
) -> dict | None:
    """Degree-by-degree check dim (B_d)^H = sum_i m_{i,d} dim V_i^H.

    The left side is `reps.fixed_dim` (a true integer: an orbit count on a
    monomial piece, an averaging-projector rank otherwise); the series side
    is reduced mod p while the projector-multiplicity side is exact, and
    both must agree.  Returns None when they do through max_degree, and
    otherwise the witness {"subgroup", "degree"} of the first degree where
    they do not.
    """
    p = table.p
    fixed_dims = [restrict_invariant_dim(table, table.values[i], h) for i in range(table.num_irreps)]
    coeffs = _series_prefixes(action, max_degree, table)
    for d in range(max_degree + 1):
        lhs = fixed_dim(action.piece(d), h)
        mults = action.piece_decomposition(d, table).multiplicities
        rhs_mod = sum(coeffs[i][d] * fixed_dims[i] for i in range(table.num_irreps)) % p
        rhs_int = sum(mults[i] * fixed_dims[i] for i in range(table.num_irreps))
        if lhs % p != rhs_mod or lhs != rhs_int:
            return {"subgroup": list(h.element_indices), "degree": d}
    return None


def product_structure_check(
    action: LinearCoverAction, i: int, j: int, a: int, b: int, table: CharacterTable
) -> dict | None:
    """Multiply the i-component of B_a by the j-component of B_b and test
    that every projection onto an irreducible absent from V_i tensor V_j
    vanishes.

    The products W come from `_component_products` for the one i, and
    `_hits_forbidden` tests them against one projector P_F, the group sum
    of e_F, the sum of the central idempotents e_l of the forbidden l: P_F
    is the sum of those P_l, whose images are independent, so P_F W^T = 0
    exactly when every forbidden P_l W^T = 0.  Nothing is built when no
    component is forbidden or a factor is empty.  `pushforward_report`
    runs the same kernel for every i at once and calls this check only to
    build the witness of the first failing tuple.
    The check fails at the first forbidden l, in ascending order, with
    P_l W^T nonzero, and only then builds the P_l up to it, for its witness
    {"component": l, "degree": a + b, "vector"}: the first nonzero row of
    row_space(W) @ P_l^T.  Returns None when the check passes.
    """
    p = table.p
    required = _forbidden(action, i, j, table)
    prods = _component_products(action, j, a, b, table, [i]).get(i) if required else None
    if prods is None or not _hits_forbidden(action, prods, a + b, required, table):
        return None
    rep = action.piece(a + b)
    span = linalg.row_space(prods, p)
    # P_F is the sum of the forbidden P_l, so one of them is nonzero here
    for l in required:
        proj = linalg.matmul(span, isotypic_projector(rep, l, table).T, p)
        rows = np.nonzero(proj.any(axis=1))[0]
        if rows.size:
            return {"component": l, "degree": a + b, "vector": proj[rows[0]].tolist()}


def _forbidden(action: LinearCoverAction, i: int, j: int, table: CharacterTable) -> tuple[int, ...]:
    """The irreducibles absent from V_i tensor V_j, ascending."""
    tens = _tensor_mults(action, table)
    return tuple(l for l in range(table.num_irreps) if tens[i, j, l] == 0)


def _component_products(
    action: LinearCoverAction, j: int, a: int, b: int, table: CharacterTable, irreps
) -> dict[int, np.ndarray]:
    """The products W of the i-component of B_a by the j-component of B_b,
    row (s, t) the product of row s of the one and row t of the other, for
    each i in `irreps` whose component is not empty; none when the
    j-component is empty.

    They are one matrix product of the rows of all those components,
    stacked, with the rows of the j-component shifted by each monomial
    x^alpha of B_a (`_shifted`), which is built once for all of them.
    """
    comps_a = action.piece_decomposition(a, table).components
    comp_b = action.piece_decomposition(b, table).components[j]
    irreps = [i for i in irreps if comps_a[i].shape[0]]
    if not irreps or comp_b.shape[0] == 0:
        return {}
    dim_a, dim_ab = action.piece(a).dim, action.piece(a + b).dim
    shifted = _shifted(comp_b, action.multiplication_map(a, b).reshape(dim_a, -1), dim_ab)
    prods = linalg.matmul(np.concatenate([comps_a[i] for i in irreps]), shifted.reshape(dim_a, -1), table.p)
    out, start = {}, 0
    for i in irreps:
        rows = comps_a[i].shape[0]
        out[i] = prods[start : start + rows].reshape(-1, dim_ab)
        start += rows
    return out


def _shifted(comp_b: np.ndarray, target: np.ndarray, dim_ab: int) -> np.ndarray:
    """shifted[alpha, t], x^alpha times row t of `comp_b`, in B_{a+b}:
    `target` is the multiplication map of degrees a and b as a dim B_a x
    dim B_b array.  Multiplying by x^alpha is injective, so the targets
    within a row are distinct."""
    dim_a, rows = target.shape[0], comp_b.shape[0]
    shifted = np.zeros((dim_a, rows, dim_ab), dtype=np.int64)
    shifted[np.arange(dim_a)[:, None, None], np.arange(rows)[:, None], target[:, None]] = comp_b
    return shifted


def _hits_forbidden(
    action: LinearCoverAction, prods: np.ndarray, d: int, forbidden: tuple[int, ...], table: CharacterTable
) -> bool:
    """Whether P_F W^T is nonzero, for the products W (rows in B_d) and
    the forbidden set F."""
    return bool(linalg.matmul(prods, _forbidden_projector(action, d, forbidden, table).T, table.p).any())


def _product_failures(action: LinearCoverAction, table: CharacterTable) -> list[tuple[int, int, int, int]]:
    """Every (i, j, a, b), 1 <= a <= b <= PRODUCT_DEGREE, at which
    `product_structure_check` fails, in no particular order.

    One `_component_products` per (j, a, b) gives the products of every i
    with work.  At a == b the products of i by j are those of j by i, in
    another row order, since `_products` maps (alpha, beta) and (beta,
    alpha) to one monomial.  So the unordered pair {i, j} is multiplied
    once, at i <= j, and tested against the forbidden set of each ordered
    pair, once when the two sets are equal (always, for a real table).
    """
    r = table.num_irreps
    forbidden = {(i, j): _forbidden(action, i, j, table) for i in range(r) for j in range(r)}
    failures = []
    for j in range(r):
        for a in range(1, PRODUCT_DEGREE + 1):
            for b in range(a, PRODUCT_DEGREE + 1):
                # at a == b, i by j are the products of j by i: one kernel, at i <= j
                pairs = {i: {(i, j), (j, i)} if a == b else {(i, j)} for i in range(r) if a < b or i <= j}
                work = [i for i in pairs if any(forbidden[pair] for pair in pairs[i])]
                for i, prods in _component_products(action, j, a, b, table, work).items():
                    for f in {forbidden[pair] for pair in pairs[i]} - {()}:
                        if _hits_forbidden(action, prods, a + b, f, table):
                            failures += [(*pair, a, b) for pair in pairs[i] if forbidden[pair] == f]
    return failures


def _forbidden_projector(
    action: LinearCoverAction, d: int, forbidden: tuple[int, ...], table: CharacterTable
) -> np.ndarray:
    """P_F on the degree-d piece, the group sum of the sum of the central
    idempotents of `forbidden`, memoized on the action by (d, forbidden)."""
    key = (d, forbidden)
    if key not in action._forbidden_projectors:
        e_forbidden = np.sum([table.idempotents()[l] for l in forbidden], axis=0)[None] % table.p
        action._forbidden_projectors[key] = _group_sum(action.piece(d), slice(None), e_forbidden)[0]
    return action._forbidden_projectors[key]


def _tensor_mults(action: LinearCoverAction, table: CharacterTable) -> np.ndarray:
    """`tensor_multiplicities(table)`, memoized on the action."""
    _require_own_table(action, table)
    if action._tensors is None:
        action._tensors = tensor_multiplicities(table)
    return action._tensors


# -- full report -----------------------------------------------------------------------


@dataclass
class VerificationOutcome:
    """One named check of a report, which fails exactly when it has a witness."""

    check: str
    anchor: str
    witness: dict | None

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_dict(self) -> dict:
        d = {"check": self.check, "anchor": self.anchor, "pass": self.passed}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class Report:
    """The JSON-ready data of one report and its verification outcomes."""

    data: dict
    outcomes: list[VerificationOutcome]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def to_dict(self) -> dict:
        return {**self.data, "outcomes": [o.to_dict() for o in self.outcomes], "pass": self.passed}


def cyclic_subgroups(group: Group) -> list[Subgroup]:
    seen = {}
    for g in range(group.order):
        h = cyclic_subgroup(group, g)
        seen.setdefault(h.element_indices, h)
    return sorted(seen.values(), key=lambda s: (s.order, s.element_indices))


def pushforward_report(action: LinearCoverAction, max_degree: int, table: CharacterTable) -> Report:
    """Run the full structure verification for one cover action.

    Checks: every generic multiplicity equals the irreducible dimension
    (regular type at the generic point), Molien coefficients match
    projector multiplicities mod p through max(max_degree, CHECK_DEGREE)
    (the report's multiplicities stop at max_degree), the fixed-ring
    dimension count holds for every cyclic subgroup, and component
    products respect the tensor vanishing pattern through PRODUCT_DEGREE.
    A graded piece or multiplication map above `reps.MAX_SYSTEM_CELLS`
    raises SystemTooLarge.
    """
    group, p, r = action.group, action.p, table.num_irreps
    degrees = list(table.degrees)
    generic = [generic_multiplicity(action, i, table) for i in range(r)]
    generic_witness = None if generic == degrees else {"generic": generic, "degrees": degrees}

    top = max(max_degree, CHECK_DEGREE)
    prefixes = _series_prefixes(action, top, table)
    mults = [action.piece_decomposition(d, table).multiplicities for d in range(top + 1)]
    series_witness = next(
        ({"degree": d, "irrep": i} for d in range(top + 1) for i in range(r) if mults[d][i] % p != prefixes[i][d]),
        None,
    )

    inv_checks = (invariants_series_check(action, h, max_degree, table) for h in cyclic_subgroups(group))
    inv_witness = next((w for w in inv_checks if w is not None), None)
    failures = _product_failures(action, table)
    prod_witness = None
    if failures:
        i, j, a, b = min(failures)
        prod_witness = {"i": i, "j": j, "a": a, "b": b, "detail": product_structure_check(action, i, j, a, b, table)}

    outcomes = [
        VerificationOutcome(
            "cover.generic_rank",
            "rank of each multiplicity module equals the irreducible dimension",
            generic_witness,
        ),
        VerificationOutcome(
            "cover.series_vs_projectors",
            "series coefficients equal projector multiplicities (mod p)",
            series_witness,
        ),
        VerificationOutcome(
            "cover.invariants", "fixed-ring dimensions match the weighted multiplicity count", inv_witness
        ),
        VerificationOutcome(
            "cover.product_pattern", "component products vanish outside the tensor decomposition", prod_witness
        ),
    ]
    data = {
        "action": action.to_dict(),
        "degrees": degrees,
        "max_degree": max_degree,
        "generic_multiplicities": generic,
        "multiplicities_by_degree": [list(m) for m in mults[: max_degree + 1]],
        "invariant_series": molien_multiplicity_series(action, 0, table).to_dict(),
    }
    return Report(data, outcomes)
