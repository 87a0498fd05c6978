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
mod p.  The load-bearing cross-check between the two is mandatory at
series construction and pins down the orientation convention.

`builtin_action` builds the named actions (perm, reflection, scalar) that
the command line and the verify-all scenarios use.  `VerificationOutcome`
is the one outcome type of every report: `pushforward_report` returns
them in a `CoverReport`, and the cyclic and verify-all reports reuse it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from . import linalg
from .arith import Poly, RatFunc, limit_at_one, root_of_unity, series_prefix
from .characters import CharacterTable, char_dual, restrict_invariant_dim, tensor_multiplicities
from .errors import NotFaithful, OrientationMismatch
from .groups import Group, Subgroup, subgroup_closure
from .reps import (
    MatrixRep,
    _sym_power_step,
    decompose,
    dual_rep,
    isotypic_projector,
    permutation_rep,
    rep_from_matrices,
    trivial_rep,
)

DEFAULT_CHECK_DEGREE = 6


@dataclass
class GradedPiece:
    """Degree-d monomials (graded-lex order) with the induced action."""

    d: int
    monomials: tuple[tuple[int, ...], ...]
    rep: MatrixRep

    @property
    def dim(self) -> int:
        return len(self.monomials)


class LinearCoverAction:
    """Faithful linear action on polynomial functions in n variables."""

    def __init__(self, group: Group, p: int, rep: MatrixRep, name: str = "custom"):
        self.group = group
        self.p = p
        self.rep = rep
        self.n = rep.dim
        self.name = name
        self._pieces: dict[int, GradedPiece] = {}
        self._piece_data: dict[int, tuple] = {}
        self._projectors: dict[tuple[int, int], np.ndarray] = {}
        self._series: dict[int, RatFunc] = {}
        self._dets: list[Poly] | None = None
        self._mul_maps: dict[tuple[int, int], np.ndarray] = {}
        kernel = [g for g in range(group.order) if np.array_equal(rep.mats[g], rep.mats[0])]
        if len(kernel) != 1:
            raise NotFaithful(
                f"{len(kernel)} elements act trivially; the cover group would be a quotient"
            )

    # -- graded pieces ---------------------------------------------------------

    def piece(self, d: int) -> GradedPiece:
        if d not in self._pieces:
            if d < 0:
                raise ValueError("degree must be nonnegative")
            if d == 0:
                rep = trivial_rep(self.group, self.p)
            elif d == 1:
                # g . x_j = sum_i (rho(g)^-1)[j, i] x_i: the contragredient action
                rep = dual_rep(self.rep)
            else:
                rep = _sym_power_step(self.piece(d - 1).rep, self.piece(1).rep, d)
            # graded-lex: the multiset order is descending lex on exponents
            monos = tuple(
                tuple(m.count(i) for i in range(self.n))
                for m in combinations_with_replacement(range(self.n), d)
            )
            self._pieces[d] = GradedPiece(d, monos, rep)
        return self._pieces[d]

    def piece_decomposition(self, d: int, table: CharacterTable):
        """(components, true multiplicities) of the degree-d piece, memoized."""
        if d not in self._piece_data:
            decomp, rtype = decompose(self.piece(d).rep, table)
            self._piece_data[d] = (decomp, rtype.multiplicities)
        return self._piece_data[d]

    def piece_projector(self, d: int, l: int, table: CharacterTable) -> np.ndarray:
        """Isotypic projector of irreducible l on the degree-d piece, memoized."""
        if (d, l) not in self._projectors:
            self._projectors[d, l] = isotypic_projector(self.piece(d).rep, l, table)
        return self._projectors[d, l]

    def multiplication_map(self, a: int, b: int) -> np.ndarray:
        """0/1 structural matrix (dim B_a * dim B_b) x dim B_{a+b}.

        Row index (alpha, beta) flattened; column = index of alpha + beta.
        """
        key = (a, b)
        if key not in self._mul_maps:
            pa, pb, pab = self.piece(a), self.piece(b), self.piece(a + b)
            index = {m: i for i, m in enumerate(pab.monomials)}
            s = np.zeros((pa.dim * pb.dim, pab.dim), dtype=np.int64)
            for ia, alpha in enumerate(pa.monomials):
                for ib, beta in enumerate(pb.monomials):
                    target = index[tuple(x + y for x, y in zip(alpha, beta))]
                    s[ia * pb.dim + ib, target] = 1
            self._mul_maps[key] = s
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
    return LinearCoverAction(group, p, rep_from_matrices(group, p, gen_mats), name=name)


# -- builtin actions -------------------------------------------------------------


def perm_action(group: Group, p: int) -> LinearCoverAction:
    """The defining permutation matrices acting on one variable per point."""
    return LinearCoverAction(group, p, permutation_rep(group, p), name=f"perm{group.degree}")


def reflection_action(group: Group, p: int) -> LinearCoverAction:
    """Two-dimensional rotation/reflection matrices for a dihedral group.

    Expects the builtin generator order (rotation, reflection): the
    rotation becomes [[0, -1], [1, zeta + zeta^-1]] for zeta of order
    |G|/2, the reflection swaps the two coordinates.
    """
    zeta = root_of_unity(p, group.order // 2)
    trace = (zeta + linalg.inv_mod(zeta, p)) % p
    rot = np.array([[0, -1], [1, trace]], dtype=np.int64) % p
    ref = np.array([[0, 1], [1, 0]], dtype=np.int64)
    return validate_action(group, [rot, ref], p, name="reflection2")


def scalar_action(group: Group, p: int) -> LinearCoverAction:
    """One-variable action of a cyclic group: the generator scales by a
    primitive |G|-th root of unity."""
    zeta = root_of_unity(p, group.order)
    return validate_action(group, [np.array([[zeta]], dtype=np.int64)], p, name="scalar1")


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
        if size and int(size) != 2:
            raise ValueError("reflection actions are two-dimensional")
        return reflection_action(group, p)
    if not re.fullmatch(r"C\d+", group.name):
        raise ValueError("scalar actions are defined for cyclic groups C<n>")
    if size and int(size) != 1:
        raise ValueError("scalar actions are one-dimensional")
    return scalar_action(group, p)


# -- multiplicity series -----------------------------------------------------------


def _inverse_dets(action: LinearCoverAction) -> list[Poly]:
    """det(I - t rho(g)^-1) for every element, memoized."""
    if action._dets is None:
        # det(I - tA) = t^n charpoly_A(1/t): the coefficients reversed
        mats, inv = action.rep.mats, action.group.inv
        action._dets = [
            Poly(action.p, linalg.charpoly(mats[inv[g]], action.p)[::-1])
            for g in range(action.group.order)
        ]
    return action._dets


def molien_multiplicity_series(
    action: LinearCoverAction,
    i: int,
    table: CharacterTable,
    check_degree: int = DEFAULT_CHECK_DEGREE,
) -> RatFunc:
    """Generating function of the multiplicities of irreducible i by degree.

    The finite sum (1/|G|) sum_g chi_i(g^-1) / det(1 - t rho(g)^-1), the
    orientation fixed by the contragredient action on the variables, is
    cross-checked coefficient by coefficient against the projector
    multiplicities up to check_degree.  A disagreement raises
    OrientationMismatch (an implementation bug, not a data error).
    """
    if i in action._series:
        return action._series[i]
    group, classes, p = table.group, table.classes, table.p
    dets = _inverse_dets(action)
    acc = RatFunc.const(p, 0)
    for g in range(group.order):
        chi = table.values[i][classes.class_of[group.inv[g]]]
        acc = acc + RatFunc(Poly.const(p, chi), dets[g])
    series = acc.scale(linalg.inv_mod(group.order % p, p))
    got = series_prefix(series, check_degree)
    expected = [
        action.piece_decomposition(d, table)[1][i] % p for d in range(check_degree + 1)
    ]
    if got != expected:
        raise OrientationMismatch(
            f"series coefficients {got} != projector multiplicities {expected}"
            f" for irreducible {i}"
        )
    action._series[i] = series
    return series


def generic_multiplicity(action: LinearCoverAction, i: int, table: CharacterTable) -> int:
    """Rank of the i-th multiplicity module over the invariant ring.

    Computed as the exact limit at t = 1 of M_i / M_0, clearing the common
    pole; the structure theory predicts this equals dim V_i.
    """
    m_i = molien_multiplicity_series(action, i, table)
    m_0 = molien_multiplicity_series(action, 0, table)
    return limit_at_one(m_i / m_0, 0)


# -- verification checks --------------------------------------------------------------


@dataclass
class InvariantsRow:
    d: int
    fixed_dim: int
    char_side_mod_p: int
    char_side_int: int
    ok: bool


def invariants_series_check(
    action: LinearCoverAction, h: Subgroup, max_degree: int, table: CharacterTable
) -> list[InvariantsRow]:
    """Degree-by-degree check dim (B_d)^H = sum_i m_{i,d} dim V_i^H.

    The left side is an averaging-projector rank (a true integer); the
    series side is reduced mod p while the projector-multiplicity side is
    exact, and both must agree.
    """
    group, classes, p = table.group, table.classes, table.p
    fixed_dims = [
        restrict_invariant_dim(table.values[i], h, group, classes, p)
        for i in range(table.num_irreps)
    ]
    coeffs = [
        series_prefix(molien_multiplicity_series(action, i, table), max_degree)
        for i in range(table.num_irreps)
    ]
    h_inv = linalg.inv_mod(h.order % p, p)
    rows = []
    for d in range(max_degree + 1):
        rep = action.piece(d).rep
        # |H| (p-1) is far below 2^63, so the sum is exact before reducing
        acc = rep.mats[list(h.element_indices)].sum(axis=0) % p
        lhs = linalg.rank(acc * h_inv % p, p)
        mults = action.piece_decomposition(d, table)[1]
        rhs_mod = sum(coeffs[i][d] * fixed_dims[i] for i in range(table.num_irreps)) % p
        rhs_int = sum(mults[i] * fixed_dims[i] for i in range(table.num_irreps))
        rows.append(InvariantsRow(d, lhs, rhs_mod, rhs_int, lhs % p == rhs_mod and lhs == rhs_int))
    return rows


@dataclass
class ProductCheck:
    i: int
    j: int
    a: int
    b: int
    required_zero: tuple[int, ...]
    observed_ranks: tuple[int, ...]
    ok: bool
    witness: dict | None = None


def product_structure_check(
    action: LinearCoverAction, i: int, j: int, a: int, b: int, table: CharacterTable
) -> ProductCheck:
    """Multiply the i-component of B_a by the j-component of B_b and project.

    Every projection onto an irreducible absent from V_i tensor V_j must
    vanish; the observed rank pattern is reported either way.
    """
    p = table.p
    tens = _tensor_mults(action, table)
    comp_a = action.piece_decomposition(a, table)[0].components[i]
    comp_b = action.piece_decomposition(b, table)[0].components[j]
    if comp_a.shape[0] == 0 or comp_b.shape[0] == 0:
        span = np.zeros((0, action.piece(a + b).dim), dtype=np.int64)
    else:
        # entry ((s, t), (alpha, beta)) is comp_a[s, alpha] * comp_b[t, beta]
        outer = (comp_a[:, None, :, None] * comp_b[None, :, None, :]).reshape(
            comp_a.shape[0] * comp_b.shape[0], -1
        ) % p
        span = linalg.row_space(linalg.matmul(outer, action.multiplication_map(a, b), p), p)
    required = tuple(l for l in range(table.num_irreps) if tens[i, j, l] == 0)
    ranks = []
    witness = None
    for l in range(table.num_irreps):
        if span.shape[0] == 0:
            ranks.append(0)
            continue
        proj = linalg.matmul(span, action.piece_projector(a + b, l, table).T, p)
        r = linalg.rank(proj, p)
        ranks.append(r)
        if r and l in required and witness is None:
            witness = {
                "component": l,
                "degree": a + b,
                "vector": proj[np.nonzero(proj.any(axis=1))[0][0]].tolist(),
            }
    ok = all(ranks[l] == 0 for l in required)
    return ProductCheck(i, j, a, b, required, tuple(ranks), ok, witness)


def _tensor_mults(action: LinearCoverAction, table: CharacterTable) -> np.ndarray:
    if not hasattr(action, "_tensor_mults"):
        action._tensor_mults = tensor_multiplicities(table)
    return action._tensor_mults


# -- full report -----------------------------------------------------------------------


@dataclass
class VerificationOutcome:
    """One named check of a report: pass or fail, with a witness on failure."""

    check: str
    anchor: str
    passed: bool
    witness: dict | None = None

    @classmethod
    def from_witness(cls, check: str, anchor: str, witness: dict | None) -> "VerificationOutcome":
        """The outcome of a check that fails exactly when it has a witness."""
        return cls(check, anchor, witness is None, witness)

    def to_dict(self) -> dict:
        d = {"check": self.check, "anchor": self.anchor, "pass": self.passed}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class CoverReport:
    """Everything the cover verification produces, JSON-serializable."""

    action: LinearCoverAction
    table: CharacterTable
    max_degree: int
    generic_mults: list[int]
    degree_table: list[list[int]]
    invariant_series: RatFunc
    outcomes: list[VerificationOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "action": self.action.to_dict(),
            "degrees": list(self.table.degrees),
            "max_degree": self.max_degree,
            "generic_multiplicities": self.generic_mults,
            "multiplicities_by_degree": self.degree_table,
            "invariant_series": self.invariant_series.to_dict(),
            "outcomes": [o.to_dict() for o in self.outcomes],
            "pass": self.passed,
        }


def cyclic_subgroups(group: Group) -> list[Subgroup]:
    seen = {}
    for g in range(group.order):
        h = subgroup_closure(group, [g])
        seen.setdefault(h.element_indices, h)
    return sorted(seen.values(), key=lambda s: (s.order, s.element_indices))


def pushforward_report(
    action: LinearCoverAction,
    max_degree: int,
    table: CharacterTable,
    product_degree: int = 4,
) -> CoverReport:
    """Run the full structure verification for one cover action.

    Checks: every generic multiplicity equals the irreducible dimension
    (regular type at the generic point), Molien coefficients match
    projector multiplicities mod p through max_degree, the fixed-ring
    dimension count holds for every cyclic subgroup, and component
    products respect the tensor vanishing pattern at small degrees.
    """
    group, p, r = action.group, action.p, table.num_irreps
    degrees = list(table.degrees)
    generic = [generic_multiplicity(action, i, table) for i in range(r)]
    generic_witness = None if generic == degrees else {"generic": generic, "degrees": degrees}

    prefixes = [series_prefix(molien_multiplicity_series(action, i, table), max_degree) for i in range(r)]
    degree_table = [list(action.piece_decomposition(d, table)[1]) for d in range(max_degree + 1)]
    series_witness = None
    for d, mults in enumerate(degree_table):
        for i in range(r):
            if mults[i] % p != prefixes[i][d] and series_witness is None:
                series_witness = {"degree": d, "irrep": i}

    inv_witness = None
    for h in cyclic_subgroups(group):
        for row in invariants_series_check(action, h, max_degree, table):
            if not row.ok and inv_witness is None:
                inv_witness = {"subgroup": list(h.element_indices), "degree": row.d}

    prod_witness = None
    for i in range(r):
        for j in range(r):
            for a in range(1, product_degree + 1):
                for b in range(a, product_degree + 1):
                    res = product_structure_check(action, i, j, a, b, table)
                    if not res.ok and prod_witness is None:
                        prod_witness = {"i": i, "j": j, "a": a, "b": b, "detail": res.witness}

    outcomes = [
        VerificationOutcome.from_witness(
            "cover.generic_rank",
            "rank of each multiplicity module equals the irreducible dimension",
            generic_witness,
        ),
        VerificationOutcome.from_witness(
            "cover.series_vs_projectors",
            "series coefficients equal projector multiplicities (mod p)",
            series_witness,
        ),
        VerificationOutcome.from_witness(
            "cover.invariants", "fixed-ring dimensions match the weighted multiplicity count", inv_witness
        ),
        VerificationOutcome.from_witness(
            "cover.product_pattern", "component products vanish outside the tensor decomposition", prod_witness
        ),
    ]
    return CoverReport(
        action,
        table,
        max_degree,
        generic,
        degree_table,
        molien_multiplicity_series(action, 0, table),
        outcomes,
    )
