"""Finite groups realized by permutations.

Groups are built as the closure of permutation generators, breadth-first
from the identity with generators applied in input order.  That discovery
order is the canonical element order: every downstream artifact
(idempotent coefficient vectors, projector bases, report layouts) indexes
elements by it, so it is part of the contract, not an implementation
detail.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ClosureExceedsCap, InvalidPermutation

DEFAULT_CAP = 5000


class Permutation:
    """A bijection of {0, ..., degree-1}, stored by its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise InvalidPermutation(f"images {images} are not a bijection on 0..{n - 1}")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    def __mul__(self, other: "Permutation") -> "Permutation":
        # Composition convention: (a * b)(x) = a(b(x)), matching the
        # product of the corresponding permutation matrices.
        if self.degree != other.degree:
            raise InvalidPermutation("cannot compose permutations of different degree")
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self.cycles() else 1

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.images})"


class Group:
    """Finite group with explicit multiplication and inverse tables.

    Element 0 is the identity.  `mult[a, b]` is the index of
    elements[a] * elements[b]; `word[k]` records how element k was first
    discovered, as a (parent_index, generator_position) pair (None for the
    identity), so that any map defined on generators extends along these
    words deterministically.
    """

    def __init__(self, elements, mult, inv, generators, generator_indices, words, name="custom"):
        self.elements: tuple[Permutation, ...] = tuple(elements)
        self.order: int = len(self.elements)
        self.mult: np.ndarray = mult
        self.inv: tuple[int, ...] = tuple(inv)
        self.generators: tuple[Permutation, ...] = tuple(generators)
        self.generator_indices: tuple[int, ...] = tuple(generator_indices)
        self.words: tuple = tuple(words)
        self.name = name

    @property
    def degree(self) -> int:
        return self.elements[0].degree

    def element_order(self, k: int) -> int:
        return self.elements[k].order()

    def word_string(self, k: int) -> str:
        """Generator word (by position) along which element k was reached."""
        path = []
        while self.words[k] is not None:
            parent, gen_pos = self.words[k]
            path.append(gen_pos)
            k = parent
        return "g" + ".g".join(str(j) for j in reversed(path)) if path else "e"

    def __repr__(self) -> str:
        return f"Group({self.name}, order={self.order}, degree={self.degree})"


@dataclass(frozen=True)
class ConjugacyClasses:
    """Partition of element indices into conjugation orbits.

    Classes are ordered by their minimum element index, so the identity
    class is always class 0 and `reps` lists that minimum element.
    """

    class_of: tuple[int, ...]
    reps: tuple[int, ...]
    sizes: tuple[int, ...]
    inverse_class: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.reps)


@dataclass(frozen=True)
class Subgroup:
    element_indices: tuple[int, ...]
    order: int


def build_group(generators, cap: int = DEFAULT_CAP, degree: int | None = None, name: str = "custom") -> Group:
    """Close a set of permutation generators into a Group.

    Elements are discovered breadth-first from the identity, right-
    multiplying by the generators in input order.  `degree` is only
    consulted when no generators are given.
    """
    generators = list(generators)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if generators:
        deg = generators[0].degree
        if any(g.degree != deg for g in generators):
            raise InvalidPermutation("generators must share one degree")
    else:
        deg = degree if degree is not None else 1

    ident = Permutation.identity(deg)
    elements = [ident]
    index = {ident: 0}
    words: list = [None]
    right: list[list[int]] = []  # right[a][j] = index of elements[a] * generators[j]
    pos = 0
    while pos < len(elements):
        cur = elements[pos]
        row = []
        for gen_pos, g in enumerate(generators):
            nxt = cur * g
            k = index.get(nxt)
            if k is None:
                if len(elements) >= cap:
                    raise ClosureExceedsCap(f"closure exceeded cap of {cap} elements")
                k = index[nxt] = len(elements)
                elements.append(nxt)
                words.append((pos, gen_pos))
            row.append(k)
        right.append(row)
        pos += 1

    # Column k of the table follows the word of element k:
    # x * elements[k] = (x * elements[parent]) * generators[gen_pos].
    n = len(elements)
    right_tab = np.array(right, dtype=np.int64).reshape(n, len(generators))
    mult = np.empty((n, n), dtype=np.int64)
    mult[:, 0] = np.arange(n)
    for k in range(1, n):
        parent, gen_pos = words[k]
        mult[:, k] = right_tab[mult[:, parent], gen_pos]
    inv = np.argmin(mult, axis=1)  # the identity 0 occurs once in each row
    gen_idx = [index[g] for g in generators]
    return Group(elements, mult, inv.tolist(), generators, gen_idx, words, name=name)


def conjugacy_classes(group: Group) -> ConjugacyClasses:
    """Conjugation orbits, class representatives chosen as minimum indices."""
    n = group.order
    mult = group.mult
    inv = np.asarray(group.inv, dtype=np.int64)
    class_of = np.full(n, -1, dtype=np.int64)
    reps = []
    sizes = []
    for g in range(n):
        if class_of[g] != -1:
            continue
        conj = mult[mult[:, g], inv]  # h * g * h^-1 over all h
        class_of[conj] = len(reps)
        reps.append(g)
        sizes.append(n // int(np.count_nonzero(conj == g)))  # |G| / |centralizer|
    class_of = tuple(class_of.tolist())
    inverse_class = tuple(class_of[group.inv[r]] for r in reps)
    return ConjugacyClasses(class_of, tuple(reps), tuple(sizes), inverse_class)


def exponent(group: Group) -> int:
    """Least common multiple of the element orders."""
    return math.lcm(*(g.order() for g in group.elements))


def subgroup_closure(group: Group, gens) -> Subgroup:
    """Smallest subgroup containing the given element indices."""
    mult = group.mult
    members = {0}
    frontier = [0]
    gens = [int(g) for g in gens]
    while frontier:
        h = frontier.pop()
        for g in gens:
            k = int(mult[h, g])
            if k not in members:
                members.add(k)
                frontier.append(k)
    elems = tuple(sorted(members))
    return Subgroup(elems, len(elems))


def all_subgroups(group: Group) -> list[Subgroup]:
    """Every subgroup, found by closing known subgroups with one new element.

    Intended for desk-scale groups; cost grows with the subgroup lattice.
    """
    seen = {}
    trivial = subgroup_closure(group, [])
    seen[trivial.element_indices] = trivial
    frontier = [trivial]
    while frontier:
        h = frontier.pop()
        for g in range(1, group.order):
            if g in h.element_indices:
                continue
            k = subgroup_closure(group, list(h.element_indices) + [g])
            if k.element_indices not in seen:
                seen[k.element_indices] = k
                frontier.append(k)
    return sorted(seen.values(), key=lambda s: (s.order, s.element_indices))


def power_class_map(group: Group, classes: ConjugacyClasses, k: int):
    """Class-index map c -> class of g^k for g in class c (k >= 0)."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    out = []
    for r in classes.reps:
        acc = 0
        for _ in range(k):
            acc = int(group.mult[acc, r])
        out.append(classes.class_of[acc])
    return tuple(out)


# -- construction from text and builtin names ---------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(line: str, degree: int | None = None) -> Permutation:
    """Parse one permutation in cycle notation, e.g. "(0 1)(2 3)".

    "()" or an empty line denotes the identity.  Cycles are composed left
    to right with the rightmost applied first (irrelevant for the usual
    disjoint-cycle form).
    """
    stripped = _CYCLE_RE.sub("", line).strip()
    if stripped:
        raise InvalidPermutation(f"unexpected text {stripped!r} in cycle notation")
    cycles = []
    maxpt = -1
    for body in _CYCLE_RE.findall(line):
        pts = [int(tok) for tok in body.replace(",", " ").split()]
        if len(set(pts)) != len(pts):
            raise InvalidPermutation(f"repeated point in cycle ({body})")
        if any(x < 0 for x in pts):
            raise InvalidPermutation("points must be nonnegative")
        if pts:
            maxpt = max(maxpt, max(pts))
            cycles.append(pts)
    deg = degree if degree is not None else maxpt + 1
    deg = max(deg, maxpt + 1, 1)
    perm = Permutation.identity(deg)
    for pts in reversed(cycles):
        images = list(range(deg))
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
        perm = perm * Permutation(images)
    return perm


def parse_generator_text(text: str) -> list[Permutation]:
    """One generator per non-empty line, all padded to a common degree."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    perms = [parse_cycles(ln) for ln in lines]
    if not perms:
        return []
    deg = max(p.degree for p in perms)
    return [Permutation(tuple(p.images) + tuple(range(p.degree, deg))) for p in perms]


def group_from_text(text: str, name: str = "custom") -> Group:
    return build_group(parse_generator_text(text), degree=1, name=name)


def _cycle_perm(n: int) -> Permutation:
    return Permutation(tuple(range(1, n)) + (0,))


_Q8_GENS = (
    Permutation((1, 2, 3, 0, 6, 7, 5, 4)),  # left multiplication by i on 1,i,-1,-i,j,-j,k,-k
    Permutation((4, 7, 5, 6, 2, 0, 1, 3)),  # left multiplication by j
)

_A4_GENS = (
    Permutation((1, 2, 0, 3)),  # (0 1 2)
    Permutation((1, 0, 3, 2)),  # (0 1)(2 3)
)


def group_from_name(name: str) -> Group:
    """Builtin groups: S<n>, C<n>, D<n> (order 2n), Q8, A4."""
    label = name.strip()
    m = re.fullmatch(r"([SCDscd])(\d+)", label)
    if m:
        kind, n = m.group(1).upper(), int(m.group(2))
        if n < 1:
            raise ValueError(f"bad group size in {name!r}")
        if kind == "S":
            if n == 1:
                gens = []
            elif n == 2:
                gens = [Permutation((1, 0))]
            else:
                gens = [Permutation((1, 0) + tuple(range(2, n))), _cycle_perm(n)]
        elif kind == "C":
            gens = [] if n == 1 else [_cycle_perm(n)]
        else:  # D<n>, order 2n
            if n == 1:
                gens = [Permutation((1, 0))]
            elif n == 2:
                gens = [Permutation((1, 0, 2, 3)), Permutation((0, 1, 3, 2))]
            else:
                gens = [_cycle_perm(n), Permutation(tuple((n - i) % n for i in range(n)))]
        return build_group(gens, degree=1, name=label.upper())
    if label.upper() == "Q8":
        return build_group(_Q8_GENS, name="Q8")
    if label.upper() == "A4":
        return build_group(_A4_GENS, name="A4")
    raise ValueError(f"unknown builtin group {name!r}")
