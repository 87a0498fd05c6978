"""Finite groups realized by permutations.

Groups are built as the closure of permutation generators, breadth-first
from the identity with generators applied in input order.  That discovery
order is the canonical element order: every downstream artifact
(idempotent coefficient vectors, projector bases, report layouts) indexes
elements by it, so it is part of the contract, not an implementation
detail.

The closure works on arrays of permutation images, one breadth-first
level per gather, and fills the multiplication table row by row from the left
multiplications by the generators; conjugacy classes, element orders (one
walk of all powers, kept on the group) and cyclic subgroups are then
gathers on that table.  `Permutation` objects are the input only: the
group keeps the images of its elements as one array, `Group.images`.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import ClosureExceedsCap, InvalidPermutation

DEFAULT_CAP = 5000


class Permutation:
    """A bijection of {0, ..., degree-1}, stored by its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        try:  # ints and numpy ints; no float or string is truncated to one
            images = tuple(operator.index(i) for i in images)
        except TypeError:
            raise InvalidPermutation(f"images {images!r} are not all integers") from None
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

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.images})"


class Group:
    """Finite group with explicit multiplication and inverse tables.

    Row k of `images` holds the images of element k on 0..degree-1, and
    element 0 is the identity.  `mult[a, b]` is the index of the product
    of elements a and b; `generator_indices[j]` is the index of generator
    j, so its images are `images[generator_indices[j]]`; `words[k]`
    records how element k was first discovered, as a (parent_index,
    generator_position) pair (None for the identity), so that any map
    defined on generators extends along these words deterministically.
    """

    def __init__(self, images, mult, inv, generator_indices, words, name="custom"):
        self.images: np.ndarray = images
        self.order: int = images.shape[0]
        self.mult: np.ndarray = mult
        self.inv: tuple[int, ...] = tuple(inv)
        self.generator_indices: tuple[int, ...] = tuple(generator_indices)
        self.words: tuple = tuple(words)
        self.name = name

    @property
    def degree(self) -> int:
        return self.images.shape[1]

    def element_order(self, k: int) -> int:
        return self._orders[k]

    @functools.cached_property
    def _orders(self) -> tuple[int, ...]:
        """The order of every element, from one walk of all powers on the
        table: step t takes g^t to g^(t+1) = mult[g^t, g] by one gather,
        and an element leaves at the first t with g^t = 1, its order."""
        elems = np.arange(self.order)
        power = elems.copy()  # g^t for each g in elems
        orders = np.empty(self.order, dtype=np.int64)
        t = 1
        while elems.size:
            done = power == 0
            orders[elems[done]] = t
            elems, power = elems[~done], power[~done]
            power = self.mult[power, elems]
            t += 1
        return tuple(orders.tolist())

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

    @property
    def order(self) -> int:
        return len(self.element_indices)


def build_group(generators, name: str = "custom") -> Group:
    """Close a set of permutation generators into a Group.

    Elements are discovered breadth-first from the identity, right-
    multiplying by the generators in input order; a closure above
    DEFAULT_CAP elements raises ClosureExceedsCap.  No generators give
    the trivial group on one point.

    The search runs one BFS level at a time on rows of images.  The
    products e * g_j of a whole level are one gather, `level[:, gens]`,
    in (element, generator) row-major order, and a dict on their image
    bytes keeps the first occurrence of each new element in that order.
    Every element found while level L is scanned lies in level L + 1, so
    `images`, `words` and `generator_indices` come out exactly as a
    search that multiplies one element by one generator at a time finds
    them.  Products of validated permutations are permutations, so only
    the generators are validated.  The group keeps the search's image
    array, read-only, as `Group.images`: its dtype is the narrowest
    unsigned type that holds a point, and no `Permutation` is made.
    """
    generators = list(generators)
    deg = generators[0].degree if generators else 1
    if any(g.degree != deg for g in generators):
        raise InvalidPermutation("generators must share one degree")

    images, words, left = _breadth_first(generators, deg)
    images.setflags(write=False)

    # Row k of the table follows the word (a, j) of element k, with g_k the
    # element of index k: g_k * x = g_a * (generators[j] * x).
    n = images.shape[0]
    mult = np.empty((n, n), dtype=np.int64)
    mult[0] = np.arange(n)
    for k, (a, j) in enumerate(words[1:], start=1):
        mult[a].take(left[j], out=mult[k])
    inv = np.argmin(mult, axis=1)  # the identity 0 occurs once in each row
    return Group(images, mult, inv.tolist(), left[:, 0].tolist(), words, name=name)


def _breadth_first(generators, deg: int):
    """The closure search of `build_group`, one level at a time.

    Returns the images of the elements (one row each), the words, and the
    left multiplications: left[j, k] is the index of generators[j] times
    element k.  The dict of image bytes that finds each index stays here.
    """
    r = len(generators)
    # the smallest unsigned type that holds a point keeps the keys short
    gens = np.array([g.images for g in generators], dtype=np.min_scalar_type(max(deg - 1, 0))).reshape(r, deg)
    level = np.arange(deg, dtype=gens.dtype)[None, :]
    index = {level.tobytes(): 0}
    levels, words = [level], [None]
    first = 0  # index of the first element of `level`
    while level.shape[0]:
        cand = level[:, gens]  # cand[a, j] = images of g_(first + a) * generators[j]
        fresh = []
        for c, key in enumerate(_row_bytes(cand)):
            if key not in index:
                if len(index) >= DEFAULT_CAP:
                    raise ClosureExceedsCap(f"closure exceeded cap of {DEFAULT_CAP} elements")
                index[key] = len(index)
                fresh.append(c)
                a, j = divmod(c, r)
                words.append((first + a, j))
        first += level.shape[0]
        level = cand.reshape(level.shape[0] * r, deg)[fresh]
        levels.append(level)
    images = np.concatenate(levels)
    left = np.array([[index[key] for key in _row_bytes(g[images])] for g in gens], dtype=np.int64)
    return images, words, left.reshape(r, len(index))


def _row_bytes(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of images along the last axis."""
    raw, width = rows.tobytes(), rows.itemsize * rows.shape[-1]
    return [raw[c * width : (c + 1) * width] for c in range(math.prod(rows.shape[:-1]))]


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
    return math.lcm(*set(group._orders))


def powers(group: Group, g: int) -> list[int]:
    """g^0, g^1, ..., g^(ord(g) - 1), one walk of ord(g) - 1 products on
    the table: the one power walk of a single element."""
    out = [0]
    for _ in range(group.element_order(g) - 1):
        out.append(int(group.mult[out[-1], g]))
    return out


def cyclic_subgroup(group: Group, g: int) -> Subgroup:
    """The subgroup generated by element g: its powers up to its order."""
    return Subgroup(tuple(sorted(powers(group, g))))


def power_class_map(group: Group, classes: ConjugacyClasses, k: int):
    """Class-index map c -> class of g^k for g in class c (k >= 0): entry
    k mod ord(g) of the `powers` of g."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    out = []
    for r in classes.reps:
        walk = powers(group, r)
        out.append(classes.class_of[walk[k % len(walk)]])
    return tuple(out)


# -- construction from text and builtin names ---------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(line: str) -> Permutation:
    """Parse one permutation in cycle notation, e.g. "(0 1)(2 3)".

    "()" or an empty line denotes the identity.  The degree is one more
    than the largest point, so a one-point cycle such as "(4)" pads it.
    Cycles are composed left to right with the rightmost applied first
    (irrelevant for the usual disjoint-cycle form).
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
    deg = max(maxpt + 1, 1)
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
    return build_group(parse_generator_text(text), name=name)


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
        return build_group(gens, name=label.upper())
    if label.upper() == "Q8":
        return build_group(_Q8_GENS, name="Q8")
    if label.upper() == "A4":
        return build_group(_A4_GENS, name="A4")
    raise ValueError(f"unknown builtin group {name!r}")
