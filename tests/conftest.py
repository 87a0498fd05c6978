"""Shared fixtures and helpers: cached group/table contexts for the test
groups, the elements and generators of a group as `Permutation` objects,
random invertible matrices and the matrix inverse, the identity
test, the inverse, the cycles and the order of permutations, random
permutation generators and their closure one product at a time, the
closure of element indices into a subgroup and every subgroup of a group,
the cover's product pass on full components
`full_component_product_failures` (the oracle of its pass on G-module
generators), and the functors on representations and characters that
only tests take (direct sums, duals, tensor products, symmetric powers,
exterior squares),
the loop oracle `inner_mult` of the character inner product, the loop
oracle `convolve` of the product in F_p[G] with the basis elements
`delta_element`, the exponent tuples of the monomials of one degree, and
the Kronecker intertwiner system, the oracle of Hom_G."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import isotypic as iso
from isotypic import cover, linalg
from isotypic.errors import SingularMatrix
from isotypic.cover import _sym_power_step

# Every @given test draws the same examples on every run, so a failure
# replays exactly; max_examples keeps its default.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

TEST_GROUPS = ("C1", "C2", "C3", "C4", "C6", "S3", "D4", "Q8", "A4")
ACCEPTANCE_GROUPS = ("C2", "C3", "C4", "C6", "S3", "D4", "Q8", "A4")


@dataclass
class GroupContext:
    name: str
    group: iso.Group
    classes: iso.ConjugacyClasses
    p: int
    table: iso.CharacterTable

    @property
    def models(self):
        """The models the table keeps, built on first use."""
        return iso.irreducible_models(self.group, self.table)


_CACHE: dict[str, GroupContext] = {}


def matrix_inverse(a, p):
    """The inverse of a square matrix over F_p: the coordinates c of the
    identity rows in the rows of a, c @ a = I.  SingularMatrix otherwise."""
    a = linalg.asmat(a, p)
    n = a.shape[0]
    if a.shape != (n, n):
        raise SingularMatrix("only square matrices are invertible")
    return linalg.coordinates(a, linalg.identity(n), p)


def random_invertible(rng, dim, p):
    """A uniformly drawn invertible dim x dim matrix over F_p."""
    while True:
        m = np.array([[rng.randrange(p) for _ in range(dim)] for _ in range(dim)], dtype=np.int64)
        try:
            matrix_inverse(m, p)
            return m
        except SingularMatrix:
            continue


def _build(name: str) -> GroupContext:
    group = iso.group_from_name(name)
    classes = iso.conjugacy_classes(group)
    p = iso.choose_prime(group)
    table = iso.character_table(group, classes, p)
    return GroupContext(name, group, classes, p, table)


@pytest.fixture(scope="session")
def ctx():
    def get(name: str) -> GroupContext:
        if name not in _CACHE:
            _CACHE[name] = _build(name)
        return _CACHE[name]

    return get


def elements(group) -> tuple[iso.Permutation, ...]:
    """The test oracle's view of a group: one `Permutation` per row of its
    image array, in the canonical element order."""
    return tuple(iso.Permutation(row) for row in group.images)


def generators(group) -> list[iso.Permutation]:
    """The generators in input order, read from the image array."""
    return [iso.Permutation(row) for row in group.images[list(group.generator_indices)]]


def is_identity(perm: iso.Permutation) -> bool:
    return all(i == j for i, j in enumerate(perm.images))


def inverse(perm: iso.Permutation) -> iso.Permutation:
    inv = [0] * perm.degree
    for i, j in enumerate(perm.images):
        inv[j] = i
    return iso.Permutation(inv)


def cycles(perm: iso.Permutation) -> list[tuple[int, ...]]:
    """The cycles of length at least 2, each from its least point, by least point."""
    seen = [False] * perm.degree
    out = []
    for start in range(perm.degree):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = perm.images[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = perm.images[j]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return out


def perm_order(perm: iso.Permutation) -> int:
    """The order of a permutation: the lcm of its cycle lengths."""
    return math.lcm(*(len(c) for c in cycles(perm)))  # lcm() of nothing is 1


@st.composite
def permutation_generators(draw):
    """One to three random permutations of one degree, at most 5."""
    degree = draw(st.integers(1, 5))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return [iso.Permutation(g) for g in gens]


def closure_oracle(generators):
    """The closure one element and one generator at a time, on `Permutation`
    objects: (elements, mult, inv, words, generator_indices) in the
    breadth-first discovery order that `build_group` must reproduce."""
    generators = list(generators)
    ident = iso.Permutation.identity(generators[0].degree if generators else 1)
    elements, index, words, right = [ident], {ident: 0}, [None], []
    pos = 0
    while pos < len(elements):
        row = []
        for gen_pos, g in enumerate(generators):
            nxt = elements[pos] * g
            if nxt not in index:
                index[nxt] = len(elements)
                elements.append(nxt)
                words.append((pos, gen_pos))
            row.append(index[nxt])
        right.append(row)
        pos += 1
    n = len(elements)
    right = np.array(right, dtype=np.int64).reshape(n, len(generators))
    mult = np.empty((n, n), dtype=np.int64)
    mult[:, 0] = np.arange(n)
    for k in range(1, n):
        parent, gen_pos = words[k]
        mult[:, k] = right[mult[:, parent], gen_pos]
    inv = [int(np.argmin(row)) for row in mult]
    return elements, mult, inv, words, [index[g] for g in generators]


def subgroup_closure(group, gens) -> iso.Subgroup:
    """Smallest subgroup containing the given element indices, by a search
    on the multiplication table."""
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
    return iso.Subgroup(tuple(sorted(members)))


def all_subgroups(group):
    """Every subgroup, found by closing known subgroups with one new element,
    sorted by (order, elements)."""
    seen = {}
    trivial = subgroup_closure(group, [])
    seen[trivial.element_indices] = trivial
    frontier = [trivial]
    while frontier:
        h = frontier.pop()
        for g in range(1, group.order):
            if g not in h.element_indices:
                k = subgroup_closure(group, list(h.element_indices) + [g])
                if k.element_indices not in seen:
                    seen[k.element_indices] = k
                    frontier.append(k)
    return sorted(seen.values(), key=lambda s: (s.order, s.element_indices))


def forbid(monkeypatch, r, i, j, *forbidden):
    """Make `cover.product_structure_check` forbid exactly the components
    `forbidden` of V_i (x) V_j, by tensor multiplicities that are 1 elsewhere."""
    tens = np.ones((r, r, r), dtype=np.int64)
    tens[i, j, list(forbidden)] = 0
    monkeypatch.setattr(cover, "_tensor_mults", lambda action, table: tens)


def full_component_product_failures(action, table):
    """The failing (i, j, a, b) of the cover's product pass, with every row
    of each component of B_a multiplied: the pass before it took G-module
    generators, the oracle of `cover._product_failures`.  Sorted."""
    r = table.num_irreps
    forbidden = cover._forbidden_sets(action, table)
    failures = []
    for j in range(r):
        for a in range(1, cover.PRODUCT_DEGREE + 1):
            comps_a = action.piece_decomposition(a, table).components
            for b in range(a, cover.PRODUCT_DEGREE + 1):
                pairs = {i: {(i, j), (j, i)} if a == b else {(i, j)} for i in range(r) if a < b or i <= j}
                work = {i: comps_a[i] for i in pairs if any(forbidden[pair] for pair in pairs[i])}
                for i, prods in cover._component_products(action, j, a, b, table, work).items():
                    for f in {forbidden[pair] for pair in pairs[i]} - {()}:
                        if cover._hits_forbidden(action, prods, a + b, f, table):
                            failures += [(*pair, a, b) for pair in pairs[i] if forbidden[pair] == f]
    return sorted(failures)


# -- functors: representations ----------------------------------------------------


def block_diagonal(*stacks):
    """The block-diagonal matrices of equally long stacks of square matrices."""
    dim = sum(s.shape[1] for s in stacks)
    out = np.zeros((len(stacks[0]), dim, dim), dtype=np.int64)
    at = 0
    for s in stacks:
        out[:, at : at + s.shape[1], at : at + s.shape[1]] = s
        at += s.shape[1]
    return out


def direct_sum(*reps):
    """The direct sum of representations of one group, block diagonal."""
    return iso.MatrixRep(reps[0].group, reps[0].p, block_diagonal(*(r.mats for r in reps)))


def tensor(a, b):
    """The tensor product on the lexicographic basis e_i (x) f_j."""
    mats = np.stack([np.kron(x, y) for x, y in zip(a.mats, b.mats)]) % a.p
    return iso.MatrixRep(a.group, a.p, mats)


def sym_power(rep, k):
    """Sym^k on the lexicographic multiset basis, one `_sym_power_step` at a
    time from the trivial representation."""
    out = iso.trivial_rep(rep.group, rep.p)
    for d in range(1, k + 1):
        out = _sym_power_step(out, rep, d)
    return out


def exponents(n, d):
    """The exponent tuples of the degree-d monomials in n variables, in
    descending lex order (graded lex within one degree, x_0^d first)."""
    if n == 1:
        return [(d,)]
    return [(e, *rest) for e in range(d, -1, -1) for rest in exponents(n - 1, d - e)]


def ext_square(rep):
    """Lambda^2 on the pairs a < b in lexicographic order, from 2 x 2 minors."""
    a, b = np.triu_indices(rep.dim, 1)
    m = rep.mats
    minors = m[:, a[:, None], a] * m[:, b[:, None], b] - m[:, a[:, None], b] * m[:, b[:, None], a]
    return iso.MatrixRep(rep.group, rep.p, minors % rep.p)


# -- the Kronecker oracle of Hom_G -----------------------------------------------


def intertwiner_system(r1, r2):
    """The linear system whose null space is {T : T rho1(g) = rho2(g) T},
    T of shape (dim2, dim1) flattened row-major, one block of equations per
    generator: (#generators * dim1 * dim2) x (dim1 * dim2) cells."""
    d1, d2 = r1.dim, r2.dim
    blocks = [
        (np.kron(linalg.identity(d2), r1.mats[g].T) - np.kron(r2.mats[g], linalg.identity(d1))) % r1.p
        for g in r1.group.generator_indices
    ]
    return np.concatenate(blocks) if blocks else np.zeros((0, d1 * d2), dtype=np.int64)


def intertwiner_basis(r1, r2):
    """A basis of Hom_G(r1, r2) as (dim2 x dim1) matrices: the null space of
    `intertwiner_system`."""
    return [row.reshape(r2.dim, r1.dim) for row in linalg.nullspace(intertwiner_system(r1, r2), r1.p)]


# -- the group algebra F_p[G], one element at a time -------------------------------


def convolve(a, b, group, p):
    """The product in F_p[G]: (a*b)[gh] accumulates a[g] b[h], one row of
    the multiplication table per nonzero a[g]."""
    out = np.zeros(group.order, dtype=np.int64)
    for g in range(group.order):
        if a[g]:
            out[group.mult[g]] = (out[group.mult[g]] + a[g] * b) % p
    return out


def delta_element(group, g):
    """The basis element g of F_p[G]."""
    v = np.zeros(group.order, dtype=np.int64)
    v[g] = 1
    return v


# -- functors: characters, in closed form ------------------------------------------


def inner_mult(table, w, v):
    """(1/|G|) sum_c |c| w(c) v(c^-1) mod p, one class at a time: the loop
    oracle of the class weights, entry i of `table.weights() @ w` for
    v = chi_i."""
    classes, p = table.classes, table.p
    acc = 0
    for c in range(classes.num_classes):
        acc += classes.sizes[c] * w[c] * v[classes.inverse_class[c]]
    return acc * pow(table.group.order, -1, p) % p


def char_dual(v, classes):
    """The character of the dual: v(g^-1)."""
    return tuple(v[classes.inverse_class[c]] for c in range(classes.num_classes))


def char_tensor(v, w, p):
    """The character of the tensor product: the values multiplied."""
    return tuple(a * b % p for a, b in zip(v, w))


def _power_values(chi, table, k):
    """chi(g^k) per class."""
    return [chi[c] for c in iso.power_class_map(table.group, table.classes, k)]


def char_square(chi, table, sign):
    """The character of Sym^2 (sign 1) or Lambda^2 (sign -1):
    (chi(g)^2 + sign chi(g^2)) / 2, for p > 2."""
    half = pow(2, -1, table.p)
    return tuple((x * x + sign * y) * half % table.p for x, y in zip(chi, _power_values(chi, table, 2)))


def char_sym_cube(chi, table):
    """The character of Sym^3: (chi(g)^3 + 3 chi(g) chi(g^2) + 2 chi(g^3)) / 6,
    for p > 3."""
    sixth = pow(6, -1, table.p)
    two, three = _power_values(chi, table, 2), _power_values(chi, table, 3)
    return tuple((x**3 + 3 * x * y + 2 * z) * sixth % table.p for x, y, z in zip(chi, two, three))
