"""Random permutation groups as a property test.

Each example closes one to three random permutations of one degree, at
most 5 (the S6 models alone take seconds), and checks the character table
and the irreducible models of the group it gets: row orthogonality, the sum
of the squared degrees, the character of every model, dim End_G(perm) as
the sum of the squared multiplicity-space dimensions of the permutation
representation, `hom_dim` against the Kronecker oracle on every pair of
models and from every model to the permutation representation, and
every evaluation isomorphism; and, on the permutation
and regular representations, every isotypic component against the row
space of the dense projector; and the cached element orders and the
cyclic subgroups against the cycle-count order and the closure of one
element.  The derandomized profile of `conftest.py`
draws the same groups on every run.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings

import isotypic as iso
from isotypic import linalg
from isotypic.reps import multiplicity_space

from conftest import elements, intertwiner_basis, perm_order, permutation_generators, subgroup_closure


def permutation_groups():
    return permutation_generators().map(iso.build_group)


@settings(deadline=None)
@given(permutation_groups())
def test_random_group_tables_and_models(group):
    classes = iso.conjugacy_classes(group)
    p = iso.choose_prime(group)
    table = iso.character_table(group, classes, p)
    n = group.order
    for i, chi in enumerate(table.values):
        for j, psi in enumerate(table.values):
            # sum over g of chi_i(g) chi_j(g^-1) is |G| delta_ij
            total = sum(size * chi[c] * psi[classes.inverse_class[c]] for c, size in enumerate(classes.sizes))
            assert total % p == (n % p if i == j else 0), (i, j)
    assert sum(d * d for d in table.degrees) == n
    perm = iso.permutation_rep(group, p)
    models = iso.irreducible_models(group, table)
    mults = []
    for i, model in enumerate(models):
        assert iso.character_of(model, classes) == table.values[i]
        mults.append(len(multiplicity_space(perm, model)))
        ok, _ = iso.evaluation_iso_check(perm, i, table, model)
        assert ok
    assert iso.hom_dim(perm, perm, table) == sum(m * m for m in mults)
    # the table keeps its models, so each call reads them
    for i, a in enumerate(models):
        assert iso.hom_dim(a, perm, table) == len(intertwiner_basis(a, perm)) == mults[i], i
        for j, b in enumerate(models):
            assert iso.hom_dim(a, b, table) == len(intertwiner_basis(a, b)) == (i == j), (i, j)


@settings(deadline=None)
@given(permutation_groups())
def test_random_group_orbit_blocks_match_the_dense_projectors(group):
    # `decompose` reduces the orbit blocks of a monomial rep one at a time:
    # the regular rep is one orbit, a permutation rep of a random group
    # usually several
    p = iso.choose_prime(group)
    table = iso.character_table(group, iso.conjugacy_classes(group), p)
    for rep in (iso.permutation_rep(group, p), iso.regular_rep(group, p)):
        components = iso.decompose(rep, table).components
        for i, got in enumerate(components):
            want = linalg.row_space(iso.isotypic_projector(rep, i, table).T, p)
            assert got.dtype == want.dtype and np.array_equal(got, want), i


@settings(deadline=None)
@given(permutation_groups())
def test_random_group_orders_and_cyclic_subgroups_match_the_oracles(group):
    orders = [group.element_order(k) for k in range(group.order)]
    assert orders == [perm_order(g) for g in elements(group)]
    assert iso.exponent(group) == math.lcm(*orders)
    for g in range(group.order):
        assert iso.cyclic_subgroup(group, g) == subgroup_closure(group, [g])
