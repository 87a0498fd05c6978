"""Acceptance gate: every criterion exact (tolerance zero), desk scale.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them all.
"""

from __future__ import annotations

import functools
import json
import random

import numpy as np
import pytest
from click.testing import CliRunner

import isotypic as iso
from isotypic.characters import convolve, delta_element
from isotypic.cli import main
from isotypic.polymat import as_unit_times_power, factored_invariant_factors

from conftest import ACCEPTANCE_GROUPS, all_subgroups, char_square, direct_sum, ext_square, sym_power, tensor
from test_reps import random_rep

COVER_CASES = (
    ("S3", lambda c: iso.perm_action(c.group, c.p)),
    ("D4", lambda c: iso.reflection_action(c.group, c.p)),
    ("C2", lambda c: iso.scalar_action(c.group, c.p)),
    ("C3", lambda c: iso.scalar_action(c.group, c.p)),
    ("C4", lambda c: iso.scalar_action(c.group, c.p)),
)


@pytest.fixture(scope="session")
def cover_actions(ctx):
    return {name: make(ctx(name)) for name, make in COVER_CASES}


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {title}")
                raise
            print(f"ACCEPTANCE {number:2d} PASS  {title}")

        return wrapper

    return deco


@criterion(1, "character tables: orthogonality, degree sum, idempotent identities")
def test_c01_character_engine_soundness(ctx):
    for name in ACCEPTANCE_GROUPS:
        c = ctx(name)
        p, k = c.p, c.classes.num_classes
        assert sum(d * d for d in c.table.degrees) == c.group.order
        for i in range(k):
            for j in range(k):
                assert iso.inner_mult(c.table, c.table.values[i], c.table.values[j]) == (1 if i == j else 0)
        for ci in range(k):
            for cj in range(k):
                acc = sum(
                    row[ci] * row[c.classes.inverse_class[cj]] for row in c.table.values
                ) % p
                want = c.group.order * pow(c.classes.sizes[ci], p - 2, p) % p if ci == cj else 0
                assert acc == want
        idems = iso.central_idempotents(c.table)
        total = np.zeros(c.group.order, dtype=np.int64)
        for i, e_i in enumerate(idems):
            total = (total + e_i) % p
            for j, e_j in enumerate(idems):
                want = e_i if i == j else np.zeros(c.group.order, dtype=np.int64)
                assert np.array_equal(convolve(e_i, e_j, c.group, p), want)
            for g in range(c.group.order):
                d = delta_element(c.group, g)
                assert np.array_equal(
                    convolve(e_i, d, c.group, p), convolve(d, e_i, c.group, p)
                )
        unit = np.zeros(c.group.order, dtype=np.int64)
        unit[0] = 1
        assert np.array_equal(total, unit)


@criterion(2, "regular representation decomposes with multiplicities = degrees")
def test_c02_regular_rank_law(ctx):
    for name in ACCEPTANCE_GROUPS:
        c = ctx(name)
        reg = iso.regular_rep(c.group, c.p)
        decomp = iso.decompose(reg, c.table)  # raises on any method mismatch
        assert decomp.multiplicities == c.table.degrees
        if name == "S3":
            assert decomp.dims() == (1, 1, 4)


@criterion(3, "type laws: exterior square of the S3 permutation, functor characters")
def test_c03_type_laws(ctx):
    c = ctx("S3")
    lam2 = ext_square(iso.permutation_rep(c.group, c.p))
    decomp = iso.decompose(lam2, c.table)
    assert decomp.multiplicities == (0, 1, 1)  # sign + standard
    for name in ACCEPTANCE_GROUPS:
        cc = ctx(name)
        rng = random.Random(300 + len(name))
        for _ in range(20):
            r1, _ = random_rep(cc, rng, max_total_dim=4)
            r2, _ = random_rep(cc, rng, max_total_dim=4)
            chi1 = iso.character_of(r1, cc.classes)
            chi2 = iso.character_of(r2, cc.classes)
            assert iso.character_of(tensor(r1, r2), cc.classes) == iso.char_tensor(chi1, chi2, cc.p)
            assert iso.character_of(iso.dual_rep(r1), cc.classes) == iso.char_dual(
                chi1, cc.classes
            )
            if cc.p > 2:
                assert iso.character_of(sym_power(r1, 2), cc.classes) == char_square(chi1, cc.table, 1)
                if r1.dim >= 2:
                    assert iso.character_of(ext_square(r1), cc.classes) == char_square(chi1, cc.table, -1)


@criterion(4, "hom dimensions: two methods agree, pure-type formula, cross-type zero")
def test_c04_hom_dims(ctx):
    for name in ACCEPTANCE_GROUPS:
        c = ctx(name)
        rng = random.Random(400 + len(name))
        for _ in range(20):
            r1, m1 = random_rep(c, rng)
            r2, m2 = random_rep(c, rng)
            got = iso.hom_dim(r1, r2, c.table)  # MethodMismatch would raise
            assert got == sum(a * b for a, b in zip(m1, m2))
        for i in range(c.table.num_irreps):
            double = direct_sum(c.models[i], c.models[i])
            n_i = c.table.degrees[i]
            assert iso.hom_dim(double, c.models[i], c.table) == (
                double.dim * c.models[i].dim
            ) // (n_i * n_i) == 2
            for j in range(c.table.num_irreps):
                if i != j:
                    assert iso.hom_dim(c.models[i], c.models[j], c.table) == 0


@criterion(5, "evaluation maps are isomorphisms onto every isotypic component")
def test_c05_evaluation_iso(ctx):
    for name in ACCEPTANCE_GROUPS:
        c = ctx(name)
        for rep in (iso.regular_rep(c.group, c.p), iso.permutation_rep(c.group, c.p)):
            for i in range(c.table.num_irreps):
                ok, _ = iso.evaluation_iso_check(rep, i, c.table, c.models[i])
                assert ok


@criterion(6, "a non-scalar element exists for every irreducible of degree >= 2")
def test_c06_splitting_elements(ctx):
    for name in ACCEPTANCE_GROUPS:
        c = ctx(name)
        for i, d in enumerate(c.table.degrees):
            if d >= 2:
                g = iso.splitting_element(c.table, i)
                assert 1 <= g < c.group.order


@criterion(7, "covers: generic multiplicity equals dim V_i; series match projectors")
def test_c07_cover_generic_rank(ctx, cover_actions):
    from isotypic.arith import series_prefix

    for name, _ in COVER_CASES:
        c = ctx(name)
        action = cover_actions[name]
        got = [
            iso.generic_multiplicity(action, i, c.table) for i in range(c.table.num_irreps)
        ]
        assert got == list(c.table.degrees)
        for i in range(c.table.num_irreps):
            series = iso.molien_multiplicity_series(action, i, c.table)
            coeffs = series_prefix(series.num, series.den, 12)
            for d in range(13):
                assert coeffs[d] == action.piece_decomposition(d, c.table).multiplicities[i] % c.p


@criterion(8, "fixed-ring dimension counts hold for every subgroup, d <= 12")
def test_c08_invariants_all_subgroups(ctx, cover_actions):
    for name, _ in COVER_CASES:
        c = ctx(name)
        action = cover_actions[name]
        for sub in all_subgroups(c.group):
            assert iso.invariants_series_check(action, sub, 12, c.table) is None


@criterion(9, "component products respect the tensor vanishing pattern, a,b <= 6")
def test_c09_product_patterns(ctx, cover_actions):
    for name in ("S3", "D4"):
        c = ctx(name)
        action = cover_actions[name]
        for i in range(c.table.num_irreps):
            for j in range(c.table.num_irreps):
                for a in range(1, 7):
                    for b in range(a, 7):
                        witness = iso.product_structure_check(action, i, j, a, b, c.table)
                        assert witness is None, (name, i, j, a, b, witness)


@criterion(10, "phi determinants: ramified support in y, unramified isomorphism")
def test_c10_phi_contracts():
    for n in (2, 3, 4, 6):
        phi = iso.phi_matrix(iso.build_cyclic(n, "polynomial"))
        det = iso.phi_det(phi)
        mono = as_unit_times_power(det)
        assert mono is not None
        unit, k = mono
        assert unit != 0 and k >= 1
        divisors = factored_invariant_factors(det, phi.powers)
        assert len(divisors) == n * n
        assert all(as_unit_times_power(d) is not None for d in divisors)
        lmono = as_unit_times_power(iso.phi_det(iso.phi_matrix(iso.build_cyclic(n, "laurent"))))
        assert lmono is not None and lmono[0] != 0  # unit times a power of the unit y
    phi2 = iso.phi_matrix(iso.build_cyclic(2))
    unit, k = as_unit_times_power(iso.phi_det(phi2))
    assert k == 1 and unit % phi2.p in (4 % phi2.p, (-4) % phi2.p)  # independently derived +-4y


@criterion(11, "normal-basis witnesses certified for n in {2, 3, 4, 6}")
def test_c11_normal_basis():
    for n in (2, 3, 4, 6):
        assert not iso.normal_basis_certificate(iso.build_cyclic(n)).is_zero()


@criterion(12, "verify-all twice produces byte-identical JSON")
def test_c12_determinism(tmp_path):
    runner = CliRunner()
    payloads = []
    for tag in ("a", "b"):
        out = tmp_path / f"verify-{tag}.json"
        result = runner.invoke(main, ["verify-all", "--format", "json", "--out", str(out)])
        assert result.exit_code == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    doc = json.loads(payloads[0])
    assert doc["pass"] is True
