"""The builtin scenarios of `isotypic verify-all`: four checks per group in
VERIFY_GROUPS, the cover reports of COVER_SCENARIOS and the cyclic reports
of CYCLIC_DEGREES, as `cover.VerificationOutcome`s named by scenario.

The idempotent check multiplies in F_p[G] on the regular representation,
whose isotypic projector P_i is left multiplication by e_i: the library's
one group-algebra product is the group sum that every projector takes.

The library is called through module attributes (`reps.decompose`, never
a `from .reps import decompose` alias), so a wrapper installed on a
library module sees every call made from here.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import arith, characters, cover, cyclic, groups, linalg, reps
from .cover import VerificationOutcome
from .errors import IsotypicError, error_witness

VERIFY_GROUPS = ("C2", "C3", "C4", "C6", "S3", "D4", "Q8", "A4")
COVER_SCENARIOS = (("C2", "scalar"), ("C3", "scalar"), ("C4", "scalar"), ("S3", "perm"), ("D4", "reflection"))
CYCLIC_DEGREES = (2, 3, 4, 6)


def _table(name: str) -> characters.CharacterTable:
    group = groups.group_from_name(name)
    return characters.character_table(group, groups.conjugacy_classes(group), arith.choose_prime(group))


def _prefixed(prefix: str, outcomes) -> list[VerificationOutcome]:
    return [replace(o, check=f"{prefix}.{o.check}") for o in outcomes]


def _first_error(attempts) -> dict | None:
    """Run every (function, args, where) attempt; the witness of the first
    that raises an IsotypicError, or None."""
    witness = None
    for fn, args, where in attempts:
        try:
            fn(*args)
        except IsotypicError as exc:
            witness = witness or error_witness(exc, **where)
    return witness


def _idempotents_witness(table: characters.CharacterTable, reg: reps.MatrixRep) -> dict | None:
    """None when e_i e_j = delta_ij e_i in F_p[G] and the e_i sum to 1;
    otherwise {"product": [i, j]} for the first pair (i, j) in row-major
    order whose product is wrong, or {"element": g} for the first
    coefficient of the sum that differs from that of 1.

    The products are read on the regular rep `reg`: rho(g) e_c = e_{g*c},
    so its isotypic projector P_i is left multiplication by e_i, and
    column j of P_i E^T, E the idempotents stacked, is e_i e_j.
    """
    p = table.p
    idems = np.array(table.idempotents())
    for i, e_i in enumerate(idems):
        products = linalg.matmul(reps.isotypic_projector(reg, i, table), idems.T, p).T
        # row j should be e_i for j = i, and 0 otherwise
        wrong = np.flatnonzero((products != np.outer(np.arange(len(idems)) == i, e_i)).any(axis=1))
        if wrong.size:
            return {"product": [i, int(wrong[0])]}
    # the unit of F_p[G] is 1 at the identity, element 0, and 0 elsewhere
    wrong = np.flatnonzero(idems.sum(axis=0) % p != (np.arange(table.group.order) == 0))
    return {"element": int(wrong[0])} if wrong.size else None


def group_checks(table: characters.CharacterTable) -> list[VerificationOutcome]:
    """The four per-group outcomes of verify-all for the group of `table`."""
    group, p = table.group, table.p
    name = group.name
    reg = reps.regular_rep(group, p)
    models = reps.irreducible_models(group, table)
    eval_witness = _first_error(
        (reps.evaluation_iso_check, (rep, i, table, models[i]), {"group": name, "rep": rep_name, "irrep": i})
        for rep_name, rep in (("regular", reg), ("perm", reps.permutation_rep(group, p)))
        for i in range(table.num_irreps)
    )
    split_witness = _first_error(
        (characters.splitting_element, (table, i), {"group": name, "irrep": i})
        for i, d in enumerate(table.degrees)
        if d >= 2
    )
    multiplicities = list(reps.decompose(reg, table).multiplicities)
    degrees = list(table.degrees)
    return [
        VerificationOutcome(
            f"{name}.idempotents", "orthogonal central idempotents summing to 1", _idempotents_witness(table, reg)
        ),
        VerificationOutcome(
            f"{name}.regular_type",
            "regular representation has multiplicities equal to the degrees",
            None if multiplicities == degrees else {"multiplicities": multiplicities, "degrees": degrees},
        ),
        VerificationOutcome(
            f"{name}.evaluation_iso", "evaluation maps are isomorphisms onto the isotypic components", eval_witness
        ),
        VerificationOutcome(
            f"{name}.splitting_elements",
            "every irreducible of degree >= 2 restricts with >= 2 components somewhere",
            split_witness,
        ),
    ]


def verify_all(max_degree: int) -> list[VerificationOutcome]:
    """Every builtin scenario; cover reports run through `max_degree`.  Each
    group's character table is built once."""
    tables = {name: _table(name) for name in VERIFY_GROUPS}
    outcomes = [o for table in tables.values() for o in group_checks(table)]
    for name, kind in COVER_SCENARIOS:
        table = tables[name]
        action = cover.builtin_action(table.group, table.p, kind)
        report = cover.pushforward_report(action, max_degree, table)
        outcomes += _prefixed(f"{name}.{action.name}", report.outcomes)
    for n in CYCLIC_DEGREES:
        for variant in cyclic.VARIANTS:
            report = cyclic.cyclic_report(cyclic.CyclicCoverModel(variant, tables[f"C{n}"]))
            # The equivariance outcome above n = 4 is computed (a column
            # scaling and a row gather of the 36x36 C at n = 6) but not
            # listed: listing it would change the verify-all bytes pinned by
            # tests/golden/verify_all.json and perfbench/pins.json.
            kept = [o for o in report.outcomes if n <= 4 or o.check != "cyclic.equivariance"]
            outcomes += _prefixed(f"C{n}.{variant}", kept)
    return outcomes
