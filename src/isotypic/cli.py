"""Command-line front end: deterministic verification reports.

Every subcommand builds a JSON document (schema 1) and renders text from
it; nothing is computed twice for the two formats, so identical
configurations give byte-identical output.  Exit codes: 0 all checks
pass, 1 a verification outcome failed, 2 invalid input.
"""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import dataclass

import click
import numpy as np

from . import cover as cover_mod
from . import cyclic as cyclic_mod
from .arith import MAX_MODULUS, choose_prime, is_prime
from .characters import central_idempotents, character_table, convolve, splitting_element
from .cover import VerificationOutcome
from .errors import IsotypicError, SingularMatrix
from .groups import Group, conjugacy_classes, exponent, group_from_name, group_from_text
from .polymat import as_unit_times_power
from .reps import (
    decompose,
    evaluation_iso_check,
    hom_dim,
    irreducible_models,
    permutation_rep,
    regular_rep,
    rep_from_matrices,
)

SCHEMA = 1
VERIFY_GROUPS = ("C2", "C3", "C4", "C6", "S3", "D4", "Q8", "A4")
COVER_SCENARIOS = (("C2", "scalar"), ("C3", "scalar"), ("C4", "scalar"), ("S3", "perm"), ("D4", "reflection"))
CYCLIC_DEGREES = (2, 3, 4, 6)
MAX_CYCLIC_DEGREE = 32  # the phi report lists all n^4 entries


@dataclass
class RunConfig:
    """Resolved run parameters shared by the subcommands."""

    group: Group | None = None
    p: int | None = None
    max_degree: int = 12
    out: str | None = None
    fmt: str = "text"


# -- input resolution ------------------------------------------------------------


def _resolve_group(name: str | None, gens_path: str | None) -> Group:
    if (name is None) == (gens_path is None):
        raise click.UsageError("give exactly one of --group or --gens")
    try:
        if name is not None:
            return group_from_name(name)
        with open(gens_path) as fh:
            return group_from_text(fh.read(), name=os.path.basename(gens_path))
    except (IsotypicError, ValueError, OSError) as exc:
        raise click.UsageError(str(exc)) from exc


def _env_seed() -> int:
    """ISOTYPIC_SEED as an integer (default 0); anything else is invalid input."""
    raw = os.environ.get("ISOTYPIC_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise click.UsageError(f"ISOTYPIC_SEED={raw!r} is not an integer") from None


def _check_modulus_bound(p: int, source: str) -> None:
    if p > MAX_MODULUS:
        raise click.UsageError(
            f"{source} {p} exceeds {MAX_MODULUS}, the largest modulus whose int64 arithmetic is exact"
        )


def _resolve_prime(group: Group, override: int | None) -> int:
    if override is None:
        return choose_prime(group)
    _check_modulus_bound(override, "--prime")
    e = exponent(group)
    if not is_prime(override):
        raise click.UsageError(f"--prime {override} is not prime")
    if group.order % override == 0:
        raise click.UsageError(f"--prime {override} divides the group order {group.order}")
    if override % e != 1 % e:
        raise click.UsageError(f"--prime {override} is not 1 mod the exponent {e}")
    if override <= group.order:
        raise click.UsageError(f"--prime {override} must exceed the group order {group.order}")
    return override


def _parse_matrix_file(path: str) -> tuple[int, list[np.ndarray]]:
    """First line `p <modulus>`, then one matrix per blank-separated block."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise click.UsageError(str(exc)) from exc
    if not lines or not lines[0].strip().startswith("p "):
        raise click.UsageError("matrix file must start with a line 'p <modulus>'")
    try:
        p = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise click.UsageError("unreadable modulus line") from exc
    _check_modulus_bound(p, "file modulus")
    blocks: list[list[list[int]]] = []
    current: list[list[int]] = []
    for line in lines[1:]:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            if current:
                blocks.append(current)
                current = []
            continue
        try:
            current.append([int(tok) for tok in stripped.split()])
        except ValueError as exc:
            raise click.UsageError(f"bad matrix row: {stripped!r}") from exc
    if current:
        blocks.append(current)
    mats = []
    for block in blocks:
        width = len(block[0])
        if any(len(row) != width for row in block) or len(block) != width:
            raise click.UsageError("matrix blocks must be square")
        mats.append(np.array(block, dtype=np.int64))
    return p, mats


def _builtin_action(group: Group, p: int, name: str) -> cover_mod.LinearCoverAction:
    m = re.fullmatch(r"(perm|reflection|scalar)(\d*)", name)
    if not m:
        raise click.UsageError(f"unknown builtin action {name!r}")
    kind, size = m.group(1), m.group(2)
    try:
        if kind == "perm":
            if size and int(size) != group.degree:
                raise click.UsageError(
                    f"action perm{size} does not match the group degree {group.degree}"
                )
            return cover_mod.perm_action(group, p)
        if kind == "reflection":
            mref = re.fullmatch(r"D(\d+)", group.name)
            if not mref:
                raise click.UsageError("reflection actions are defined for dihedral groups D<n>")
            if size and int(size) != 2:
                raise click.UsageError("reflection actions are two-dimensional")
            return cover_mod.reflection_action(group, p, int(mref.group(1)))
        mcyc = re.fullmatch(r"C(\d+)", group.name)
        if not mcyc:
            raise click.UsageError("scalar actions are defined for cyclic groups C<n>")
        if size and int(size) != 1:
            raise click.UsageError("scalar actions are one-dimensional")
        return cover_mod.scalar_action(group, p, int(mcyc.group(1)))
    except IsotypicError as exc:
        raise click.UsageError(str(exc)) from exc


# -- output ------------------------------------------------------------------------


def _emit(doc: dict, fmt: str, out: str | None, render) -> None:
    if fmt == "json":
        payload = json.dumps(doc, indent=2) + "\n"
    else:
        payload = render(doc)
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        click.echo(payload, nl=False)


def _exit_by_outcomes(doc: dict) -> None:
    if not doc.get("pass", True):
        sys.exit(1)


def _render_table(doc: dict) -> str:
    t = doc["table"]
    lines = [
        f"group {t['group']}  order {t['order']}  modulus {t['modulus']}",
        f"classes: sizes {t['class_sizes']}",
        f"degrees: {t['degrees']}",
        "character values (rows = irreducibles, columns = classes):",
    ]
    for i, row in enumerate(t["values"]):
        lines.append(f"  chi_{i}: {row}")
    lines.append("idempotent coefficient vectors (per group element):")
    for i, row in enumerate(doc["idempotents"]):
        lines.append(f"  e_{i}: {row}")
    return "\n".join(lines) + "\n"


def _render_decompose(doc: dict) -> str:
    lines = [
        f"group {doc['group']}  modulus {doc['modulus']}  rep {doc['rep']} (dim {doc['dim']})",
        f"type (multiplicities): {doc['type']}",
        f"component dimensions:  {doc['component_dims']}",
        f"endomorphism dim:      {doc['endomorphism_dim']}",
        f"hom-dim cross-check:   {'pass' if doc['pass'] else 'FAIL'}",
    ]
    return "\n".join(lines) + "\n"


def _render_outcomes(doc: dict) -> str:
    lines = []
    for o in doc["outcomes"]:
        status = "pass" if o["pass"] else "FAIL"
        lines.append(f"[{status}] {o['check']}: {o['anchor']}")
        if not o["pass"] and o.get("witness") is not None:
            lines.append(f"        witness: {json.dumps(o['witness'])}")
    lines.append("all checks passed" if doc["pass"] else "SOME CHECKS FAILED")
    return "\n".join(lines) + "\n"


def _render_cover(doc: dict) -> str:
    rep = doc["report"]
    lines = [
        f"group {rep['action']['group']}  modulus {rep['action']['modulus']}"
        f"  variables {rep['action']['variables']}",
        f"irreducible degrees:      {rep['degrees']}",
        f"generic multiplicities:   {rep['generic_multiplicities']}",
        "multiplicities by degree (rows = degree 0..D):",
    ]
    for d, row in enumerate(rep["multiplicities_by_degree"]):
        lines.append(f"  d={d:2d}: {row}")
    lines.append(f"invariant series: {rep['invariant_series']['num']} / {rep['invariant_series']['den']}")
    return "\n".join(lines) + "\n" + _render_outcomes({"outcomes": rep["outcomes"], "pass": rep["pass"]})


def _render_cyclic(doc: dict) -> str:
    lines = [
        f"cyclic cover n={doc['model']['n']}  modulus {doc['model']['modulus']}"
        f"  zeta {doc['model']['zeta']}  variant {doc['model']['variant']}",
        f"component x-powers by character: {doc['component_powers']}",
        f"det(phi) coefficients: {doc['phi_det']}",
        f"elementary divisors: {doc['elementary_divisors']}",
        f"normal basis coefficients: {doc['normal_basis']['coeffs']}"
        f"  certificate det: {doc['normal_basis']['determinant']}",
    ]
    return "\n".join(lines) + "\n" + _render_outcomes(doc)


# -- subcommands ---------------------------------------------------------------------


@click.group()
def main() -> None:
    """Exact isotypic decompositions and cover verifications over F_p."""


_group_opts = [
    click.option("--group", "group_name", default=None, help="builtin name (S<n>, C<n>, D<n>, Q8, A4)"),
    click.option("--gens", "gens_path", default=None, type=click.Path(), help="generator file, cycle notation"),
    click.option("--prime", default=None, type=int, help="override the modulus"),
    click.option("--format", "fmt", default="text", type=click.Choice(["text", "json"])),
    click.option("--out", default=None, type=click.Path(), help="write output to a file"),
]


def _add_opts(opts):
    def wrap(f):
        for opt in reversed(opts):
            f = opt(f)
        return f

    return wrap


@main.command("table")
@_add_opts(_group_opts)
def cmd_table(group_name, gens_path, prime, fmt, out):
    """Character table, class data, and central idempotents."""
    group = _resolve_group(group_name, gens_path)
    p = _resolve_prime(group, prime)
    classes = conjugacy_classes(group)
    table = character_table(group, classes, p)
    idems = central_idempotents(table)
    doc = {
        "schema": SCHEMA,
        "table": table.to_dict(),
        "idempotents": [e.tolist() for e in idems],
        "pass": True,
    }
    _emit(doc, fmt, out, _render_table)


@main.command("decompose")
@_add_opts(_group_opts)
@click.option("--rep", "rep_source", default="regular", help="regular | perm | matrix file path")
def cmd_decompose(group_name, gens_path, prime, fmt, out, rep_source):
    """Isotypic decomposition of a representation."""
    group = _resolve_group(group_name, gens_path)
    if rep_source in ("regular", "perm"):
        p = _resolve_prime(group, prime)
        rep = regular_rep(group, p) if rep_source == "regular" else permutation_rep(group, p)
    else:
        file_p, mats = _parse_matrix_file(rep_source)
        p = _resolve_prime(group, prime if prime is not None else file_p)
        if p != file_p:
            raise click.UsageError(f"--prime {p} conflicts with file modulus {file_p}")
        try:
            rep = rep_from_matrices(group, p, mats)
        except IsotypicError as exc:
            word = getattr(exc, "word", None)
            msg = f"{exc}" + (f" (word {word})" if word else "")
            raise click.UsageError(msg) from exc
    classes = conjugacy_classes(group)
    table = character_table(group, classes, p)
    decomp, rtype = decompose(rep, table)
    endo = hom_dim(rep, rep, table)
    endo_ok = endo == sum(m * m for m in rtype.multiplicities)
    doc = {
        "schema": SCHEMA,
        "group": group.name,
        "modulus": p,
        "rep": rep_source,
        "dim": rep.dim,
        "type": list(rtype.multiplicities),
        "component_dims": list(decomp.dims()),
        "endomorphism_dim": endo,
        "pass": endo_ok,
    }
    _emit(doc, fmt, out, _render_decompose)
    _exit_by_outcomes(doc)


@main.command("cover")
@_add_opts(_group_opts)
@click.option("--action", "action_source", required=True, help="builtin (perm/reflection/scalar) or matrix file")
@click.option("--max-degree", default=12, type=click.IntRange(min=0), show_default=True)
def cmd_cover(group_name, gens_path, prime, fmt, out, action_source, max_degree):
    """Full graded verification of one cover action."""
    group = _resolve_group(group_name, gens_path)
    if os.path.exists(action_source):
        file_p, mats = _parse_matrix_file(action_source)
        p = _resolve_prime(group, prime if prime is not None else file_p)
        if p != file_p:
            raise click.UsageError(f"--prime {p} conflicts with file modulus {file_p}")
        try:
            action = cover_mod.validate_action(group, mats, p)
        except IsotypicError as exc:
            raise click.UsageError(str(exc)) from exc
    else:
        p = _resolve_prime(group, prime)
        action = _builtin_action(group, p, action_source)
    classes = conjugacy_classes(group)
    table = character_table(group, classes, p)
    report = cover_mod.pushforward_report(action, max_degree, table)
    doc = {"schema": SCHEMA, "report": report.to_dict(), "pass": report.passed}
    _emit(doc, fmt, out, _render_cover)
    _exit_by_outcomes(doc)


@main.command("cyclic")
@click.option("--n", required=True, type=int, help="cover degree")
@click.option("--variant", default="polynomial", type=click.Choice(["polynomial", "laurent"]), show_default=True)
@click.option("--format", "fmt", default="text", type=click.Choice(["text", "json"]))
@click.option("--out", "--report", "out", default=None, type=click.Path())
def cmd_cyclic(n, variant, fmt, out):
    """Explicit cyclic cover: phi matrix, determinant, divisors, normal basis."""
    if n < 1:
        raise click.UsageError("--n must be positive")
    if n > MAX_CYCLIC_DEGREE:
        raise click.UsageError(
            f"--n must be at most {MAX_CYCLIC_DEGREE}: the report lists all n^4 = {n**4} entries of phi"
        )
    seed = _env_seed()
    model = cyclic_mod.build_cyclic(n, variant)
    doc = cyclic_report(model, seed)
    _emit(doc, fmt, out, _render_cyclic)
    _exit_by_outcomes(doc)


def cyclic_report(model: cyclic_mod.CyclicCoverModel, seed: int = 0) -> dict:
    """All cyclic-model checks as a JSON-ready document."""
    phi = cyclic_mod.phi_matrix(model)
    det = cyclic_mod.phi_det(model, phi)
    try:
        divisors = cyclic_mod.phi_elementary_divisors(model, phi, det)
        div_witness = None
    except SingularMatrix as exc:
        divisors, div_witness = None, _error_witness(exc, det=list(det.coeffs))
    witness = cyclic_mod.normal_basis_element(model, seed=seed)
    powers = cyclic_mod.decompose_pushforward(model)
    outcomes = []

    mono = as_unit_times_power(det)
    if model.variant == "polynomial":
        det_ok = mono is not None and (mono[1] >= 1 or model.n == 1)
        anchor = "det(phi) is a unit times y^k, k >= 1: cokernel supported over the branch point"
    else:
        det_ok = mono is not None
        anchor = "det(phi) is invertible in the Laurent ring: phi is an isomorphism"
    outcomes.append(VerificationOutcome("cyclic.phi_det", anchor, det_ok,
                                        None if det_ok else {"det": list(det.coeffs)}))

    outcomes.append(
        VerificationOutcome(
            "cyclic.elementary_divisors",
            "all invariant factors are powers of y",
            div_witness is None,
            div_witness,
        )
    )

    equiv_ok = cyclic_mod.phi_equivariance_check(model, phi)
    outcomes.append(
        VerificationOutcome(
            "cyclic.equivariance",
            "phi intertwines the translation and twisted cyclic actions",
            equiv_ok,
        )
    )

    nb_ok = not witness.determinant.is_zero()
    outcomes.append(
        VerificationOutcome(
            "cyclic.normal_basis",
            "translates of the witness element form a basis over Frac(A)",
            nb_ok,
        )
    )

    return {
        "schema": SCHEMA,
        "model": model.to_dict(),
        "component_powers": powers,
        "phi_matrix": [[list(e.coeffs) for e in row] for row in phi.entries],
        "phi_det": list(det.coeffs),
        "phi_det_factor": {"unit": mono[0], "y_power": mono[1]} if mono else None,
        "elementary_divisors": None if divisors is None else [list(d.coeffs) for d in divisors],
        "normal_basis": {
            "coeffs": [list(c.coeffs) for c in witness.coeffs],
            "determinant": list(witness.determinant.coeffs),
        },
        "outcomes": [o.to_dict() for o in outcomes],
        "pass": all(o.passed for o in outcomes),
    }


@main.command("verify-all")
@click.option("--max-degree", default=12, type=click.IntRange(min=0), show_default=True)
@click.option("--format", "fmt", default="json", type=click.Choice(["text", "json"]))
@click.option("--out", default=None, type=click.Path())
def cmd_verify_all(max_degree, fmt, out):
    """Run every builtin scenario and aggregate the outcomes."""
    doc = verify_all_document(max_degree)
    _emit(doc, fmt, out, _render_outcomes)
    _exit_by_outcomes(doc)


def _error_witness(exc: Exception, **where) -> dict:
    """What a failed check raised, and where (group, rep, irreducible)."""
    return {"error": type(exc).__name__, "message": str(exc), **where}


def verify_all_document(max_degree: int = 12) -> dict:
    outcomes: list[VerificationOutcome] = []
    seed = _env_seed()

    for name in VERIFY_GROUPS:
        group = group_from_name(name)
        p = choose_prime(group)
        classes = conjugacy_classes(group)
        table = character_table(group, classes, p)

        idems = central_idempotents(table)
        ok = True
        total = np.zeros(group.order, dtype=np.int64)
        for i, e_i in enumerate(idems):
            total = (total + e_i) % p
            for j, e_j in enumerate(idems):
                prod = convolve(e_i, e_j, group, p)
                want = e_i if i == j else np.zeros(group.order, dtype=np.int64)
                ok = ok and bool(np.array_equal(prod, want % p))
        unit = np.zeros(group.order, dtype=np.int64)
        unit[0] = 1
        ok = ok and bool(np.array_equal(total, unit))
        outcomes.append(
            VerificationOutcome(
                f"{name}.idempotents",
                "orthogonal central idempotents summing to 1",
                ok,
            )
        )

        reg = regular_rep(group, p)
        _, rtype = decompose(reg, table)
        outcomes.append(
            VerificationOutcome(
                f"{name}.regular_type",
                "regular representation has multiplicities equal to the degrees",
                rtype.multiplicities == table.degrees,
            )
        )

        models = irreducible_models(group, table)
        eval_witness = None
        for rep_name, rep in (("regular", reg), ("perm", permutation_rep(group, p))):
            for i in range(table.num_irreps):
                try:
                    evaluation_iso_check(rep, i, table, models[i])
                except IsotypicError as exc:
                    eval_witness = eval_witness or _error_witness(exc, group=name, rep=rep_name, irrep=i)
        outcomes.append(
            VerificationOutcome(
                f"{name}.evaluation_iso",
                "evaluation maps are isomorphisms onto the isotypic components",
                eval_witness is None,
                eval_witness,
            )
        )

        split_witness = None
        for i, d in enumerate(table.degrees):
            if d >= 2:
                try:
                    splitting_element(table, i, group, classes)
                except IsotypicError as exc:
                    split_witness = split_witness or _error_witness(exc, group=name, irrep=i)
        outcomes.append(
            VerificationOutcome(
                f"{name}.splitting_elements",
                "every irreducible of degree >= 2 restricts with >= 2 components somewhere",
                split_witness is None,
                split_witness,
            )
        )

    for gname, action_kind in COVER_SCENARIOS:
        group = group_from_name(gname)
        p = choose_prime(group)
        classes = conjugacy_classes(group)
        table = character_table(group, classes, p)
        action = _builtin_action(group, p, action_kind)
        report = cover_mod.pushforward_report(action, max_degree, table)
        for o in report.outcomes:
            outcomes.append(
                VerificationOutcome(f"{gname}.{action.name}.{o.check}", o.anchor, o.passed, o.witness)
            )

    for n in CYCLIC_DEGREES:
        for variant in ("polynomial", "laurent"):
            model = cyclic_mod.build_cyclic(n, variant)
            doc = cyclic_report(model, seed)
            for o in doc["outcomes"]:
                if o["check"] == "cyclic.equivariance" and n > 4:
                    continue
                outcomes.append(
                    VerificationOutcome(
                        f"C{n}.{variant}.{o['check']}", o["anchor"], o["pass"], o.get("witness")
                    )
                )

    return {
        "schema": SCHEMA,
        "config": {"max_degree": max_degree, "seed": seed},
        "outcomes": [o.to_dict() for o in outcomes],
        "pass": all(o.passed for o in outcomes),
    }


if __name__ == "__main__":
    main()
