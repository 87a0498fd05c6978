"""Command-line front end: parses arguments and renders reports.

Every subcommand resolves its inputs, gets its report from the library
(`reps`, `cover`, `cyclic`, and `scenarios` for verify-all) as a JSON
document (schema 1), and renders text from that document; nothing is
computed twice for the two formats, so identical configurations give
byte-identical output.  Exit codes: 0 all checks pass, 1 a verification
outcome failed, 2 invalid input.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import cover, cyclic, scenarios
from .arith import MAX_MODULUS, choose_prime, is_prime, splitting_prime_failure
from .characters import CharacterTable, central_idempotents, character_table
from .errors import IsotypicError, SystemTooLarge
from .groups import Group, conjugacy_classes, group_from_name, group_from_text
from .reps import decomposition_report, permutation_rep, regular_rep, rep_from_matrices

SCHEMA = 1
MAX_CYCLIC_DEGREE = 32  # the phi report lists all n^4 entries


# -- input resolution ------------------------------------------------------------


def _usage_error(exc: Exception) -> click.UsageError:
    """Invalid input found by the library: exit 2 with its message."""
    word = getattr(exc, "word", None)
    return click.UsageError(f"{exc}" + (f" (word {word})" if word else ""))


def _resolve_group(name: str | None, gens_path: str | None) -> Group:
    if (name is None) == (gens_path is None):
        raise click.UsageError("give exactly one of --group or --gens")
    try:
        if name is not None:
            return group_from_name(name)
        with open(gens_path) as fh:
            return group_from_text(fh.read(), name=os.path.basename(gens_path))
    except (IsotypicError, ValueError, OSError) as exc:
        raise _usage_error(exc) from exc


def _check_modulus(p: int, source: str) -> None:
    """A prime within the int64 bound; the bound is checked first, so no
    primality test runs on a huge number."""
    if p > MAX_MODULUS:
        raise click.UsageError(
            f"{source} {p} exceeds {MAX_MODULUS}, the largest modulus whose int64 arithmetic is exact"
        )
    if not is_prime(p):
        raise click.UsageError(f"{source} {p} is not prime")


def _resolve_prime(group: Group, override: int | None, source: str = "--prime") -> int:
    if override is None:
        return choose_prime(group)
    _check_modulus(override, source)
    reason = splitting_prime_failure(group, override)
    if reason:
        raise click.UsageError(f"{source} {override} {reason}")
    return override


def _table(group: Group, p: int) -> CharacterTable:
    return character_table(group, conjugacy_classes(group), p)


def _parse_matrix_file(path: str) -> tuple[int, list[list[list[int]]]]:
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
    _check_modulus(p, "file modulus")  # before any row is reduced mod p
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
            current.append([int(tok) % p for tok in stripped.split()])
        except ValueError as exc:
            raise click.UsageError(f"bad matrix row: {stripped!r}") from exc
    if current:
        blocks.append(current)
    if any(len(row) != len(block) for block in blocks for row in block):
        raise click.UsageError("matrix blocks must be square")
    return p, blocks


def _matrix_file_input(path: str, group: Group, prime: int | None) -> tuple[int, list]:
    """Modulus and matrices of a matrix file; `--prime` may only repeat its modulus."""
    file_p, mats = _parse_matrix_file(path)
    p = _resolve_prime(group, file_p, "file modulus") if prime is None else _resolve_prime(group, prime)
    if p != file_p:
        raise click.UsageError(f"--prime {p} conflicts with file modulus {file_p}")
    return p, mats


# -- output ------------------------------------------------------------------------


def json_text(doc) -> str:
    """The text of `json.dumps(doc, indent=2)`, laid out here.

    With `indent` set, the json module encodes every value with its
    pure-Python encoder.  Here a list of plain ints is one join, scalars
    and keys go through the C encoder, and the items of a list are encoded
    once per distinct object, so the shared entry lists of a cyclic
    report's phi matrix cost one encoding each.
    """
    texts: dict[int, dict[int, str]] = {}  # depth -> id of an item -> its text

    def encode(obj, depth: int) -> str:
        if isinstance(obj, (list, tuple)):
            return layout("[", "]", encode_items(obj, depth + 1), depth)
        if isinstance(obj, dict):
            return layout("{", "}", [f"{encode_key(k)}: {encode(v, depth + 1)}" for k, v in obj.items()], depth)
        return json.dumps(obj)

    def encode_items(items, depth: int):
        if set(map(type, items)) == {int}:
            return map(int.__repr__, items)
        known = texts.setdefault(depth, {})
        by_id = dict(zip(map(id, items), items))
        for key in by_id.keys() - known.keys():
            known[key] = encode(by_id[key], depth)
        return map(known.__getitem__, map(id, items))

    def encode_key(key) -> str:
        if not isinstance(key, str):
            if not (isinstance(key, (int, float)) or key is None):
                raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
            key = json.dumps(key)
        return json.dumps(key)

    def layout(opening: str, closing: str, parts, depth: int) -> str:
        inner = "\n" + "  " * (depth + 1)
        body = ("," + inner).join(parts)
        return f"{opening}{inner}{body}\n{'  ' * depth}{closing}" if body else opening + closing

    return encode(doc, 0)


def _emit(doc: dict, fmt: str, out: str | None, render) -> None:
    """Write the document as JSON or rendered text; exit 1 if a check failed."""
    if fmt == "json":
        payload = json_text(doc) + "\n"
    else:
        payload = render(doc)
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        click.echo(payload, nl=False)
    if not doc["pass"]:
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
        if not o["pass"]:
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


def _group_opts(f):
    """The options of the subcommands that take a group."""
    for opt in reversed([
        click.option("--group", "group_name", default=None, help="builtin name (S<n>, C<n>, D<n>, Q8, A4)"),
        click.option("--gens", "gens_path", default=None, type=click.Path(), help="generator file, cycle notation"),
        click.option("--prime", default=None, type=int, help="override the modulus"),
        click.option("--format", "fmt", default="text", type=click.Choice(["text", "json"])),
        click.option("--out", default=None, type=click.Path(), help="write output to a file"),
    ]):
        f = opt(f)
    return f


@main.command("table")
@_group_opts
def cmd_table(group_name, gens_path, prime, fmt, out):
    """Character table, class data, and central idempotents."""
    group = _resolve_group(group_name, gens_path)
    table = _table(group, _resolve_prime(group, prime))
    doc = {
        "schema": SCHEMA,
        "table": table.to_dict(),
        "idempotents": [e.tolist() for e in central_idempotents(table)],
        "pass": True,
    }
    _emit(doc, fmt, out, _render_table)


@main.command("decompose")
@_group_opts
@click.option("--rep", "rep_source", default="regular", help="regular | perm | matrix file path")
def cmd_decompose(group_name, gens_path, prime, fmt, out, rep_source):
    """Isotypic decomposition of a representation."""
    group = _resolve_group(group_name, gens_path)
    if rep_source in ("regular", "perm"):
        p = _resolve_prime(group, prime)
        rep = regular_rep(group, p) if rep_source == "regular" else permutation_rep(group, p)
    else:
        p, mats = _matrix_file_input(rep_source, group, prime)
        try:
            rep = rep_from_matrices(group, p, mats)
        except IsotypicError as exc:
            raise _usage_error(exc) from exc
    try:
        report = decomposition_report(rep, _table(group, p))
    except SystemTooLarge as exc:
        raise _usage_error(exc) from exc
    doc = {"schema": SCHEMA, "group": group.name, "modulus": p, "rep": rep_source, **report}
    _emit(doc, fmt, out, _render_decompose)


@main.command("cover")
@_group_opts
@click.option("--action", "action_source", required=True, help="builtin (perm/reflection/scalar) or matrix file")
@click.option("--max-degree", default=12, type=click.IntRange(min=0), show_default=True)
def cmd_cover(group_name, gens_path, prime, fmt, out, action_source, max_degree):
    """Full graded verification of one cover action."""
    group = _resolve_group(group_name, gens_path)
    try:
        if os.path.exists(action_source):
            p, mats = _matrix_file_input(action_source, group, prime)
            action = cover.validate_action(group, mats, p)
        else:
            p = _resolve_prime(group, prime)
            action = cover.builtin_action(group, p, action_source)
    except (IsotypicError, ValueError) as exc:
        raise _usage_error(exc) from exc
    try:
        report = cover.pushforward_report(action, max_degree, _table(group, p))
    except SystemTooLarge as exc:
        raise _usage_error(exc) from exc
    doc = {"schema": SCHEMA, "report": report.to_dict(), "pass": report.passed}
    _emit(doc, fmt, out, _render_cover)


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
    report = cyclic.cyclic_report(cyclic.build_cyclic(n, variant))
    doc = {"schema": SCHEMA, **report.to_dict()}
    _emit(doc, fmt, out, _render_cyclic)


@main.command("verify-all")
@click.option("--max-degree", default=12, type=click.IntRange(min=0), show_default=True)
@click.option("--format", "fmt", default="json", type=click.Choice(["text", "json"]))
@click.option("--out", default=None, type=click.Path())
def cmd_verify_all(max_degree, fmt, out):
    """Run every builtin scenario and aggregate the outcomes."""
    doc = verify_all_document(max_degree)
    _emit(doc, fmt, out, _render_outcomes)


def verify_all_document(max_degree: int = 12) -> dict:
    """The verify-all report: the outcomes of `scenarios.verify_all` with
    the run configuration, whose seed is the fixed 0 of the library's draws."""
    outcomes = scenarios.verify_all(max_degree)
    return {
        "schema": SCHEMA,
        "config": {"max_degree": max_degree, "seed": 0},
        "outcomes": [o.to_dict() for o in outcomes],
        "pass": all(o.passed for o in outcomes),
    }


if __name__ == "__main__":
    main()
