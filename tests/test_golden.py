"""Byte-equality of CLI reports against committed golden files.

The table files were written by `isotypic table ... --format json --out
FILE` before the eigenvalue search moved from a scan over F_p to root
finding; the verify-all, cover, decompose and cyclic files were written
the same way before irreducible models came from right translations, and
`cover_S4_perm4_d8.json`, the only four-variable report, before the graded
pieces came from the shared symmetric power.  `cover_D6_reflection_d8.json`
was written before the graded pieces of monomial actions were stored as
index maps: its rotation [[0, 12], [1, 1]] at p = 13 is not monomial, so
it pins the dense path, which every other cover report now bypasses.
`cover_Q8_model2_d12.json` and `cover_A4_model3_d12.json` pin that path
too: their actions are the matrix files `action_Q8_model2.txt` and
`action_A4_model3.txt`, the generator matrices of the 2-dimensional Q8
and 3-dimensional A4 models at `choose_prime` (p = 13) that
`irreducible_models` built when it cut them out of the regular rep: they
are the models of the test oracle `oracle_models` (tests/conftest.py),
not the library's.  Both reports were written before the reductions mod
p moved to `linalg.residues`.
`cyclic_n3.json` (its
determinant has the non-trivial unit 6), `cyclic_n4_laurent.json` and
`cyclic_n6.json` were written before phi was factored as C·diag(y^e).
`decompose_S5_regular.json` was written when `hom_dim` moved to Serre's
multiplicity spaces, and no earlier tree could write it (the Kronecker
system of its endomorphisms was 28800 x 14400), so its values are also
checked against the degrees of `table_S5.json`.
They pin element order, class order, row order and every value.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from isotypic.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = {
    "table_S4_p10009.json": ["--group", "S4", "--prime", "10009"],
    "table_Q8.json": ["--group", "Q8"],
    "table_A4.json": ["--group", "A4"],
    "table_D12.json": ["--group", "D12"],
    "table_S5.json": ["--group", "S5"],
}
REPORT_CASES = {
    "verify_all.json": ["verify-all"],
    "cover_S3_perm3.json": ["cover", "--group", "S3", "--action", "perm3"],
    "cover_D4_reflection_d8.json": ["cover", "--group", "D4", "--action", "reflection", "--max-degree", "8"],
    "cover_S4_perm4_d8.json": ["cover", "--group", "S4", "--action", "perm4", "--max-degree", "8"],
    "cover_D6_reflection_d8.json": ["cover", "--group", "D6", "--action", "reflection", "--max-degree", "8"],
    "cover_Q8_model2_d12.json": [
        "cover", "--group", "Q8", "--action", str(GOLDEN / "action_Q8_model2.txt"), "--max-degree", "12"
    ],
    "cover_A4_model3_d12.json": [
        "cover", "--group", "A4", "--action", str(GOLDEN / "action_A4_model3.txt"), "--max-degree", "12"
    ],
    "decompose_S4_regular.json": ["decompose", "--group", "S4", "--rep", "regular"],
    "decompose_S5_regular.json": ["decompose", "--group", "S5", "--rep", "regular"],
    "cyclic_n3.json": ["cyclic", "--n", "3"],
    "cyclic_n4.json": ["cyclic", "--n", "4"],
    "cyclic_n4_laurent.json": ["cyclic", "--n", "4", "--variant", "laurent"],
    "cyclic_n6.json": ["cyclic", "--n", "6"],
}

# sha256 of `isotypic cyclic --n N --variant V --format json`, taken from the
# CLI before the report's phi entries and equivariance check were read off
# C and e directly; the golden files above stop at n = 6.
CYCLIC_SHA256 = {
    (12, "polynomial"): "b8744ada26080912880545cffbdfd313e9f4ba0226b55cd223ff1bcddd7e9a47",
    (12, "laurent"): "4340b16844d76c3839279ed8689ce4530ccb648fe488114aadbdb7a29a482d92",
    (32, "polynomial"): "ffd00d0744097a555de08bba4631c19622e656cff4760ad102559a52146372a7",
}

# sha256 of `isotypic cover --format json` with these arguments (a prime of
# None is `choose_prime`'s).  The first two were taken from the CLI before
# the product check moved to component coordinates and monomial pieces
# were decomposed one orbit block at a time; A4 has non-real characters,
# so its projectors are not symmetric.  The last three were taken before
# the Molien series were summed over a common denominator and the tensor
# multiplicities came from one product: D50 and D100 have 28 and 53
# classes, and 42949657 is the largest prime = 1 mod 24 below MAX_MODULUS.
COVER_SHA256 = {
    ("S4", "perm4", 12, None): "ff98944442369c8923b284d4d6b1932fd60cfa44ab248c7147975cfc2818625e",
    ("A4", "perm4", 8, None): "9ae9c58d50aede8715038fe32e7766481de0b7cc3336ffc3b8ccaffa86fbc7f5",
    ("D50", "reflection", 12, None): "797f65cf91228d4a79d41a04add57faca612487aac10b72afaec287bda5e5d3d",
    ("D100", "reflection", 12, None): "a300b6109bb1acdd3eb6530b8b5e14d6553d04237e3b47bf59cc8d99b1052015",
    ("S4", "perm4", 12, 42949657): "50a97cfca42c4e3ff343f9c83c4839d4c7e3a834f6f7ca6834cba43cda494b47",
}


# sha256 of `isotypic decompose --group G --rep regular --format json`, taken
# from the CLI when `hom_dim` moved to Serre's multiplicity spaces: type
# [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16], endomorphism_dim 720.
DECOMPOSE_SHA256 = {
    "S6": "b82aec4020ab5a034e70c0507c49dafbc066af800005c6ece5472a258683d4c1",
}


@pytest.mark.parametrize("group", sorted(DECOMPOSE_SHA256))
def test_large_decompose_report_matches_pinned_sha256(group):
    result = CliRunner().invoke(main, ["decompose", "--group", group, "--rep", "regular", "--format", "json"])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == DECOMPOSE_SHA256[group]


def test_the_s5_regular_decomposition_has_the_degrees_of_the_s5_table():
    # each irreducible occurs in the regular rep as often as its degree
    degrees = json.loads((GOLDEN / "table_S5.json").read_bytes())["table"]["degrees"]
    doc = json.loads((GOLDEN / "decompose_S5_regular.json").read_bytes())
    assert degrees == [1, 1, 4, 4, 5, 5, 6]
    assert doc["type"] == degrees
    assert doc["component_dims"] == [d * d for d in degrees]
    assert doc["dim"] == doc["endomorphism_dim"] == sum(d * d for d in degrees) == 120
    assert doc["pass"] is True


@pytest.mark.parametrize("n, variant", sorted(CYCLIC_SHA256))
def test_large_cyclic_report_matches_pinned_sha256(n, variant):
    result = CliRunner().invoke(main, ["cyclic", "--n", str(n), "--variant", variant, "--format", "json"])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == CYCLIC_SHA256[n, variant]


@pytest.mark.parametrize(
    "group, action, degree, prime",
    list(COVER_SHA256),
    ids=["-".join(str(x) for x in key if x is not None) for key in COVER_SHA256],
)
def test_large_cover_report_matches_pinned_sha256(group, action, degree, prime):
    args = ["cover", "--group", group, "--action", action, "--max-degree", str(degree), "--format", "json"]
    result = CliRunner().invoke(main, args + (["--prime", str(prime)] if prime else []))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == COVER_SHA256[group, action, degree, prime]


@pytest.mark.parametrize("filename", sorted(CASES))
def test_table_report_matches_golden(filename):
    result = CliRunner().invoke(main, ["table", *CASES[filename], "--format", "json"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / filename).read_bytes()


@pytest.mark.parametrize("filename", sorted(REPORT_CASES))
def test_report_matches_golden(filename):
    result = CliRunner().invoke(main, [*REPORT_CASES[filename], "--format", "json"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / filename).read_bytes()
