"""Byte-equality of CLI reports against committed golden files.

The table files were written by `isotypic table ... --format json --out
FILE` before the eigenvalue search moved from a scan over F_p to root
finding; the verify-all, cover, decompose and cyclic files were written
the same way before irreducible models came from right translations, and
`cover_S4_perm4_d8.json`, the only four-variable report, before the graded
pieces came from the shared symmetric power.  `cyclic_n3.json` (its
determinant has the non-trivial unit 6), `cyclic_n4_laurent.json` and
`cyclic_n6.json` were written before phi was factored as C·diag(y^e).
They pin element order, class order, row order and every value.
"""

from __future__ import annotations

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
    "decompose_S4_regular.json": ["decompose", "--group", "S4", "--rep", "regular"],
    "cyclic_n3.json": ["cyclic", "--n", "3"],
    "cyclic_n4.json": ["cyclic", "--n", "4"],
    "cyclic_n4_laurent.json": ["cyclic", "--n", "4", "--variant", "laurent"],
    "cyclic_n6.json": ["cyclic", "--n", "6"],
}


@pytest.mark.parametrize("filename", sorted(CASES))
def test_table_report_matches_golden(filename):
    result = CliRunner().invoke(main, ["table", *CASES[filename], "--format", "json"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / filename).read_bytes()


@pytest.mark.parametrize("filename", sorted(REPORT_CASES))
def test_report_matches_golden(filename):
    result = CliRunner().invoke(
        main, [*REPORT_CASES[filename], "--format", "json"], env={"ISOTYPIC_SEED": "0"}
    )
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / filename).read_bytes()
