"""Command-line interface: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from isotypic import cyclic
from isotypic.arith import MAX_MODULUS, is_prime
from isotypic.cli import json_text, main
from isotypic.groups import conjugacy_classes, group_from_name

S3_STANDARD_REP = "p 7\n0 1\n1 0\n\n0 6\n1 6\n"


@pytest.fixture()
def runner():
    return CliRunner()


def test_table_text(runner):
    result = runner.invoke(main, ["table", "--group", "S3"])
    assert result.exit_code == 0
    assert "degrees: [1, 1, 2]" in result.output
    assert "e_0: [6, 6, 6, 6, 6, 6]" in result.output


def test_table_json_schema(runner):
    result = runner.invoke(main, ["table", "--group", "Q8", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["schema"] == 1
    assert doc["table"]["modulus"] == 13
    assert doc["table"]["degrees"] == [1, 1, 1, 1, 2]
    assert len(doc["idempotents"]) == 5


def test_table_rejects_unknown_group(runner):
    result = runner.invoke(main, ["table", "--group", "NOPE"])
    assert result.exit_code == 2


def test_table_requires_exactly_one_source(runner):
    assert runner.invoke(main, ["table"]).exit_code == 2
    result = runner.invoke(main, ["table", "--group", "S3", "--gens", "x"])
    assert result.exit_code == 2


def test_table_prime_override_validation(runner):
    assert runner.invoke(main, ["table", "--group", "S3", "--prime", "13"]).exit_code == 0
    # 8 is not prime; 5 is not 1 mod 6; 7 does not exceed |S4| = 24
    assert runner.invoke(main, ["table", "--group", "S3", "--prime", "8"]).exit_code == 2
    assert runner.invoke(main, ["table", "--group", "S3", "--prime", "5"]).exit_code == 2
    assert runner.invoke(main, ["table", "--group", "S4", "--prime", "7"]).exit_code == 2


def test_gens_file(runner, tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("(0 1)\n(0 1 2)\n")
    result = runner.invoke(main, ["table", "--gens", str(path), "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["table"]["order"] == 6
    assert doc["table"]["degrees"] == [1, 1, 2]


def test_decompose_builtin_reps(runner):
    result = runner.invoke(main, ["decompose", "--group", "S3", "--rep", "regular"])
    assert result.exit_code == 0
    assert "type (multiplicities): [1, 1, 2]" in result.output
    result = runner.invoke(main, ["decompose", "--group", "S3", "--rep", "perm"])
    assert result.exit_code == 0
    assert "type (multiplicities): [1, 0, 1]" in result.output
    result = runner.invoke(main, ["decompose", "--group", "C1", "--rep", "regular"])
    assert result.exit_code == 0
    assert "type (multiplicities): [1]" in result.output


def test_decompose_matrix_file(runner, tmp_path):
    path = tmp_path / "std.txt"
    path.write_text(S3_STANDARD_REP)
    result = runner.invoke(
        main, ["decompose", "--group", "S3", "--rep", str(path), "--format", "json"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["type"] == [0, 0, 1]
    assert doc["modulus"] == 7


def test_decompose_matrix_file_bad_homomorphism(runner, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p 7\n0 6\n1 6\n\n0 6\n1 6\n")
    result = runner.invoke(main, ["decompose", "--group", "S3", "--rep", str(path)])
    assert result.exit_code == 2
    assert "word" in result.output


def test_matrix_file_entries_beyond_int64_are_reduced(runner, tmp_path):
    path = tmp_path / "sign.txt"
    path.write_text(f"p 7\n{7 * 2**70 - 1}\n")  # -1 mod 7
    result = runner.invoke(main, ["decompose", "--group", "C2", "--rep", str(path), "--format", "json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["type"] == [0, 1]


def test_decompose_matrix_file_modulus_conflict(runner, tmp_path):
    path = tmp_path / "std.txt"
    path.write_text(S3_STANDARD_REP)
    result = runner.invoke(
        main, ["decompose", "--group", "S3", "--rep", str(path), "--prime", "13"]
    )
    assert result.exit_code == 2


def test_decompose_huge_hom_system_exits_2(runner):
    # dim End_G of the S5 regular rep would need a 28800 x 14400 int64
    # Kronecker system (3.3 GB); it is refused before anything is allocated
    start = time.perf_counter()
    result = runner.invoke(main, ["decompose", "--group", "S5", "--rep", "regular"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 2
    assert "the intertwiner system is 28800 x 14400 (414720000 cells)" in result.output
    assert "Traceback" not in result.output and result.exception.__class__ is SystemExit
    assert elapsed < 5


def test_cover_piece_too_large_exits_2(runner):
    # Q8 acting on 8 variables: the Molien check needs the degree-6 piece,
    # 8 dense 1716 x 1716 matrices; it is refused before it is built
    start = time.perf_counter()
    result = runner.invoke(main, ["cover", "--group", "Q8", "--action", "perm", "--max-degree", "1"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 2
    assert "the degree-6 piece is 8 x 1716 x 1716 (23557248 cells)" in result.output
    assert "Traceback" not in result.output and result.exception.__class__ is SystemExit
    assert elapsed < 5


def test_cover_matrix_file_modulus_conflict(runner, tmp_path):
    path = tmp_path / "action.txt"
    path.write_text("p 3\n2\n")
    result = runner.invoke(main, ["cover", "--group", "C2", "--action", str(path), "--prime", "5"])
    assert result.exit_code == 2
    assert "--prime 5 conflicts with file modulus 3" in result.output


def test_cover_matrix_file_bad_homomorphism(runner, tmp_path):
    path = tmp_path / "action.txt"
    path.write_text("p 5\n2\n")  # 2^2 = 4 is not 1 mod 5
    result = runner.invoke(main, ["cover", "--group", "C2", "--action", str(path)])
    assert result.exit_code == 2
    assert "word" in result.output and "Traceback" not in result.output


def test_cover_command(runner):
    result = runner.invoke(
        main, ["cover", "--group", "S3", "--action", "perm3", "--max-degree", "6"]
    )
    assert result.exit_code == 0
    assert "generic multiplicities:   [1, 1, 2]" in result.output
    assert "all checks passed" in result.output


def test_cover_action_file(runner, tmp_path):
    path = tmp_path / "action.txt"
    path.write_text("p 3\n2\n")  # C2 acting by -1 on one variable
    result = runner.invoke(
        main,
        ["cover", "--group", "C2", "--action", str(path), "--max-degree", "6", "--format", "json"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["report"]["generic_multiplicities"] == [1, 1]


def test_cover_rejects_wrong_builtin(runner):
    assert runner.invoke(main, ["cover", "--group", "S3", "--action", "perm5"]).exit_code == 2
    assert runner.invoke(main, ["cover", "--group", "S3", "--action", "scalar"]).exit_code == 2
    assert runner.invoke(main, ["cover", "--group", "C2", "--action", "nosuch"]).exit_code == 2


def test_cyclic_command(runner):
    result = runner.invoke(main, ["cyclic", "--n", "1"])
    assert result.exit_code == 0
    assert "all checks passed" in result.output
    result = runner.invoke(main, ["cyclic", "--n", "4", "--variant", "laurent", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["pass"] is True
    assert doc["model"]["variant"] == "laurent"
    assert len(doc["phi_matrix"]) == 16


def test_cyclic_degree_bound(runner):
    result = runner.invoke(main, ["cyclic", "--n", "33"])
    assert result.exit_code == 2
    assert "--n must be at most 32" in result.output
    assert "Traceback" not in result.output
    assert runner.invoke(main, ["cyclic", "--n", "0"]).exit_code == 2


def test_cyclic_report_alias(runner, tmp_path):
    out = tmp_path / "out.json"
    result = runner.invoke(
        main, ["cyclic", "--n", "2", "--format", "json", "--report", str(out)]
    )
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["phi_det"] == [0, 1]
    assert doc["elementary_divisors"] == [[1], [1], [1], [0, 1]]


def test_verify_all_deterministic(runner, tmp_path):
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    for out in (out1, out2):
        result = runner.invoke(
            main, ["verify-all", "--max-degree", "6", "--format", "json", "--out", str(out)]
        )
        assert result.exit_code == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["pass"] is True
    assert all(o["pass"] for o in doc["outcomes"])


def test_output_file_matches_stdout(runner, tmp_path):
    out = tmp_path / "t.json"
    direct = runner.invoke(main, ["table", "--group", "C4", "--format", "json"])
    to_file = runner.invoke(
        main, ["table", "--group", "C4", "--format", "json", "--out", str(out)]
    )
    assert direct.exit_code == 0 and to_file.exit_code == 0
    assert out.read_text() == direct.output


def _prime_at_or_below(n):
    while not is_prime(n):
        n -= 1
    return n


def _prime_above(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


def test_prime_override_modulus_bound(runner):
    below, above = _prime_at_or_below(MAX_MODULUS), _prime_above(MAX_MODULUS)
    # C2 accepts every odd prime; only the int64 bound separates these two
    result = runner.invoke(main, ["table", "--group", "C2", "--prime", str(below), "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["table"]["values"] == [[1, 1], [1, below - 1]]
    for p in (above, 3037000039, 2**61 - 1):  # 2^61 - 1 is prime: rejected before a primality test
        result = runner.invoke(main, ["table", "--group", "C2", "--prime", str(p)])
        assert result.exit_code == 2
        assert f"exceeds {MAX_MODULUS}" in result.output


def test_matrix_file_modulus_bound(runner, tmp_path):
    below, above = _prime_at_or_below(MAX_MODULUS), _prime_above(MAX_MODULUS)
    path = tmp_path / "sign.txt"
    path.write_text(f"p {below}\n{below - 1}\n")
    result = runner.invoke(main, ["decompose", "--group", "C2", "--rep", str(path), "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["type"] == [0, 1]
    path.write_text(f"p {above}\n{above - 1}\n")
    result = runner.invoke(main, ["decompose", "--group", "C2", "--rep", str(path)])
    assert result.exit_code == 2
    assert f"file modulus {above} exceeds {MAX_MODULUS}" in result.output


def test_table_s4_large_prime(runner):
    # the eigenvalues come from root finding, so a prime near 10^6 is cheap
    p = 1000033
    result = runner.invoke(main, ["table", "--group", "S4", "--prime", str(p), "--format", "json"])
    assert result.exit_code == 0
    t = json.loads(result.output)["table"]
    assert t["modulus"] == p
    assert t["degrees"] == [1, 1, 2, 3, 3]
    group = group_from_name("S4")
    classes = conjugacy_classes(group)
    assert t["class_sizes"] == list(classes.sizes)
    for i, chi in enumerate(t["values"]):
        for j, psi in enumerate(t["values"]):
            acc = sum(s * a * psi[classes.inverse_class[c]] for c, (s, a) in enumerate(zip(classes.sizes, chi)))
            assert acc * pow(group.order, -1, p) % p == (1 if i == j else 0)


def test_cover_max_degree_bounds(runner):
    result = runner.invoke(main, ["cover", "--group", "S3", "--action", "perm3", "--max-degree", "0"])
    assert result.exit_code == 0
    assert "d= 0: [1, 0, 0]" in result.output
    result = runner.invoke(main, ["cover", "--group", "S3", "--action", "perm3", "--max-degree", "-1"])
    assert result.exit_code == 2
    assert "--max-degree" in result.output and "all checks passed" not in result.output


def test_verify_all_max_degree_bounds(runner):
    result = runner.invoke(main, ["verify-all", "--max-degree", "-1"])
    assert result.exit_code == 2
    assert "--max-degree" in result.output
    result = runner.invoke(main, ["verify-all", "--max-degree", "0", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["config"]["max_degree"] == 0


def test_verify_all_witness_on_failure(monkeypatch):
    from isotypic import characters, cli, reps
    from isotypic.errors import NoSplittingElement, WrongImage

    passing = cli.verify_all_document(2)
    real_check = reps.evaluation_iso_check

    def failing_check(rep, i, table, model):
        if table.group.name == "S3" and rep.dim == 3 and i == 2:
            raise WrongImage("planted failure")
        return real_check(rep, i, table, model)

    def failing_split(table, i, group, classes):
        raise NoSplittingElement(f"planted failure {i}")

    monkeypatch.setattr(reps, "evaluation_iso_check", failing_check)
    monkeypatch.setattr(characters, "splitting_element", failing_split)
    doc = cli.verify_all_document(2)
    assert doc["pass"] is False
    by_check = {o["check"]: o for o in doc["outcomes"]}
    assert by_check["S3.evaluation_iso"] == {
        "check": "S3.evaluation_iso",
        "anchor": "evaluation maps are isomorphisms onto the isotypic components",
        "pass": False,
        "witness": {"error": "WrongImage", "message": "planted failure", "group": "S3", "rep": "perm", "irrep": 2},
    }
    assert by_check["Q8.splitting_elements"]["witness"] == {
        "error": "NoSplittingElement", "message": "planted failure 4", "group": "Q8", "irrep": 4,
    }
    # outcomes that did not fail are exactly as in the passing report; the
    # abelian groups have no degree >= 2 irreducible to split
    failed = {"S3.evaluation_iso"} | {f"{g}.splitting_elements" for g in ("S3", "D4", "Q8", "A4")}
    assert {o["check"] for o in doc["outcomes"] if not o["pass"]} == failed
    for o in passing["outcomes"]:
        if o["check"] not in failed:
            assert by_check[o["check"]] == o
        else:
            assert "witness" not in o


@pytest.mark.parametrize(
    "doc",
    [
        {}, [], {"a": []}, [[], {}], (1, 2), [True, False, None, 1, 2.5, "x"],
        {1: True, 2.5: None, None: 1.5, True: "\u00e9\n"}, {"k": [[1, [2]], "s"]},
        float("nan"), [float("inf"), -0.0], [[[]], [[]]], ["a", "a", 1],
    ],
)
def test_json_text_matches_json_dumps_on_edge_cases(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


def test_json_text_rejects_keys_that_json_rejects():
    with pytest.raises(TypeError, match="keys must be str"):
        json_text({(1, 2): 0})


def test_json_text_matches_every_golden_document():
    for path in sorted((Path(__file__).resolve().parent / "golden").glob("*.json")):
        text = path.read_text()
        assert json_text(json.loads(text)) + "\n" == text, path.name


def test_json_text_matches_json_dumps_on_shared_lists():
    # the n = 32 cyclic report: 1024 x 1024 phi entries, equal ones one list
    doc = {"schema": 1, **cyclic.cyclic_report(cyclic.build_cyclic(32)).to_dict()}
    assert len({id(e) for row in doc["phi_matrix"] for e in row}) < 100
    assert json_text(doc) == json.dumps(doc, indent=2)
