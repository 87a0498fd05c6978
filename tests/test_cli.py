"""Command-line interface: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from isotypic import cyclic
from isotypic.arith import MAX_MODULUS, choose_prime, is_prime
from isotypic.cli import json_text, main
from isotypic.groups import conjugacy_classes, group_from_name
from isotypic.reps import permutation_rep

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


@pytest.mark.parametrize(
    ("group", "prime", "reason"),
    [
        ("S4", 3, "divides the group order 24"),
        ("S3", 5, "is not 1 mod the exponent 6"),
        ("D2", 3, "must exceed the group order 4"),
    ],
)
def test_table_prime_override_names_the_broken_rule(runner, group, prime, reason):
    result = runner.invoke(main, ["table", "--group", group, "--prime", str(prime)])
    assert result.exit_code == 2
    assert f"Error: --prime {prime} {reason}\n" in result.output


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


def test_decompose_huge_hom_system_exits_2(runner, monkeypatch):
    # `hom_dim` guards the |G| x dim x m translates of the largest
    # multiplicity space, m from the characters, before it builds any
    # model: the S5 regular rep's are 120 x 120 x 6, here above a lowered
    # cell limit
    from isotypic import reps

    monkeypatch.setattr(reps, "MAX_SYSTEM_CELLS", 6 * 120 * 120 - 1)
    monkeypatch.setattr(reps, "irreducible_models", lambda *args: pytest.fail("a model was built"))
    start = time.perf_counter()
    result = runner.invoke(main, ["decompose", "--group", "S5", "--rep", "regular"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 2
    assert "the array of the translates of W is 120 x 120 x 6 (86400 cells)" in result.output
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


@pytest.mark.parametrize("modulus", [0, 1, 4, -7])
@pytest.mark.parametrize("command", [["decompose", "--rep"], ["cover", "--action"]], ids=["decompose", "cover"])
def test_matrix_file_modulus_that_is_not_prime_exits_2(runner, tmp_path, command, modulus):
    # checked before any row is reduced: `p 0` used to divide by zero
    path = tmp_path / "m.txt"
    path.write_text(f"p {modulus}\n1\n")
    result = runner.invoke(main, [command[0], "--group", "C2", command[1], str(path)])
    assert result.exit_code == 2
    assert f"file modulus {modulus} is not prime" in result.output
    assert "Traceback" not in result.output and result.exception.__class__ is SystemExit


def test_matrix_file_modulus_is_named_in_prime_errors(runner, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("p 5\n0 1\n1 0\n\n0 4\n1 4\n")  # S3 has exponent 6
    result = runner.invoke(main, ["decompose", "--group", "S3", "--rep", str(path)])
    assert result.exit_code == 2
    assert "file modulus 5 is not 1 mod the exponent 6" in result.output


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


def test_cover_action_file_of_permutation_matrices_matches_the_builtin(runner, tmp_path):
    # the file goes through rep_from_matrices, the builtin through permutation_rep
    group = group_from_name("S4")
    p = choose_prime(group)
    mats = permutation_rep(group, p).mats[list(group.generator_indices)]
    blocks = ["\n".join(" ".join(map(str, row)) for row in m) for m in mats.tolist()]
    path = tmp_path / "perm4.txt"
    path.write_text(f"p {p}\n" + "\n\n".join(blocks) + "\n")
    args = ["cover", "--group", "S4", "--max-degree", "8", "--format", "json", "--action"]
    from_file = runner.invoke(main, args + [str(path)])
    builtin = runner.invoke(main, args + ["perm4"])
    assert from_file.exit_code == 0 and builtin.exit_code == 0
    assert from_file.output == builtin.output


def test_cover_rejects_wrong_builtin(runner):
    assert runner.invoke(main, ["cover", "--group", "S3", "--action", "perm5"]).exit_code == 2
    assert runner.invoke(main, ["cover", "--group", "S3", "--action", "scalar"]).exit_code == 2
    assert runner.invoke(main, ["cover", "--group", "C2", "--action", "nosuch"]).exit_code == 2


def test_cover_scalar_action_of_the_trivial_group(runner):
    # C1 has no generators, so the scalar action has no generator matrices
    result = runner.invoke(main, ["cover", "--group", "C1", "--action", "scalar", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["report"]["multiplicities_by_degree"] == [[1]] * (doc["report"]["max_degree"] + 1)


@pytest.mark.parametrize("name", ["D1", "D2"])
def test_cover_reflection_action_needs_a_rotation(runner, name):
    # D1 is one transposition and D2 two commuting ones: no rotation generator
    result = runner.invoke(main, ["cover", "--group", name, "--action", "reflection"])
    assert result.exit_code == 2
    assert f"reflection actions need D<n> with n >= 3: {name} has no rotation generator" in result.output
    assert "Traceback" not in result.output and result.exception.__class__ is SystemExit


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

    def failing_split(table, i):
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


def _failing_outcomes(runner, args):
    """{check: witness} of the failing outcomes of a JSON run, and the text run."""
    doc = json.loads(runner.invoke(main, [*args, "--format", "json"]).output)
    outcomes = doc["report"]["outcomes"] if "report" in doc else doc["outcomes"]
    text = runner.invoke(main, [*args, "--format", "text"]).output
    return {o["check"]: o["witness"] for o in outcomes if not o["pass"]}, text


def _planted_idempotents(group_name, plant):
    """The verify-all table of `group_name` with its idempotent rows planted
    as `plant(rows)` mod p, and the regular rep of its group: the arguments
    of `scenarios._idempotents_witness`."""
    from dataclasses import replace

    import numpy as np
    from isotypic import reps, scenarios

    table = replace(scenarios._table(group_name))
    table._idempotents = list(plant(np.array(table.idempotents())) % table.p)
    return table, reps.regular_rep(table.group, table.p)


def test_idempotents_outcome_witnesses_the_first_wrong_product(runner, monkeypatch):
    import numpy as np
    from isotypic import reps, scenarios

    def merge(rows):
        rows[1] = rows[0] + rows[1]
        return rows

    # e_1 planted as e_0 + e_1: e_0 e_0 = e_0 is right, and e_0 (e_0 + e_1)
    # = e_0 is the first wrong product
    assert scenarios._idempotents_witness(*_planted_idempotents("S3", merge)) == {"product": [0, 1]}

    # through the command: P_1 of D4's regular rep read as P_0, so row 0 is
    # right and P_1 e_0 = e_0 is the first wrong product
    real = reps.isotypic_projector

    def planted(rep, i, table):
        regular = rep.images is not None and np.array_equal(rep.images, table.group.mult)
        return real(rep, 0 if table.group.name == "D4" and regular and i == 1 else i, table)

    monkeypatch.setattr(reps, "isotypic_projector", planted)
    failing, text = _failing_outcomes(runner, ["verify-all", "--max-degree", "2"])
    assert failing == {"D4.idempotents": {"product": [1, 0]}}
    assert '[FAIL] D4.idempotents: orthogonal central idempotents summing to 1\n        witness: {"product": [1, 0]}\n' in text


def test_idempotents_outcome_witnesses_the_first_wrong_coefficient_of_the_sum():
    from isotypic import scenarios

    def drop(k):
        def plant(rows):
            rows[k] = 0
            return rows

        return plant

    # dropping any of Q8's five e_k leaves every product right; the sum
    # 1 - e_k is then wrong at the identity, where e_k is deg_k/|G|
    for k in range(5):
        assert scenarios._idempotents_witness(*_planted_idempotents("Q8", drop(k))) == {"element": 0}
    assert scenarios._idempotents_witness(*_planted_idempotents("Q8", lambda rows: rows)) is None


def test_regular_type_outcome_witnesses_the_multiplicities(runner, monkeypatch):
    from isotypic import reps

    real = reps.decompose

    def planted(rep, table):
        decomp = real(rep, table)
        if table.group.name == "S3" and rep.dim == 6:
            return reps.IsotypicDecomposition(decomp.components, decomp.multiplicities[::-1])
        return decomp

    monkeypatch.setattr(reps, "decompose", planted)
    failing, text = _failing_outcomes(runner, ["verify-all", "--max-degree", "2"])
    witness = {"multiplicities": [2, 1, 1], "degrees": [1, 1, 2]}
    assert failing == {"S3.regular_type": witness}
    assert f"        witness: {json.dumps(witness)}\n" in text


def test_equivariance_outcome_witnesses_the_first_differing_entry(runner, monkeypatch):
    # one more on C[0, 0]: (C S)[0, 0] = C[0, 0] for the translation action,
    # while (T C)[0, 0] is the intact entry of row (n - 1, 0)
    from dataclasses import replace

    real = cyclic.phi_matrix

    def planted(model):
        phi = real(model)
        const = phi.const.copy()
        const[0, 0] = (const[0, 0] + 1) % model.p
        return replace(phi, const=const)

    monkeypatch.setattr(cyclic, "phi_matrix", planted)
    failing, text = _failing_outcomes(runner, ["cyclic", "--n", "3"])
    witness = {"action": "translation", "row": 0, "column": 0}
    assert failing["cyclic.equivariance"] == witness
    assert "[FAIL] cyclic.equivariance: phi intertwines the translation and twisted cyclic actions\n" in text
    assert f"        witness: {json.dumps(witness)}\n" in text


def test_verify_all_builds_each_character_table_once(monkeypatch):
    # every library binding of `character_table` counts, aliases included
    import isotypic
    from isotypic import characters, scenarios

    real = characters.character_table
    calls = []

    def counting(group, classes, p):
        calls.append(group.name)
        return real(group, classes, p)

    for name in dir(isotypic):
        module = getattr(isotypic, name)
        if getattr(module, "character_table", None) is real:
            monkeypatch.setattr(module, "character_table", counting)
    scenarios.verify_all(12)
    assert sorted(calls) == sorted(scenarios.VERIFY_GROUPS)


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
