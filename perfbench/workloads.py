"""The four workloads: seeded inputs, one pass each, and the checks on a pass.

Each pass builds everything from fresh objects, as a command-line user
pays for everything on every invocation; no memoized piece, series or
table carries over.  Reports are serialized the way the CLI writes
`--format json` (`json.dumps(doc, indent=2)` plus a newline), and
`pins.json` holds their sha256, made from the real CLI by
`perfbench/pins.py`.

The seed relabels the points of the builtin generators by a seeded
permutation sigma (seed 0 keeps them as they are).  Conjugating every
generator by sigma is an isomorphism, so the breadth-first element order
and the multiplication table do not change; what changes are the
permutation images the program carries (the table's class
representatives, the cover action's variable order).  Mapping those back
through sigma must give the pinned bytes at every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from isotypic import arith, characters, cli, cover, groups, reps

WORKLOADS = ("verify-all", "cover-s4", "tables", "models-s5")
VERIFY_MAX_DEGREE = 12
COVER_MAX_DEGREE = 12
# (group, --prime override): a many-class group, a large group, a large prime
TABLE_CASES = (("S6", None), ("D100", None), ("S4", 10009))
# Share of a pass that runs at the speed of memory-bound numpy work rather
# than of interpreter-bound work; weights the calibration kernels.  The
# values follow the traced profiles (models-s5: rref on systems up to
# 2592x1296; cover-s4: projectors on degree pieces up to dimension 455;
# the others: Python objects and small matrices); for models-s5 and
# cover-s4 they were compared with 0, 0.25, 0.5, 0.75 and 1 over ten seeds.
MEMORY_SHARE = {"verify-all": 0.0, "cover-s4": 0.25, "tables": 0.0, "models-s5": 0.5}
PINS = json.loads((Path(__file__).resolve().parent / "pins.json").read_text())


# -- inputs -----------------------------------------------------------------------------


def builtin_images(name: str) -> list[tuple[int, ...]]:
    """Generator images of the builtin S<n> and D<n>, as `group_from_name` makes them."""
    kind, n = name[0], int(name[1:])
    cycle = tuple(range(1, n)) + (0,)
    if kind == "S":
        return [(1, 0) + tuple(range(2, n)), cycle]
    return [cycle, tuple((n - i) % n for i in range(n))]


def relabeling(seed: int, name: str, degree: int) -> list[int]:
    sigma = list(range(degree))
    if seed:
        random.Random(f"{seed}:{name}").shuffle(sigma)
    return sigma


def conjugate(images, sigma) -> tuple[int, ...]:
    """Images of sigma g sigma^-1, or of g back from them with the inverse of sigma."""
    out = [0] * len(images)
    for x, y in enumerate(images):
        out[sigma[x]] = sigma[y]
    return tuple(out)


def inverse(sigma) -> list[int]:
    inv = [0] * len(sigma)
    for x, y in enumerate(sigma):
        inv[y] = x
    return inv


@dataclass
class Inputs:
    workload: str
    seed: int
    sigmas: dict[str, list[int]]
    generators: dict[str, list]


def make_inputs(workload: str, seed: int) -> Inputs:
    names = {
        "verify-all": (),
        "cover-s4": ("S4",),
        "tables": tuple(name for name, _ in TABLE_CASES),
        "models-s5": ("S5",),
    }[workload]
    sigmas, gens = {}, {}
    for name in names:
        images = builtin_images(name)
        sigma = relabeling(seed, name, len(images[0]))
        sigmas[name] = sigma
        gens[name] = [groups.Permutation(conjugate(g, sigma)) for g in images]
    return Inputs(workload, seed, sigmas, gens)


# -- one pass -----------------------------------------------------------------------------


def report_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


def compute(inp: Inputs) -> dict:
    """Run one pass of the workload; the result is what `check` inspects."""
    if inp.workload == "verify-all":
        return {"report": report_bytes(cli.verify_all_document(VERIFY_MAX_DEGREE))}

    if inp.workload == "cover-s4":
        # as `isotypic cover --group S4 --action perm4 --max-degree 12`
        group = groups.build_group(inp.generators["S4"], name="S4")
        p = arith.choose_prime(group)
        action = cover.perm_action(group, p)
        classes = groups.conjugacy_classes(group)
        table = characters.character_table(group, classes, p)
        report = cover.pushforward_report(action, COVER_MAX_DEGREE, table)
        doc = {"schema": cli.SCHEMA, "report": report.to_dict(), "pass": report.passed}
        return {"report": report_bytes(doc), "table": table}

    if inp.workload == "tables":
        # as `isotypic table --group <name> [--prime <p>]`
        out = {}
        for name, prime in TABLE_CASES:
            group = groups.build_group(inp.generators[name], name=name)
            p = prime or arith.choose_prime(group)
            classes = groups.conjugacy_classes(group)
            table = characters.character_table(group, classes, p)
            idems = characters.central_idempotents(table)
            doc = {
                "schema": cli.SCHEMA,
                "table": table.to_dict(),
                "idempotents": [e.tolist() for e in idems],
                "pass": True,
            }
            out[name] = {"report": report_bytes(doc), "table": table, "idempotents": idems}
        return out

    group = groups.build_group(inp.generators["S5"], name="S5")
    p = arith.choose_prime(group)
    classes = groups.conjugacy_classes(group)
    table = characters.character_table(group, classes, p)
    models = reps.irreducible_models(group, table)
    regular = reps.regular_rep(group, p)
    evaluations = [
        reps.evaluation_iso_check(regular, i, table, models[i]) for i in range(table.num_irreps)
    ]
    return {"table": table, "models": models, "evaluations": evaluations}


# -- checks ---------------------------------------------------------------------------------


class Checker:
    """Counts the checks made on one pass and collects the failed ones."""

    def __init__(self):
        self.checks = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.problems.append(what)

    def digest(self, raw: bytes, pin: str, what: str, normalize=None) -> None:
        """sha256 of the report bytes, after mapping seeded labels back."""
        doc = json.loads(raw)
        canonical = report_bytes(doc) == raw
        if normalize is not None:
            normalize(doc)
        sha = hashlib.sha256(report_bytes(doc)).hexdigest()
        self.expect(canonical and sha == pin, f"{what}: report sha256 {sha} != pinned {pin}")

    def table_invariants(self, table, what: str) -> None:
        order, p = table.group.order, table.p
        self.expect(sum(d * d for d in table.degrees) == order, f"{what}: degree squares do not sum to |G|")
        # entries < p <= 10009, class sizes <= 720, at most 53 classes: int64 is exact
        vals = np.array(table.values, dtype=np.int64)
        sizes = np.array(table.classes.sizes, dtype=np.int64)
        dual = vals[:, list(table.classes.inverse_class)]
        gram = (vals * sizes) @ dual.T % p
        want = np.eye(table.num_irreps, dtype=np.int64) * (order % p)
        self.expect(np.array_equal(gram, want), f"{what}: rows are not orthogonal mod p")


def _unrelabel_table(sigma):
    back = inverse(sigma)

    def normalize(doc):
        doc["table"]["class_reps"] = [list(conjugate(r, back)) for r in doc["table"]["class_reps"]]

    return normalize


def _unrelabel_cover(sigma):
    n = len(sigma)

    def normalize(doc):
        mats = doc["report"]["action"]["generator_matrices"]
        doc["report"]["action"]["generator_matrices"] = [
            [m[sigma[i] * n + sigma[j]] for i in range(n) for j in range(n)] for m in mats
        ]

    return normalize


def check(inp: Inputs, out: dict) -> Checker:
    c = Checker()
    if inp.workload == "verify-all":
        c.digest(out["report"], PINS["verify-all"], "verify-all")
        for o in json.loads(out["report"])["outcomes"]:
            c.expect(o["pass"], f"verify-all: outcome {o['check']} failed")
    elif inp.workload == "cover-s4":
        c.digest(out["report"], PINS["cover-s4"], "cover-s4", _unrelabel_cover(inp.sigmas["S4"]))
        for o in json.loads(out["report"])["report"]["outcomes"]:
            c.expect(o["pass"], f"cover-s4: outcome {o['check']} failed")
        c.table_invariants(out["table"], "cover-s4")
    elif inp.workload == "tables":
        for name, _ in TABLE_CASES:
            case = out[name]
            c.digest(case["report"], PINS[f"tables/{name}"], name, _unrelabel_table(inp.sigmas[name]))
            c.table_invariants(case["table"], name)
            unit = np.zeros(case["table"].group.order, dtype=np.int64)
            unit[0] = 1
            total = sum(case["idempotents"]) % case["table"].p
            c.expect(np.array_equal(total, unit), f"{name}: idempotents do not sum to 1")
    else:
        table = out["table"]
        c.table_invariants(table, "models-s5")
        for i, (model, (ok, assembled)) in enumerate(zip(out["models"], out["evaluations"])):
            d = table.degrees[i]
            trace = tuple(int(np.trace(model.mats[r])) % table.p for r in table.classes.reps)
            c.expect(trace == table.values[i], f"models-s5: model {i} has the wrong character")
            c.expect(reps.hom_dim(model, model, table) == 1, f"models-s5: model {i} is reducible")
            c.expect(
                ok and assembled.shape == (table.group.order, d * d),
                f"models-s5: evaluation map {i} is not an isomorphism onto its component",
            )
    return c
