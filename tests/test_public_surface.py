"""Two guards on the library's surface, read from the AST of `src/isotypic/`.

Every public, undecorated top-level function or class, and every public
method of a public class, is referenced in code (an AST name or attribute;
docstrings and the re-exports of `__init__.py` do not count) by a library
module or by `perfbench/*.py`.  What only tests call belongs in `tests/`.

No function, method or dataclass takes a value that another of its
arguments carries: a character table fixes its group, classes and prime,
and a representation its group and prime.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "isotypic").glob("*.py"))

ALLOWED = {
    "power_class_map",  # the Galois action on characters of ROADMAP direction 1
    "subgroup_invariants",  # Reynolds images, ROADMAP direction 2
    "intermediate_fixed_ring",  # intermediate quotients of the covers, ROADMAP direction 2
}

# The argument that carries the values, and the arguments it makes redundant.
CARRIERS = {"table": {"group", "classes", "p"}, "rep": {"group", "p"}}
# `perfbench/workloads.py` calls irreducible_models(group, table).
ALLOWED_REDUNDANT = {"irreducible_models"}


def test_every_public_definition_has_a_library_or_benchmark_reader():
    refs = set()
    for path in MODULES + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    public = {}
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if not node.decorator_list:
                public[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        public[method.name] = f"{path.name}: {node.name}"
    unread = sorted(f"{where}: {name}" for name, where in public.items() if name not in refs | ALLOWED)
    assert not unread, "only tests read these; move them into tests/: " + ", ".join(unread)
    # the allowlist names only definitions that exist and still have no reader
    assert ALLOWED <= public.keys() and not ALLOWED & refs


def _definitions(scope, prefix=""):
    """(qualified name, node) of every function, class and method in scope."""
    for node in scope.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node, f"{prefix}{node.name}.")


def _settable_values(node) -> set[str]:
    """Parameter names of a function or method, field names of a dataclass."""
    if isinstance(node, ast.FunctionDef):
        args = node.args
        return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
        return {s.target.id for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
    return set()


def test_no_signature_takes_a_value_another_argument_carries():
    redundant = {}
    for path in MODULES:
        for name, node in _definitions(ast.parse(path.read_text())):
            values = _settable_values(node)
            for carrier, carried in CARRIERS.items():
                if carrier in values and values & carried:
                    redundant[name] = f"{path.name}: {name} takes {carrier} and {sorted(values & carried)}"
    found = sorted(v for k, v in redundant.items() if k not in ALLOWED_REDUNDANT)
    assert not found, "read these from the carrying argument: " + "; ".join(found)
    # the allowlist names only signatures that still take a carried value
    assert ALLOWED_REDUNDANT <= redundant.keys()
