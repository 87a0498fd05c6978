"""Every public, undecorated top-level function or class of `src/isotypic/`
is referenced in code (an AST name or attribute; docstrings and the
re-exports of `__init__.py` do not count) by a library module or by
`perfbench/*.py`.  What only tests call belongs in `tests/`."""

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


def test_every_public_definition_has_a_library_or_benchmark_reader():
    refs = set()
    for path in MODULES + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    public = {
        node.name: path.name
        for path in MODULES
        if path.name != "__init__.py"
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not node.decorator_list
    }
    unread = sorted(f"{module}: {name}" for name, module in public.items() if name not in refs | ALLOWED)
    assert not unread, "only tests read these; move them into tests/: " + ", ".join(unread)
    # the allowlist names only definitions that exist and still have no reader
    assert ALLOWED <= public.keys() and not ALLOWED & refs
