"""No module in `src/`, `tests/` or `microbench/` imports a name it never
reads, judged from the AST.  `__future__` imports and the re-exports of the
`__init__.py` files are exempt.  No module in `src/` imports a private name
of another.  Every name that `perfbench/*.py` or `microbench/*.py` takes
from `isotypic` exists: the suite runs neither folder, so a renamed
library function would break them silently."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unread_imports(tree) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_no_module_imports_a_name_it_never_reads():
    unread = sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for folder in ("src", "tests", "microbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
        for name in _unread_imports(ast.parse(path.read_text()))
    )
    assert not unread, "unused imports: " + ", ".join(unread)


PRIVATE_IMPORTS_ALLOWED: set[str] = set()


def test_no_module_imports_a_private_name_of_another():
    private = {
        f"{path.relative_to(ROOT)}: {alias.name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert not private - PRIVATE_IMPORTS_ALLOWED, "private imports: " + ", ".join(
        sorted(private - PRIVATE_IMPORTS_ALLOWED)
    )
    assert PRIVATE_IMPORTS_ALLOWED <= private


def _isotypic_paths(tree) -> set[str]:
    """The dotted path of every name a file imports from `isotypic`, and of
    every attribute chain it reads from a name bound by such an import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name: a.name for a in node.names if a.name.split(".")[0] == "isotypic"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "isotypic":
            bound |= {a.asname or a.name: f"{node.module}.{a.name}" for a in node.names}
    paths = set(bound.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            paths.add(".".join([bound[node.id], *reversed(chain)]))
    return paths


def _resolves(path: str) -> bool:
    """Whether the dotted path names an object: modules, then attributes."""
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            try:
                obj = importlib.import_module(".".join(parts[:k]))
            except ImportError:
                return False
        else:
            obj = getattr(obj, part)
    return True


def test_every_isotypic_name_the_benchmarks_read_exists():
    paths = {
        f"{path.relative_to(ROOT)}: {dotted}"
        for folder in ("perfbench", "microbench")
        for path in sorted((ROOT / folder).glob("*.py"))
        for dotted in _isotypic_paths(ast.parse(path.read_text()))
    }
    assert any(p.endswith("isotypic.cover._sym_power_step") for p in paths)
    assert any(p.endswith("isotypic.reps.irreducible_models") for p in paths)
    missing = sorted(p for p in paths if not _resolves(p.split(": ")[1]))
    assert not missing, "names the benchmarks read that the library lacks: " + ", ".join(missing)
