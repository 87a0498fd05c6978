"""No module in `src/`, `tests/` or `microbench/` imports a name it never
reads, judged from the AST.  `__future__` imports and the re-exports of the
`__init__.py` files are exempt.  No module in `src/` imports a private name
of another, beyond one allowlisted import."""

from __future__ import annotations

import ast
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


# The product check of `cover` sums the forbidden central idempotents and
# takes the one projector P_F of that sum through `reps._group_sum`.
PRIVATE_IMPORTS_ALLOWED = {"src/isotypic/cover.py: _group_sum"}


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
