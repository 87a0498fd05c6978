"""Four guards on the library's surface, read from the AST of `src/isotypic/`.

Every public, undecorated top-level function or class, and every public
method of a public class, is referenced in code (an AST name or attribute;
docstrings and the re-exports of `__init__.py` do not count) by a library
module or by `perfbench/*.py`.  A bare name in a `perfbench/*.py` file that
the same file defines as a function refers to that function, not to a
library definition.  What only tests call belongs in `tests/`.

No function, method or dataclass takes a value that another of its
arguments carries: a character table fixes its group, classes and prime,
and a representation its group and prime.

Every parameter with a default, of a function, a method or a class
constructor, is passed by keyword or by position in some call in a library
module or in `perfbench/*.py`: a default that no caller overrides is a
constant, not an option.  Calls are matched to definitions by name only, so
a call to another definition of the same name counts too.

Every field of a dataclass is read as an attribute (`x.field`, not only
assigned) in a library module or in `perfbench/*.py`: a field that nothing
reads is a value that nothing needs.  Fields are matched to reads by name
only, so a read of a same-named field of another class counts too.

Every name on the two allowlists below is claimed by an open direction: it
appears in backticks, bare or module-qualified, under "Open items" in
`ROADMAP.md`.  An exception that no direction names is a definition that
nothing will read.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "isotypic").glob("*.py"))

ALLOWED = {
    "power_class_map",  # the Galois action on characters of ROADMAP directions 1 and 18
}

# The argument that carries the values, and the arguments it makes redundant.
CARRIERS = {"table": {"group", "classes", "p"}, "rep": {"group", "p"}}
# `perfbench/workloads.py` calls irreducible_models(group, table).
ALLOWED_REDUNDANT = {"irreducible_models"}


def test_every_public_definition_has_a_library_or_benchmark_reader():
    refs = set()
    for path in MODULES + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        # a benchmark's bare call of its own function reads no library one
        own = set()
        if path.parent.name == "perfbench":
            own = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id not in own:
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


def test_every_allowlisted_name_is_claimed_by_an_open_roadmap_direction():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    assert "\n## Open items\n" in roadmap and "\n## Recent\n" in roadmap
    open_items = roadmap.split("\n## Open items\n", 1)[1].split("\n## Recent\n", 1)[0]
    unclaimed = sorted(
        name for name in ALLOWED | ALLOWED_REDUNDANT if not re.search(rf"`(\w+\.)*{name}\b", open_items)
    )
    assert not unclaimed, "no open ROADMAP direction names these allowlisted names: " + ", ".join(unclaimed)


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


def _defaulted_parameters(scope, cls=None):
    """(callee, position, name) of every parameter with a default: the callee
    is a function's or method's name, or a class name for `__init__` and for
    the init fields of a dataclass; the position counts the arguments a call
    writes (after `self` or `cls`), None for a keyword-only parameter."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, ast.ClassDef):
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields = [
                    s for s in node.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                    and not (s.value is not None and "init=False" in ast.unparse(s.value))
                ]
                yield from ((node.name, pos, s.target.id) for pos, s in enumerate(fields) if s.value is not None)
            yield from _defaulted_parameters(node, node.name)
        elif isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            bound = cls is not None and "staticmethod" not in map(ast.unparse, node.decorator_list)
            callee = cls if node.name == "__init__" else node.name
            for arg in positional[len(positional) - len(args.defaults) :]:
                yield callee, positional.index(arg) - bound, arg.arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield callee, None, arg.arg
            yield from _defaulted_parameters(node)


def _passed_arguments(scope, cls=None):
    """(callee name, keyword) and (callee name, positional count) of every
    call; `cls(...)` in a class body is a call of that class, and a call
    with `*args` or `**kwargs` passes every position or keyword."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            name = cls if name == "cls" and cls else name
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield name, float("inf") if starred else len(node.args)
            yield from ((name, kw.arg or "**") for kw in node.keywords)
        yield from _passed_arguments(node, node.name if isinstance(node, ast.ClassDef) else cls)


def test_every_defaulted_parameter_is_passed_by_a_library_or_benchmark_call():
    passed = set()
    for path in MODULES + sorted((ROOT / "perfbench").glob("*.py")):
        passed |= set(_passed_arguments(ast.parse(path.read_text())))
    widest = {}
    for name, arg in passed:
        if not isinstance(arg, str):
            widest[name] = max(widest.get(name, 0), arg)
    unset = sorted(
        f"{path.name}: {callee}.{param}"
        for path in MODULES
        for callee, pos, param in _defaulted_parameters(ast.parse(path.read_text()))
        if not {(callee, param), (callee, "**")} & passed and (pos is None or widest.get(callee, 0) <= pos)
    )
    assert not unset, "no call sets these defaults; make them constants: " + ", ".join(unset)


def test_every_dataclass_field_is_read_by_a_library_or_benchmark_module():
    reads = set()
    for path in MODULES + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    unread = sorted(
        f"{path.name}: {name}.{field}"
        for path in MODULES
        for name, node in _definitions(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for field in _settable_values(node) - reads
    )
    assert not unread, "nothing reads these dataclass fields; delete them: " + ", ".join(unread)
