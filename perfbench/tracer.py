"""Per-layer spans and counters, recorded from outside the program.

The layers are the modules of the `isotypic` package.  `Tracer.install`
wraps every public function of each layer, the public methods of its
public classes, and the arithmetic operators of `Poly`, `RatFunc` and
`Permutation`.  Every alias of a wrapped function (the re-exports in
`isotypic/__init__`, each `from .x import f`, and the benchmark's own
imports) is rebound to the wrapper, so no call escapes its span;
`audit` proves it by searching for any reference to an unwrapped
original that is left.

A call that enters a layer from another layer (or from the benchmark)
opens a span.  Hot calls are not stored one by one: spans are aggregated
per (function, calling function), and calls that stay inside one layer
are only counted.  `uninstall` puts every original back, so untraced
passes in the same process run the program exactly as shipped.
"""

from __future__ import annotations

import functools
import inspect
import time
import weakref

LAYERS = ("groups", "arith", "linalg", "characters", "reps", "cover", "cyclic", "polymat", "cli")
ARITH_DUNDERS = frozenset(
    ("__add__", "__sub__", "__mul__", "__neg__", "__pow__", "__floordiv__", "__mod__", "__truediv__")
)
ROOT = "bench"


def _wrappable_methods(cls):
    """(attribute, kind, function) for the methods of a class that get spans.

    Constructors are left alone: building an object is charged to the
    layer that builds it.
    """
    for attr, val in list(vars(cls).items()):
        if isinstance(val, (classmethod, staticmethod)):
            if not attr.startswith("_"):
                yield attr, type(val), val.__func__
        elif inspect.isfunction(val) and (not attr.startswith("_") or attr in ARITH_DUNDERS):
            yield attr, None, val


class Tracer:
    """Wraps the layers of one imported `isotypic` package."""

    def __init__(self, modules: dict, namespaces=()):
        # modules: layer name -> module object; namespaces: further module
        # objects (the package itself, the benchmark's modules) whose
        # aliases must be rebound too.
        self.modules = modules
        self.namespaces = list(namespaces)
        self.calls: dict[str, int] = {}
        self.spans: dict[tuple[str, str], list] = {}
        self.layers = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        self._stack: list[list] = [[ROOT, 0.0, ROOT]]
        self._original_ids: set[int] = set()
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = {
            "linalg.rref": self._after_rref,
            "linalg.nullspace": self._after_nullspace,
            "groups.build_group": self._after_build_group,
            "cover.LinearCoverAction.piece": self._after_piece,
            "polymat.bareiss_det": self._after_bareiss,
        }
        self.reset()

    # -- counters fed by hooks ---------------------------------------------------

    def reset(self) -> None:
        for name in self.calls:
            self.calls[name] = 0
        self.spans.clear()
        for stats in self.layers.values():
            stats[0], stats[1], stats[2] = 0, 0.0, 0.0
        self.counters: dict[str, int] = {
            "linalg.rref_cells": 0,
            "characters.eigen_tries": 0,
            "characters.eigen_hits": 0,
            "groups.elements": 0,
            "cover.distinct_pieces": 0,
            "polymat.bareiss_max_n": 0,
        }
        self._pieces_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._stack[:] = [[ROOT, 0.0, ROOT]]

    def _after_rref(self, args, kwargs, result, caller_layer):
        rows, cols = result[0].shape
        self.counters["linalg.rref_cells"] += rows * cols

    def _after_nullspace(self, args, kwargs, result, caller_layer):
        if caller_layer == "characters":
            self.counters["characters.eigen_tries"] += 1
            if result.shape[0]:
                self.counters["characters.eigen_hits"] += 1

    def _after_build_group(self, args, kwargs, result, caller_layer):
        self.counters["groups.elements"] += result.order

    def _after_piece(self, args, kwargs, result, caller_layer):
        action = args[0]
        d = args[1] if len(args) > 1 else kwargs["d"]
        seen = self._pieces_seen.setdefault(action, set())
        if d not in seen:
            seen.add(d)
            self.counters["cover.distinct_pieces"] += 1

    def _after_bareiss(self, args, kwargs, result, caller_layer):
        n = len(args[0] if args else kwargs["matrix"])
        self.counters["polymat.bareiss_max_n"] = max(self.counters["polymat.bareiss_max_n"], n)

    # -- wrapping --------------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name} is a generator; a span around it would time nothing")
        stack, calls, spans = self._stack, self.calls, self.spans
        stats = self.layers[layer]
        after = self._hooks.get(name)
        clock = time.perf_counter
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            caller = stack[-1]
            if caller[0] == layer:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result, layer)
                return result
            frame = [layer, 0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                caller[1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                key = (name, caller[2])
                span = spans.get(key)
                if span is None:
                    spans[key] = [1, dt]
                else:
                    span[0] += 1
                    span[1] += dt
            if after is not None:
                after(args, kwargs, result, caller[0])
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, layer, name, kind, function) for every wrap site."""
        for layer, mod in self.modules.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    yield mod, attr, layer, f"{layer}.{attr}", None, val
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    for mattr, kind, fn in _wrappable_methods(val):
                        yield val, mattr, layer, f"{layer}.{val.__name__}.{mattr}", kind, fn
                elif inspect.isfunction(getattr(val, "callback", None)):
                    # click commands: the callback is the command's body
                    if val.callback.__module__ == mod.__name__:
                        yield val, "callback", layer, f"{layer}.{attr}", None, val.callback

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        replaced: dict[int, object] = {}
        for owner, attr, layer, name, kind, fn in list(self._targets()):
            wrapper = self._wrap(layer, name, fn)
            replaced[id(fn)] = wrapper
            self._set(owner, attr, kind(wrapper) if kind else wrapper)
        # rebind every other module-level alias of a wrapped function
        for ns in list(self.modules.values()) + self.namespaces:
            for attr, val in list(vars(ns).items()):
                if id(val) in replaced:
                    self._set(ns, attr, replaced[id(val)])
        self._original_ids = set(replaced)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def audit(self) -> list[str]:
        """Names through which an unwrapped original can still be called."""
        escapes = []

        def visit(where: str, val, depth: int) -> None:
            if id(val) in self._original_ids:
                escapes.append(where)
            elif depth and isinstance(val, (list, tuple, set, frozenset)):
                for k, item in enumerate(val):
                    visit(f"{where}[{k}]", item, depth - 1)
            elif depth and isinstance(val, dict):
                for k, item in val.items():
                    visit(f"{where}[{k!r}]", item, depth - 1)
            elif inspect.isfunction(getattr(val, "callback", None)):
                visit(f"{where}.callback", val.callback, 0)

        for ns in list(self.modules.values()) + self.namespaces:
            for attr, val in vars(ns).items():
                visit(f"{ns.__name__}.{attr}", val, 3)
                if inspect.isclass(val) and val.__module__ == ns.__name__:
                    for mattr, mval in vars(val).items():
                        inner = mval.__func__ if isinstance(mval, (classmethod, staticmethod)) else mval
                        visit(f"{ns.__name__}.{attr}.{mattr}", inner, 0)
                if inspect.isfunction(val):
                    for k, default in enumerate(val.__defaults__ or ()):
                        visit(f"{ns.__name__}.{attr}.__defaults__[{k}]", default, 1)
        return escapes

    # -- results -----------------------------------------------------------------------

    def snapshot(self, wall_s: float) -> dict:
        """Per-layer times and counters for the pass that just ended."""
        if len(self._stack) != 1:
            raise RuntimeError("span stack is unbalanced at the end of a pass")
        unattributed = wall_s - self._stack[0][1]
        times = {}
        for layer, (n, incl, self_s) in self.layers.items():
            times[f"{layer}.incl_s"] = incl
            times[f"{layer}.self_s"] = self_s
        calls = self.calls
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        counts = {f"{layer}.calls": stats[0] for layer, stats in self.layers.items()}
        counts.update(
            {
                "groups.perm_products": calls.get("groups.Permutation.__mul__", 0),
                "groups.elements": c["groups.elements"],
                "characters.eigen_tries": c["characters.eigen_tries"],
                "characters.eigen_hit_ratio": ratio(c["characters.eigen_hits"], c["characters.eigen_tries"]),
                "linalg.rref_calls": calls.get("linalg.rref", 0),
                "linalg.rref_cells": c["linalg.rref_cells"],
                "linalg.nullspace_calls": calls.get("linalg.nullspace", 0),
                "reps.projectors": calls.get("reps.isotypic_projector", 0),
                "cover.piece_hit_ratio": ratio(
                    c["cover.distinct_pieces"], calls.get("cover.LinearCoverAction.piece", 0)
                ),
                "arith.poly_mul": calls.get("arith.Poly.__mul__", 0),
                "arith.poly_divmod": calls.get("arith.Poly.divmod", 0),
                "polymat.bareiss_calls": calls.get("polymat.bareiss_det", 0),
                "polymat.bareiss_max_n": c["polymat.bareiss_max_n"],
                "polymat.smith_calls": calls.get("polymat.smith_normal_form", 0),
                "cyclic.phi_builds_per_model": ratio(
                    calls.get("cyclic.phi_matrix", 0), calls.get("cyclic.build_cyclic", 0)
                ),
            }
        )
        return {
            "wall_s": wall_s,
            "unattributed_s": unattributed,
            "times": times,
            "counts": counts,
            "function_calls": dict(sorted((k, v) for k, v in calls.items() if v)),
            "spans": [
                {"name": name, "parent": parent, "calls": n, "seconds": secs}
                for (name, parent), (n, secs) in sorted(self.spans.items())
            ],
        }
