"""The benchmark's tracer covers the package: every layer it names is
loaded by `import isotypic`, and once installed no unwrapped alias is
left (the same audit the traced benchmark runs after every pass)."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import isotypic
from isotypic import cli
from isotypic.scenarios import COVER_SCENARIOS, CYCLIC_DEGREES, VERIFY_GROUPS

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_loads_every_layer():
    # In a fresh interpreter, so no other test's imports count.  The package
    # loads every library layer itself (`polymat` only through `cyclic`);
    # `cli`, the command-line front end, is imported by name, as the
    # benchmark's workloads do.
    layers = load_tracer().LAYERS
    probe = (
        "import sys, isotypic; import isotypic.cli; "
        "print(' '.join(m for m in sys.modules if m.startswith('isotypic.')))"
    )
    src = str(Path(isotypic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    missing = [name for name in layers if f"isotypic.{name}" not in loaded.stdout.split()]
    assert missing == []


def install_tracer():
    tracer_mod = load_tracer()
    layers = {name: sys.modules[f"isotypic.{name}"] for name in tracer_mod.LAYERS}
    tracer = tracer_mod.Tracer(layers, namespaces=[isotypic])
    tracer.install()
    return tracer


def test_traced_cyclic_report_leaves_no_escape():
    tracer = install_tracer()
    try:
        report = isotypic.cyclic.cyclic_report(isotypic.build_cyclic(3))
        escapes = tracer.audit()
    finally:
        tracer.uninstall()
    assert escapes == []
    assert report.passed is True
    assert tracer.calls["cyclic.build_cyclic"] == 1
    assert tracer.calls["cyclic.phi_matrix"] == 1
    assert tracer.layers["polymat"][0] > 0


def test_traced_verify_all_goes_through_the_wrappers():
    # `scenarios` is not a traced layer, so the audit cannot see an alias it
    # holds.  Its calls run under the span of `cli.verify_all_document`; an
    # unwrapped `from .reps import decompose` there would drop them from the
    # spans counted here.
    tracer = install_tracer()
    try:
        doc = cli.verify_all_document(2)
        escapes = tracer.audit()
    finally:
        tracer.uninstall()
    assert escapes == []
    assert doc["pass"] is True
    direct = {name: n for (name, parent), (n, _) in tracer.spans.items() if parent == "cli.verify_all_document"}
    assert direct["reps.decompose"] == len(VERIFY_GROUPS)
    assert direct["cover.pushforward_report"] == len(COVER_SCENARIOS)
    assert direct["cyclic.cyclic_report"] == len(CYCLIC_DEGREES) * len(isotypic.cyclic.VARIANTS)
    for name in ("reps.decompose", "cover.pushforward_report", "cyclic.cyclic_report"):
        assert tracer.calls[name] > 0
    for layer in ("reps", "cover", "cyclic", "characters"):
        assert tracer.layers[layer][0] > 0, layer
