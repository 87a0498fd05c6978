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


def test_traced_cyclic_report_leaves_no_escape():
    tracer_mod = load_tracer()
    layers = {name: sys.modules[f"isotypic.{name}"] for name in tracer_mod.LAYERS}
    tracer = tracer_mod.Tracer(layers, namespaces=[isotypic])
    tracer.install()
    try:
        doc = cli.cyclic_report(isotypic.build_cyclic(3))
        escapes = tracer.audit()
    finally:
        tracer.uninstall()
    assert escapes == []
    assert doc["pass"] is True
    assert tracer.calls["cyclic.build_cyclic"] == 1
    assert tracer.calls["cyclic.phi_matrix"] == 1
    assert tracer.layers["polymat"][0] > 0
