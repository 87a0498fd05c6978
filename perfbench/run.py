"""Seeded benchmark for isotypic.

Run from the repository root:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

One run measures one workload (see `workloads.py`) in a closed loop from
this one process: a pass starts when the previous one has ended, until
`--seconds` have passed (at least one pass; three with tracing).  Every
pass is checked; the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics: the median calibrated
seconds per pass (`calibration.py`), set-up time (import of `isotypic`
and `isotypic.cli` plus input generation, calibrated the same way, the
median over fresh interpreters started before the first pass), peak
resident memory, the share of passes that succeeded, and the checks made
per pass.  The plain seconds are printed beside them.

`--trace 1` alternates untraced and traced passes and reports the
per-layer spans and counters of `tracer.py`; its self-tests (identical
counters on every traced pass, layer self times adding up to the traced
wall time, no unwrapped alias) decide `correct` too.  Aggregated spans
are written to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("verify-all", "cover-s4", "tables", "models-s5")
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Keep BLAS/OpenMP pools at the CPUs this process may use."""
    n = nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= n:
            os.environ[var] = str(n)


def import_workloads():
    sys.path[:0] = [str(SRC), str(HERE)]
    import isotypic
    import workloads

    if Path(isotypic.__file__).resolve().parent != SRC / "isotypic":
        raise SystemExit(f"isotypic was imported from {isotypic.__file__}, not from {SRC}")
    return workloads


def setup_probe(workload: str, seed: int) -> None:
    """Print the set-up seconds of this fresh interpreter and the slow-down right after."""
    t0 = time.perf_counter()
    wl = import_workloads()
    wl.make_inputs(workload, seed)
    elapsed = time.perf_counter() - t0
    from calibration import Calibration

    calibration = Calibration(memory_share=0.0)
    speed = calibration.sample()
    print(elapsed, calibration.slowdown(speed, speed))


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, slowdown = done.stdout.split()
        samples.append((float(elapsed), float(slowdown)))
    return samples


def fingerprint() -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((SRC / "isotypic").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def tail_percentile(values: list[float]):
    """(q, value) for the highest of p99/p90 with at least ten samples beyond it."""
    ordered = sorted(values)
    for q in (99, 90):
        cut = -(-q * len(ordered) // 100)  # ceil
        if len(ordered) - cut >= 10:
            return q, ordered[cut - 1]
    return None


def run_passes(wl, inputs, seconds: float, tracer):
    """Closed loop; with a tracer, passes go untraced, traced, traced, then alternate.

    The calibration kernels run before the first pass and after every
    pass, so each pass has a measured slow-down on either side of it.
    """
    from calibration import Calibration

    calibration = Calibration(wl.MEMORY_SHARE[inputs.workload])
    passes = []
    start = time.perf_counter()
    speed = calibration.sample()
    while True:
        k = len(passes)
        traced = tracer is not None and (k in (1, 2) or (k > 2 and k % 2 == 0))
        gc.collect()
        if traced:
            tracer.install()
            tracer.reset()
        out, problems = None, []
        t0 = time.perf_counter()
        try:
            out = wl.compute(inputs)
        except Exception:  # a pass that raises is a failed pass; keep its traceback
            problems.append(traceback.format_exc())
        wall = time.perf_counter() - t0
        record = {"wall_s": wall, "traced": traced}
        if traced:
            try:
                record["trace"] = tracer.snapshot(wall)
                escapes = tracer.audit()
            finally:
                tracer.uninstall()
            if escapes:
                problems.append(f"unwrapped aliases escape their spans: {escapes}")
        before, speed = speed, calibration.sample()
        record["slowdown"] = calibration.slowdown(before, speed)
        checks = 0
        if out is not None:
            checker = wl.check(inputs, out)
            checks, problems = checker.checks, problems + checker.problems
        record.update(checks=checks, problems=problems)
        passes.append(record)
        enough = len(passes) >= (3 if tracer is not None else 1)
        if enough and time.perf_counter() - start >= seconds:
            return passes


def trace_metrics(passes) -> tuple[dict, list[str]]:
    traced = [p["trace"] for p in passes if p["traced"]]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    problems = []
    first = traced[0]
    for snap in traced[1:]:
        if snap["counts"] != first["counts"] or snap["function_calls"] != first["function_calls"]:
            problems.append("tracer self-test: counters differ between traced passes")
    for snap in traced:
        total = sum(v for k, v in snap["times"].items() if k.endswith(".self_s")) + snap["unattributed_s"]
        if abs(total - snap["wall_s"]) > 1e-6 * max(1.0, snap["wall_s"]):
            problems.append(f"tracer self-test: self times add to {total}, traced wall is {snap['wall_s']}")
    metrics = {}
    for key in first["times"]:
        metrics[key] = (statistics.median(s["times"][key] for s in traced), "s")
    for key, value in first["counts"].items():
        unit = "ratio" if key.endswith("_ratio") else "count"
        metrics[key] = (value, unit)
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    metrics["unattributed_s"] = (statistics.median(s["unattributed_s"] for s in traced), "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(untraced), "s")
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "isotypic" / "__init__.py").is_file():
        print(f"no isotypic sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    cap_threads()
    os.environ["ISOTYPIC_SEED"] = "0"  # verify-all has fixed inputs
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    setup = measure_setup(args.workload, args.seed)
    wl = import_workloads()
    inputs = wl.make_inputs(args.workload, args.seed)
    tracer = None
    if args.trace:
        import isotypic
        from tracer import LAYERS, Tracer

        layers = {name: sys.modules[f"isotypic.{name}"] for name in LAYERS}
        tracer = Tracer(layers, namespaces=[isotypic, wl])
    passes = run_passes(wl, inputs, args.seconds, tracer)

    attempted = len(passes)
    failed = sum(1 for p in passes if p["problems"])
    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    calibrated = [p["wall_s"] / p["slowdown"] for p in untraced]
    env = fingerprint()
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} passes={attempted}")
    print("env " + json.dumps(env, sort_keys=True))
    for k, p in enumerate(passes):
        status = "ok" if not p["problems"] else "FAILED"
        print(f"pass {k}: {p['wall_s']:.4f} s {'traced' if p['traced'] else 'untraced'} "
              f"checks={p['checks']} {status}")
        for problem in p["problems"]:
            print("  " + problem.rstrip().replace("\n", "\n  "))
    tail = tail_percentile(walls)
    print(f"wall_cal_s {statistics.median(calibrated):.4f} s (median over passes of seconds divided by the "
          f"slow-down the calibration kernels measured around them, "
          f"{min(p['slowdown'] for p in passes):.3f} to {max(p['slowdown'] for p in passes):.3f})")
    print(f"wall_s {statistics.median(walls):.4f} s (median of {len(walls)} untraced passes, "
          f"fastest {min(walls):.4f} s; "
          + (f"p{tail[0]} {tail[1]:.4f} s)" if tail else "no tail percentile: fewer than 10 samples beyond p90)"))
    print(f"setup_s {statistics.median(e / s for e, s in setup):.4f} s calibrated, "
          f"{statistics.median(e for e, _ in setup):.4f} s plain (median of {len(setup)} fresh interpreters)")
    print(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} passes)")

    problems = []
    if args.trace:
        metrics, problems = trace_metrics(passes)
        OUT.mkdir(exist_ok=True)
        dump = {"workload": args.workload, "seed": args.seed, "env": env, "passes": passes}
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(dump, indent=1) + "\n")
    else:
        metrics = {
            "wall_cal_s": (statistics.median(calibrated), "s"),
            "setup_s": (statistics.median(e / s for e, s in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "checks": (statistics.median_low(p["checks"] for p in passes), "count"),
        }
    for problem in problems:
        print(problem)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
