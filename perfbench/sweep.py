"""Run the benchmark over several seeds and summarize each metric.

Run from the repository root, one run at a time:

    python3 perfbench/sweep.py --workload tables --seeds 1-10 --seconds 20 [--trace 1] [--json FILE]

For every metric it prints the median over the runs, the first and third
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        summary[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", help="also write the summary to this file")
    args = ap.parse_args()

    results = []
    for seed in seed_list(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=900, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    summary = summarize(results)
    for name, s in summary.items():
        print(f"{name:32s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                               "seconds": args.seconds, "trace": args.trace,
                                               "all_correct": all(r["correct"] for r in results),
                                               "metrics": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
