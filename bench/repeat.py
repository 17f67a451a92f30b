#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric.

    python3 bench/repeat.py --workload fuzz --seeds 0-9 [--seconds 30]
                            [--trace 0] [--out summary.json]

Runs `bench/run.py` sequentially, one process per seed, and prints for
every metric its median, quartiles (`statistics.quantiles(values, n=4)`)
and spread, the distance between the quartiles as a share of the median.
`--out` writes the same summary, every run's result and the first run's
context as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median, median, median))
        out[name] = {"unit": first["unit"], "median": median, "q1": q1,
                     "q3": q3, "spread": (q3 - q1) / median if median else 0.0}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    results, context = [], None
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        context = context or json.loads(lines[0]).get("context")
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
    summary = summarise(results)
    for name, s in summary.items():
        print(f"{name:44s} {s['median']:14.6g} {s['unit']:6s} "
              f"spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds,
             "seconds": args.seconds, "trace": args.trace,
             "context": context, "summary": summary, "runs": results},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
