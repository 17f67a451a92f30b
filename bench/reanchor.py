#!/usr/bin/env python3
"""Per-strategy wall time on `prime` and on fuzz seeds 0-39.

    python3 bench/reanchor.py

Reproduces the two "Measured at re-anchor" tables of ROADMAP.md so the
benchmark's first baseline can be set against them: each strategy runs
alone through `analyze_program` (no parse, no report), on `prime` as the
median of five runs and on the 40 fuzz programs as one pass. Times are
printed as wall seconds and as reference seconds (see `run.RefClock`).
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

import run


def main() -> int:
    programs, _ = run.setup("corpus", smoke=False)
    from mutlab.lang.parser import parse_program
    from mutlab.strategies import STRATEGY_NAMES, AnalysisConfig, analyze_program

    import fuzz_grammar
    prime = parse_program(next(p.text for p in programs if p.name == "prime"))
    fuzz = [parse_program(fuzz_grammar.fuzz_program(s)) for s in range(40)]
    clock = run.RefClock()

    def timed(ast, name):
        t0 = perf_counter()
        analyze_program(ast, AnalysisConfig([name], run.BUDGET_MULT))
        dt = perf_counter() - t0
        return dt, clock.mark()

    print("| strategy | prime wall ms | prime ref ms | fuzz-40 wall s | fuzz-40 ref s |")
    print("|---|---|---|---|---|")
    for name in STRATEGY_NAMES:
        prime_runs = [timed(prime, name) for _ in range(5)]
        fuzz_runs = [timed(ast, name) for ast in fuzz]
        prime_wall = statistics.median(dt for dt, _ in prime_runs)
        prime_ref = statistics.median(clock.scale(i, dt) for dt, i in prime_runs)
        fuzz_wall = sum(dt for dt, _ in fuzz_runs)
        fuzz_ref = sum(clock.scale(i, dt) for dt, i in fuzz_runs)
        print(f"| {name} | {prime_wall * 1e3:.0f} | {prime_ref * 1e3:.0f} | "
              f"{fuzz_wall:.2f} | {fuzz_ref:.2f} |")
    from mutlab.mutate import discover_mutation_points, enumerate_mutants
    count = sum(len(enumerate_mutants(discover_mutation_points(a))) for a in fuzz)
    print(f"fuzz-40 mutants: {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
