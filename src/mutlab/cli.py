"""Command-line interface.

Exit codes: 0 success, 1 invalid test (the original fails), 2 usage
error, 3 internal consistency failure (strategies disagree on a verdict),
4 internal error (any other exception, such as Python's recursion limit
on a deeply recursive program), reported as one line on stderr.
The budget multiplier (--budget-mult, else MUTLAB_BUDGET_MULT, else 10)
must be a positive integer; anything else is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .fuzz import fuzz_program
from .lang.errors import MiniSyntaxError
from .lang.parser import parse_program
from .mutate import discover_mutation_points, enumerate_mutants, mutant_catalog_lines
from .report import emit_csv, emit_json, reports_from_analysis
from .strategies import (
    STRATEGY_NAMES, AnalysisConfig, analyze_program, check_consistency,
)

EXIT_OK = 0
EXIT_INVALID_TEST = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_INTERNAL = 4

CORPUS_DIR = Path(__file__).resolve().parents[2] / "corpus"
CORPUS_PROGRAMS = ["caesar_cypher", "entropy", "euler", "newton", "prime"]


def _budget_mult(flag: str | None) -> int:
    source = "--budget-mult" if flag is not None else "MUTLAB_BUDGET_MULT"
    text = flag if flag is not None else os.environ.get(source, "10")
    try:
        mult = int(text)
    except ValueError:
        mult = 0
    if mult < 1:
        print(f"error: {source} must be a positive integer, got {text!r}",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return mult


def _load(path: str):
    try:
        return parse_program(Path(path).read_text())
    except FileNotFoundError:
        print(f"error: no such program: {path}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except MiniSyntaxError as err:
        print(f"error: {path}: {err}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_out(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _analyze_one(path: str, strategies: list[str], budget_mult: int):
    ast = _load(path)
    analysis = analyze_program(ast, AnalysisConfig(strategies, budget_mult))
    if not analysis.valid:
        print(f"error: invalid test: original fails {analysis.invalid_test} "
              f"in {path}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_TEST)
    return analysis


def cmd_analyze(args) -> int:
    name = args.strategy
    if name == "exec-taints":
        if args.no_fork and args.no_memo:
            name = "exec-taints-nf-nm"
        elif args.no_fork:
            name = "exec-taints-nf"
        elif args.no_memo:
            name = "exec-taints-nm"
    elif args.no_fork or args.no_memo:
        print("error: --no-fork/--no-memo apply only to exec-taints",
              file=sys.stderr)
        return EXIT_USAGE
    analysis = _analyze_one(args.program, [name], args.budget_mult)
    reports = reports_from_analysis(Path(args.program).stem, analysis,
                                    args.budget_mult)
    text = emit_csv(reports) if args.format == "csv" else emit_json(reports)
    _write_out(text, args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    analysis = _analyze_one(args.program, list(STRATEGY_NAMES),
                            args.budget_mult)
    problems = check_consistency(analysis)
    reports = reports_from_analysis(Path(args.program).stem, analysis,
                                    args.budget_mult)
    text = emit_csv(reports) if args.format == "csv" else emit_json(reports)
    _write_out(text, args.out)
    if problems:
        for p in problems:
            print(f"consistency: {p}", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_mutants(args) -> int:
    ast = _load(args.program)
    points = discover_mutation_points(ast)
    mutants = enumerate_mutants(points)
    for line in mutant_catalog_lines(points, mutants):
        print(line)
    return EXIT_OK


def cmd_corpus(args) -> int:
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    ratios = []
    worst = EXIT_OK
    rows = []
    for prog in CORPUS_PROGRAMS:
        path = CORPUS_DIR / f"{prog}.ml0"
        analysis = _analyze_one(str(path), list(STRATEGY_NAMES),
                                args.budget_mult)
        problems = check_consistency(analysis)
        if problems:
            for p in problems:
                print(f"consistency[{prog}]: {p}", file=sys.stderr)
            worst = EXIT_INCONSISTENT
        reports = reports_from_analysis(prog, analysis, args.budget_mult)
        if out_dir:
            (out_dir / f"{prog}.json").write_text(emit_json(reports))
        rows.extend(reports)
        trad = analysis.runs["traditional"].program_stmts
        full = analysis.runs["exec-taints"].program_stmts
        ratios.append(full / trad)
        print(f"{prog:15s} mutants={len(analysis.mutants):4d} "
              f"traditional={trad:7d} exec-taints={full:7d} "
              f"ratio={full / trad:.3f}")
    mean = sum(ratios) / len(ratios)
    print(f"mean exec-taints/traditional ratio: {mean:.3f}")
    if out_dir:
        (out_dir / "summary.csv").write_text(emit_csv(rows))
    return worst


def cmd_fuzz(args) -> int:
    worst = EXIT_OK
    for seed in range(args.seed, args.seed + args.count):
        src = fuzz_program(seed)
        if args.dump:
            print(f"# seed {seed}")
            print(src)
        analysis = analyze_program(parse_program(src),
                                   AnalysisConfig(list(STRATEGY_NAMES),
                                                  args.budget_mult))
        if not analysis.valid:
            print(f"seed {seed}: invalid test", file=sys.stderr)
            return EXIT_INVALID_TEST
        problems = check_consistency(analysis)
        if problems:
            for p in problems:
                print(f"seed {seed}: {p}", file=sys.stderr)
            worst = EXIT_INCONSISTENT
        else:
            print(f"seed {seed}: ok ({len(analysis.mutants)} mutants)")
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mutlab", description="Mutation analysis with execution taints")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--budget-mult",
                       help="step budget = mult x original statements")

    p = sub.add_parser("analyze", help="run one strategy on one program")
    p.add_argument("--program", required=True)
    p.add_argument("--strategy", required=True, choices=STRATEGY_NAMES)
    p.add_argument("--no-fork", action="store_true")
    p.add_argument("--no-memo", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("compare", help="run all strategies and cross-check")
    p.add_argument("--program", required=True)
    p.add_argument("--all", action="store_true",
                   help="compare all strategies (the default and only mode)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("mutants", help="mutant catalog")
    p.add_argument("action", choices=["list"])
    p.add_argument("--program", required=True)
    p.set_defaults(fn=cmd_mutants)

    p = sub.add_parser("corpus", help="run the five-program corpus")
    p.add_argument("action", choices=["run"])
    p.add_argument("--out", help="directory for JSON/CSV reports")
    common(p)
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("fuzz", help="differential testing on fuzzed programs")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--dump", action="store_true",
                   help="print each generated program")
    common(p)
    p.set_defaults(fn=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "budget_mult" in args:
        args.budget_mult = _budget_mult(args.budget_mult)
    try:
        return args.fn(args)
    except Exception as err:  # a defect of mutlab, not of the program
        print(f"error: internal: {err!r}", file=sys.stderr)
    return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
