"""Command-line interface.

Exit codes: 0 success, 1 invalid test (the original fails; the message
names how: status, error kind, location), 2 usage error
(also an unreadable program, an unwritable --out, or a failed write to
stdout, such as a closed pipe or a full disk), 3 strategies disagree
on a verdict, 4 internal error (any other exception, such as Python's
recursion limit on deep recursion), reported as one line on stderr.
The budget multiplier (--budget-mult, else MUTLAB_BUDGET_MULT, else 10)
and `fuzz --count` must be positive integers; anything else is a usage
error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import os
import stat
import sys
from pathlib import Path
from typing import NoReturn

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


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _positive(source: str, text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        _usage_error(f"{source} must be a positive integer, got {text!r}")
    return n


def _budget_mult(flag: str | None) -> int:
    if flag is not None:
        return _positive("--budget-mult", flag)
    return _positive("MUTLAB_BUDGET_MULT",
                     os.environ.get("MUTLAB_BUDGET_MULT", "10"))


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        _usage_error(f"no such program: {path}")
    except (OSError, UnicodeDecodeError) as err:
        _usage_error(f"cannot read program {path}: "
                     f"{getattr(err, 'strerror', None) or err}")
    try:
        return parse_program(text)
    except MiniSyntaxError as err:
        _usage_error(f"{path}: {err}")


def _check_out(out: str | None):
    """Reject an --out that names a directory, or whose parent is missing or
    not a directory, before any analysis runs. `_write_out` still handles
    the write failing, as the file system can change in between."""
    if not out:
        return
    try:
        if os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(Path(out).parent).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as err:
        _usage_error(f"cannot write {out}: {err.strerror}")


def _stdout_failed(err: OSError) -> NoReturn:
    """Writing stdout failed: an I/O error like an unwritable --out. Stdout
    then points at os.devnull, so the interpreter's final flush of what is
    still buffered prints no `Exception ignored`."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    _usage_error(f"cannot write stdout: {err.strerror or err}")


def _emit(text: str):
    try:
        sys.stdout.write(text)
    except OSError as err:
        _stdout_failed(err)


def _flush():
    try:
        sys.stdout.flush()
    except OSError as err:
        _stdout_failed(err)


def _write_out(text: str, out: str | Path | None):
    if not out:
        _emit(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as err:
        _usage_error(f"cannot write {out}: {err.strerror or err}")


def _invalid_failure(analysis) -> str:
    """How the original failed its invalid test, as in `error name at 2:9`,
    `assert at 5:5` or `timeout`."""
    o = analysis.invalid_outcome
    if o is None:
        return "the taint engine's mainline fails where the original passes"
    words = [o.status, o.kind, o.loc and f"at {o.loc}"]
    return " ".join(w for w in words if w)


def _analyze_one(path: str, strategies: list[str], budget_mult: int):
    ast = _load(path)
    analysis = analyze_program(ast, AnalysisConfig(strategies, budget_mult))
    if not analysis.valid:
        print(f"error: invalid test: original fails {analysis.invalid_test} "
              f"in {path}: {_invalid_failure(analysis)}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_TEST)
    return analysis


def _write_reports(args, analysis):
    reports = reports_from_analysis(Path(args.program).stem, analysis,
                                    args.budget_mult)
    text = emit_csv(reports) if args.format == "csv" else emit_json(reports)
    _write_out(text, args.out)


def _disagreements(analysis, prefix: str) -> bool:
    """Print each verdict disagreement between strategies on stderr after
    `prefix`; whether there was one."""
    problems = check_consistency(analysis)
    for p in problems:
        print(f"{prefix}: {p}", file=sys.stderr)
    return bool(problems)


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
    _check_out(args.out)
    _write_reports(args, _analyze_one(args.program, [name], args.budget_mult))
    return EXIT_OK


def cmd_compare(args) -> int:
    _check_out(args.out)
    analysis = _analyze_one(args.program, list(STRATEGY_NAMES),
                            args.budget_mult)
    _write_reports(args, analysis)
    if _disagreements(analysis, "consistency"):
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_mutants(args) -> int:
    ast = _load(args.program)
    mutants = enumerate_mutants(discover_mutation_points(ast))
    _emit("".join(line + "\n" for line in mutant_catalog_lines(mutants)))
    return EXIT_OK


def cmd_corpus(args) -> int:
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            _usage_error(f"cannot write {out_dir}: {err.strerror or err}")
    ratios = []
    worst = EXIT_OK
    rows = []
    for prog in CORPUS_PROGRAMS:
        path = CORPUS_DIR / f"{prog}.ml0"
        analysis = _analyze_one(str(path), list(STRATEGY_NAMES),
                                args.budget_mult)
        if _disagreements(analysis, f"consistency[{prog}]"):
            worst = EXIT_INCONSISTENT
        reports = reports_from_analysis(prog, analysis, args.budget_mult)
        if out_dir:
            _write_out(emit_json(reports), out_dir / f"{prog}.json")
        rows.extend(reports)
        trad = analysis.runs["traditional"].program_stmts
        full = analysis.runs["exec-taints"].program_stmts
        ratios.append(full / trad)
        _emit(f"{prog:15s} mutants={len(analysis.mutants):4d} "
              f"traditional={trad:7d} exec-taints={full:7d} "
              f"ratio={full / trad:.3f}\n")
    mean = sum(ratios) / len(ratios)
    _emit(f"mean exec-taints/traditional ratio: {mean:.3f}\n")
    if out_dir:
        _write_out(emit_csv(rows), out_dir / "summary.csv")
    return worst


def cmd_fuzz(args) -> int:
    worst = EXIT_OK
    for seed in range(args.seed, args.seed + args.count):
        src = fuzz_program(seed)
        if args.dump:
            _emit(f"# seed {seed}\n{src}\n")
        analysis = analyze_program(parse_program(src),
                                   AnalysisConfig(list(STRATEGY_NAMES),
                                                  args.budget_mult))
        if not analysis.valid:
            print(f"seed {seed}: invalid test: {_invalid_failure(analysis)}",
                  file=sys.stderr)
            return EXIT_INVALID_TEST
        if _disagreements(analysis, f"seed {seed}"):
            worst = EXIT_INCONSISTENT
        else:
            _emit(f"seed {seed}: ok ({len(analysis.mutants)} mutants)\n")
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
    p.add_argument("--count", default="1")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--dump", action="store_true",
                   help="print each generated program")
    common(p)
    p.set_defaults(fn=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    try:
        help_text = io.StringIO()
        try:  # argparse would ignore a failed write of its help
            with contextlib.redirect_stdout(help_text):
                args = build_parser().parse_args(argv)
        finally:
            if help_text.tell():
                _emit(help_text.getvalue())
        if "budget_mult" in args:
            args.budget_mult = _budget_mult(args.budget_mult)
        if "count" in args:
            args.count = _positive("--count", args.count)
        return args.fn(args)
    except Exception as err:  # a defect of mutlab, not of the program
        print(f"error: internal: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        _flush()


if __name__ == "__main__":
    sys.exit(main())
