"""The taint root runs once per test in an analysis of several engine
variants: the first variant keeps its record (`CompiledProgram.roots`) and
every later one replays it on its own children and memo, running its own
root only where one of its children ends otherwise. A replayed report must
equal the report of a live run, field by field."""

from dataclasses import asdict

import pytest

import mutlab.engine as engine
import mutlab.strategies as strategies
import mutlab.taints as taints
from mutlab.cli import CORPUS_DIR, CORPUS_PROGRAMS
from mutlab.fuzz import fuzz_program
from mutlab.lang import parse_program
from mutlab.strategies import (
    ENGINE_VARIANTS, AnalysisConfig, analyze_program, check_consistency,
)
from test_engine import CHILD_SEQUENCE, CYCLE_WITH_CALL, TAIL_BRANCHES, prepare

VARIANT_OF = {flags: name for name, flags in ENGINE_VARIANTS.items()}

SOURCES = {
    **{name: (CORPUS_DIR / f"{name}.ml0").read_text()
       for name in CORPUS_PROGRAMS},
    **{f"fuzz {seed}": fuzz_program(seed) for seed in range(20)},
    "CHILD_SEQUENCE": CHILD_SEQUENCE,
    "TAIL_BRANCHES": TAIL_BRANCHES,
    "CYCLE_WITH_CALL": CYCLE_WITH_CALL,
}

# The first re-anchor's timeout reproducer: M30 (`11 << 4`) times out in
# its isolated run and in a re-executed child, but a forked child counts
# statements only from its fork, so it returns.
TIMEOUT_REPRODUCER = """\
def work(n):
    i = 0
    s = 0
    while i < n:
        s = s + i
        i = i + 1
    return s

def test_w():
    p = 1
    x = work(11 + 4)
    assert x > 0
"""


def fields(rep) -> tuple:
    return (rep.valid, rep.verdicts, rep.program_stmts, rep.context_stmts,
            asdict(rep.infra), rep.memo_stats, rep.divergences,
            rep.pending_end)


def traced_compare(monkeypatch, src):
    """Analyse `src` with all seven strategies. Returns the analysis and,
    in run order, each engine run's (test, cfg, report, apply_binary calls
    inside it)."""
    runs, calls = [], [0]
    run_test, apply_binary = engine.run_test, taints.apply_binary

    def counting_apply(*args, **kwargs):
        calls[0] += 1
        return apply_binary(*args, **kwargs)

    def recording(program, test, mids, point_of, cfg):
        before = calls[0]
        rep = run_test(program, test, mids, point_of, cfg)
        runs.append((test, cfg, rep, calls[0] - before))
        return rep

    monkeypatch.setattr(taints, "apply_binary", counting_apply)
    monkeypatch.setattr(strategies, "run_test", recording)
    analysis = analyze_program(parse_program(src))
    monkeypatch.undo()
    return analysis, runs


def assert_replays_equal_live(src, runs):
    """Each engine run's report equals `run_test`'s on a freshly compiled
    program, which keeps no record."""
    program, mids, point_of, _ = prepare(src)
    assert program.roots is None
    for test, cfg, rep, _ in runs:
        live = engine.run_test(program, test, mids, point_of, cfg)
        assert fields(rep) == fields(live), (test, cfg)
    assert program.roots is None


@pytest.mark.parametrize("name", list(SOURCES))
def test_a_replayed_report_equals_a_live_one(monkeypatch, name):
    src = SOURCES[name]
    analysis, runs = traced_compare(monkeypatch, src)
    assert analysis.valid
    assert len(runs) == len(ENGINE_VARIANTS) * len(parse_program(src).tests)
    assert_replays_equal_live(src, runs)


def test_compare_runs_the_root_once_per_test(monkeypatch):
    """In a corpus compare pass, the root's binary nodes are evaluated
    inside one engine variant's `run_test` per test, the first's: the
    other three replay its record and none falls back to a live root."""
    for name in CORPUS_PROGRAMS:
        src = SOURCES[name]
        _, runs = traced_compare(monkeypatch, src)
        live = [(test, VARIANT_OF[(cfg.fork, cfg.memo)])
                for test, cfg, _, calls in runs if calls]
        first = next(iter(ENGINE_VARIANTS))
        assert live == [(test, first) for test in parse_program(src).tests], \
            name


def test_one_engine_variant_keeps_no_record(monkeypatch):
    programs = []
    compile_program = strategies.compile_program

    def keeping(meta):
        programs.append(compile_program(meta))
        return programs[-1]

    monkeypatch.setattr(strategies, "compile_program", keeping)
    ast = parse_program(SOURCES["euler"])
    for names in (["exec-taints"], ["traditional", "exec-taints-nf"],
                  ["exec-taints", "exec-taints-nm"]):
        analyze_program(ast, AnalysisConfig(strategies=names))
    one, baseline_and_one, two = programs
    assert one.roots is None and baseline_and_one.roots is None
    assert sorted(two.roots) == sorted(ast.tests)


def test_a_child_that_ends_otherwise_falls_back_to_a_live_root(monkeypatch):
    """On the timeout reproducer a forked child of M30 returns where the
    recorded re-executed one timed out, so `exec-taints-nm` and
    `exec-taints` drop the replay and run their own roots, and the
    disagreement the live roots show stays. Item 3 of ROADMAP (exact
    per-mutant step accounting) will make the children agree, so this test
    changes with it: then every variant replays and `check_consistency`
    returns nothing."""
    analysis, runs = traced_compare(monkeypatch, TIMEOUT_REPRODUCER)
    assert [VARIANT_OF[(cfg.fork, cfg.memo)] for _, cfg, _, calls in runs
            if calls] == ["exec-taints-nf-nm", "exec-taints-nm", "exec-taints"]
    assert_replays_equal_live(TIMEOUT_REPRODUCER, runs)
    assert check_consistency(analysis) == [
        "M30: traditional=('killed', 'timeout') vs exec-taints-nm=('survived',)",
        "M30: traditional=('killed', 'timeout') vs exec-taints=('survived',)",
    ]
