"""Mutation-analysis strategies and kill-matrix assembly.

Seven strategies over the same mutant set:

- traditional: one coverage run, then one isolated run per covered mutant.
- split-stream: mutants share the original execution until each first
  reaches its own mutation site, then run to completion alone. Cost is
  derived from isolated traces: child cost = total - shared prefix, read
  from the mutant's first event.
- modulo-state: diverged streams are additionally shared while their
  observable behavior (the value produced at every executed mutation
  site) stays identical, splitting only at the first differing site
  value. A mutant branches off the original's stream at its first event
  that differs from the original's at the same execution of its site;
  the mutants that leave together go on in a trie over their own events,
  walked four slots per event and keyed by point, kind and value.
- exec-taints-{nf-nm, nf, nm, ""}: the taint engine with fork/memo off
  or on (nf = no fork, nm = no memo).

A run's site events (`Outcome.events`) are one flat list of four slots per
event: point id, statements before it, kind ("val"/"err") and value. The
original's run records the events of every site, a mutant's run only
those of its own: it is the original's run until one of them differs from
the original's, since equal site values leave equal states.

The three baselines share one pass per test that runs each covered mutant
once in isolation (as with mutant schemata, every baseline executes the
same runs). The pass yields the verdicts of all three; each baseline is
only a cost function `(original, outcomes) -> stmts` over its
outcomes. Any verdict disagreement with the taint engine is therefore an
internal-consistency failure. The engine variants likewise share one taint
root per test: the first to run a test runs the root and keeps its record
(`CompiledProgram.roots`), and each later one replays it with its own
children and memo, running its own root only where one of its children
ends otherwise (`engine.run_test`). Every mutant execution (isolated, child,
re-execution) gets the same step budget derived from the original run
(`budget_for`), so timeout verdicts agree.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .engine import EngineConfig, run_test
from .lang.interp import (
    CompiledProgram, Outcome, budget_for, compile_program, run_entry,
)
from .lang.nodes import Ast
from .lang.values import canon_key
from .mutate import (
    Mutant, discover_mutation_points, enumerate_mutants, generate_meta_mutant,
)

STRATEGY_NAMES = [
    "traditional",
    "split-stream",
    "modulo-state",
    "exec-taints-nf-nm",
    "exec-taints-nf",
    "exec-taints-nm",
    "exec-taints",
]

ENGINE_VARIANTS = {
    "exec-taints-nf-nm": (False, False),
    "exec-taints-nf": (False, True),
    "exec-taints-nm": (True, False),
    "exec-taints": (True, True),
}


@dataclass
class AnalysisConfig:
    strategies: list[str] = field(default_factory=lambda: list(STRATEGY_NAMES))
    budget_mult: int = 10


@dataclass
class StrategyRun:
    verdicts: dict            # mid -> ('killed', cause) | ('survived',) | ('not_covered',)
    per_test: dict            # test -> {mid -> verdict}
    program_stmts: int
    infra_ops: int
    memo_stats: dict = field(default_factory=dict)  # test -> stats, engine only


@dataclass
class ProgramAnalysis:
    mutants: list
    runs: dict                # strategy name -> StrategyRun
    invalid_test: str | None = None
    # the original's failing run of `invalid_test`; None when the original
    # passed but the taint engine's mainline did not
    invalid_outcome: Outcome | None = None

    @property
    def valid(self) -> bool:
        return self.invalid_test is None


def merge_verdict(old, new):
    """Kill is sticky across tests; covered beats not-covered."""
    if old is None:
        return new
    if old[0] == "killed":
        return old
    if new[0] == "killed":
        return new
    if old[0] == "survived" or new[0] == "survived":
        return ("survived",)
    return ("not_covered",)


# the baselines that read site events (see above for how)
EVENT_STRATEGIES = ("split-stream", "modulo-state")


def _isolated_runs(program: CompiledProgram, test: str, mutants: list[Mutant],
                   original: Outcome, budget: int, record_events: bool):
    """The one pass the baselines share: each covered mutant runs once in
    isolation. Returns the per-test verdicts and {mid: Outcome} of the
    covered mutants, both in mutant order."""
    verdicts, outcomes = {}, {}
    for m in mutants:
        if m.point_id not in original.covered_points:
            verdicts[m.mid] = ("not_covered",)
            continue
        outcome = outcomes[m.mid] = run_entry(program, test, [], select=m.mid,
                                              budget=budget,
                                              record_events=record_events)
        verdicts[m.mid] = (("survived",) if outcome.cause is None
                           else ("killed", outcome.cause))
    return verdicts, outcomes


def _event_key(trace: list, i: int) -> tuple:
    """The key of the event at slot `i` of a flat `trace`."""
    point_id, kind, v = trace[i], trace[i + 2], trace[i + 3]
    return (point_id, kind, canon_key(v) if kind == "val" else v)


def _group_key(trace: list, i: int) -> tuple:
    """Equal exactly when `_event_key` is, with no `canon_key` for scalars:
    type and value tell them apart (equal nonzero, non-nan floats have equal
    bits); 0.0/-0.0 and nan are keyed by their bits, lists by `_event_key`."""
    point_id, kind, v = trace[i], trace[i + 2], trace[i + 3]
    t = type(v)
    if t is tuple:
        return _event_key(trace, i)
    if t is float and (v == 0.0 or v != v):
        return (point_id, kind, struct.pack("<d", v))
    return (point_id, kind, t, v)


def _trie_cost(members: list[tuple[list, int]], depth: int, base: int) -> int:
    """Shared-execution cost of a group of streams whose flat event traces
    agree on their slots before `depth` (four per event); `base` is the
    statement count already charged for the shared prefix. Streams with
    identical full traces are identical executions and are charged once.
    Events are compared by `_group_key`; the walk steps on without grouping
    while every stream's next event has the first stream's key. The cost is
    a sum, and every subgroup of a split has the same boundary (the
    statements before the splitting event, since equal site values leave
    equal states), so subgroups are visited in the order they were built."""
    cost = 0
    work = [(members, depth, base)]
    while work:
        members, depth, base = work.pop()
        if len(members) == 1:
            cost += members[0][1] - base
            continue
        first, *rest = [trace for trace, _ in members]
        while depth < len(first):
            key = _group_key(first, depth)
            for trace in rest:
                if len(trace) <= depth or _group_key(trace, depth) != key:
                    break
            else:
                depth += 4
                continue
            break
        groups: dict[tuple | None, list] = {}
        for trace, total in members:
            key = _group_key(trace, depth) if len(trace) > depth else None
            groups.setdefault(key, []).append((trace, total))
        if len(groups) == 1:
            # identical complete traces: one shared execution
            cost += max(t for _, t in members) - base
            continue
        # the group splits at the event in slot `depth`; execution (and the
        # statement count) was identical for all members until then,
        # so the run-up to the splitting statement is charged once
        boundary = None
        for key, sub in groups.items():
            if key is None:
                # streams that end here have only the events before slot
                # `depth`, all shared, so identical traces: charged once,
                # at the longest run among them
                cost += max(t for _, t in sub) - base
            else:
                boundary = sub[0][0][depth + 1]
                work.append((sub, depth + 4, boundary))
        if boundary is not None:
            cost += boundary - base
    return cost


def run_traditional(original: Outcome, outcomes: dict) -> int:
    # the coverage run plus every isolated run
    return original.stmts + sum(o.stmts for o in outcomes.values())


def run_split_stream(original: Outcome, outcomes: dict) -> int:
    # the shared main stream, then each mutant's run after its shared prefix:
    # the statements before its site first executes, its first own event
    return original.stmts + sum(o.stmts - o.events[1]
                                for o in outcomes.values())


def run_modulo_state(original: Outcome, outcomes: dict) -> int:
    """The original's path, then each group of mutants that leave it
    together, at one execution of one site with one differing value: those
    run alike until that site's next event, so the trie walks only their
    own events, from the one after the split, with the statements before
    the split already charged."""
    trace = original.events
    slots: dict[int, list] = {}  # point id -> the original's event slots
    for i in range(0, len(trace), 4):
        slots.setdefault(trace[i], []).append(i)
    groups: dict[tuple, list] = {}
    for o in outcomes.values():
        own = o.events
        at = slots[own[0]]
        for j in range(0, len(own), 4):
            key = _group_key(own, j)
            if key != _group_key(trace, at[j // 4]):
                groups.setdefault((j, key), []).append((own, o.stmts))
                break
    cost = original.stmts
    for (j, _), members in groups.items():
        cost += _trie_cost(members, j + 4, members[0][0][j + 1])
    return cost


def analyze_program(ast: Ast, cfg: AnalysisConfig | None = None) -> ProgramAnalysis:
    """Run every requested strategy over every test and aggregate the
    per-test verdicts into one kill matrix per strategy."""
    cfg = cfg or AnalysisConfig()
    points = discover_mutation_points(ast)
    mutants = enumerate_mutants(points)
    meta = generate_meta_mutant(ast, points, mutants)
    program = compile_program(meta)
    point_of = {m.mid: m.point_id for m in mutants}
    mids = [m.mid for m in mutants]
    record_events = any(name in EVENT_STRATEGIES for name in cfg.strategies)
    # the first engine variant to run a test keeps its root for the others
    if sum(name in ENGINE_VARIANTS for name in cfg.strategies) > 1:
        program.roots = {}
    # built per call, not at import, so that a wrapper swapped in for one of
    # these module attributes (bench/tracing.py does) is the one called
    cost_of = {"traditional": run_traditional,
               "split-stream": run_split_stream,
               "modulo-state": run_modulo_state}

    analysis = ProgramAnalysis(mutants, {})
    runs = {name: StrategyRun({}, {}, 0, 0) for name in cfg.strategies}
    analysis.runs = runs

    for test in ast.tests:
        # the original always records events: its coverage is read from
        # them; the engine variants read the run from `program.originals`
        original = program.originals[test] = run_entry(
            program, test, [], record_events=True)
        if original.status != "pass":
            analysis.invalid_test, analysis.invalid_outcome = test, original
            return analysis
        # drop the last test's outcomes before this test's pass runs
        iso_verdicts, outcomes = {}, {}
        if any(name in cost_of for name in cfg.strategies):
            iso_verdicts, outcomes = _isolated_runs(
                program, test, mutants, original,
                budget_for(original.stmts, cfg.budget_mult), record_events)

        for name in cfg.strategies:
            if name in cost_of:
                verdicts, infra = iso_verdicts, 0
                stmts = cost_of[name](original, outcomes)
            elif name in ENGINE_VARIANTS:
                fork, memo = ENGINE_VARIANTS[name]
                ecfg = EngineConfig(fork=fork, memo=memo,
                                    budget_mult=cfg.budget_mult)
                report = run_test(program, test, mids, point_of, ecfg)
                if not report.valid:
                    analysis.invalid_test = test
                    return analysis
                verdicts, stmts = report.verdicts, report.program_stmts
                infra = report.infra.total()
                runs[name].memo_stats[test] = report.memo_stats
            else:
                raise ValueError(f"unknown strategy {name!r}")

            run = runs[name]
            run.per_test[test] = verdicts
            run.program_stmts += stmts
            run.infra_ops += infra
            for mid in mids:
                run.verdicts[mid] = merge_verdict(run.verdicts.get(mid),
                                                  verdicts[mid])
    return analysis


def check_consistency(analysis: ProgramAnalysis) -> list[str]:
    """Kill matrices must agree across strategies, including the kill
    cause: the mutant's first failing event is the same in every strategy
    because executions are identical up to it."""
    problems = []
    names = list(analysis.runs)
    if not names:
        return problems
    ref_name = names[0]
    ref = analysis.runs[ref_name].verdicts
    for name in names[1:]:
        cur = analysis.runs[name].verdicts
        for mid in sorted(ref):
            a, b = ref.get(mid), cur.get(mid)
            if a != b:
                problems.append(f"M{mid}: {ref_name}={a} vs {name}={b}")
    return problems
