"""Mutation-analysis strategies and kill-matrix assembly.

Seven strategies over the same mutant set:

- traditional: one coverage run, then one isolated run per covered mutant.
- split-stream: mutants share the original execution until each first
  reaches its own mutation site, then run to completion alone. Cost is
  derived from isolated traces: child cost = total - shared prefix.
- modulo-state: diverged streams are additionally shared while their
  observable behavior (the value produced at every executed mutation
  site) stays identical, splitting only at the first differing site
  value. Cost comes from a trie over per-mutant site-event traces.
- exec-taints-{nf-nm, nf, nm, ""}: the taint engine with fork/memo off
  or on (nf = no fork, nm = no memo).

Verdicts for the three baselines come from isolated runs, so any verdict
disagreement with the taint engine is an internal-consistency failure.
Every mutant execution (isolated, child, re-execution) gets the same step
budget derived from the original run, so timeout verdicts agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import EngineConfig, HARD_BUDGET, run_test
from .lang.interp import CompiledProgram, Outcome, compile_program, run_entry
from .lang.nodes import Ast
from .lang.values import canon_key
from .mutate import (
    Mutant, MutationPoint, discover_mutation_points, enumerate_mutants,
    generate_meta_mutant,
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
    strategy: str
    verdicts: dict            # mid -> ('killed', cause) | ('survived',) | ('not_covered',)
    per_test: dict            # test -> {mid -> verdict}
    program_stmts: int
    infra_ops: int
    details: dict = field(default_factory=dict)


@dataclass
class ProgramAnalysis:
    points: list
    mutants: list
    tests: list
    runs: dict                # strategy name -> StrategyRun
    invalid_test: str | None = None
    original_stmts: dict = field(default_factory=dict)  # test -> stmts

    @property
    def valid(self) -> bool:
        return self.invalid_test is None

    def counts(self, strategy: str) -> dict:
        out = {"killed": 0, "survived": 0, "not_covered": 0}
        for v in self.runs[strategy].verdicts.values():
            out[v[0] if v[0] != "killed" else "killed"] += 1
        return out


def budget_for(original_stmts: int, mult: int) -> int:
    return max(mult * original_stmts, 100)


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


def _verdict_of(outcome: Outcome):
    if outcome.status == "pass":
        return ("survived",)
    if outcome.status == "assert":
        return ("killed", "assertion")
    if outcome.status == "error":
        return ("killed", "exception")
    return ("killed", "timeout")


# the baselines that read site events (split-stream: the first execution
# of a mutant's own site; modulo-state: the whole trace)
EVENT_STRATEGIES = ("split-stream", "modulo-state")


class _IsolatedRuns:
    """Per-test cache of isolated mutant runs (shared by the baselines).
    Site events are recorded only when `record_events` is set."""

    def __init__(self, program: CompiledProgram, test: str, budget: int,
                 record_events: bool):
        self.program = program
        self.test = test
        self.budget = budget
        self.record_events = record_events
        self._cache: dict[int, Outcome] = {}

    def get(self, mid: int) -> Outcome:
        if mid not in self._cache:
            self._cache[mid] = run_entry(self.program, self.test, [],
                                         select=mid, budget=self.budget,
                                         record_events=self.record_events)
        return self._cache[mid]


def _event_key(event) -> tuple:
    point_id, _stmts, tag = event
    if tag[0] == "val":
        return (point_id, "val", canon_key(tag[1]))
    return (point_id, "err", tag[1])


def _trie_cost(members: list[tuple[list, int]], depth: int, base: int) -> int:
    """Shared-execution cost of a group of streams whose event traces agree
    on the first `depth` events; `base` is the statement count already
    charged for the shared prefix. Streams with identical full traces are
    identical executions and are charged once."""
    cost = 0
    work = [(members, depth, base)]
    while work:
        members, depth, base = work.pop()
        while True:
            if len(members) == 1:
                cost += members[0][1] - base
                break
            groups: dict[tuple, list] = {}
            for trace, total in members:
                key = ("end",) if len(trace) <= depth else _event_key(trace[depth])
                groups.setdefault(key, []).append((trace, total))
            if len(groups) == 1:
                if ("end",) in groups:
                    # identical complete traces: one shared execution
                    cost += max(t for _, t in members) - base
                    break
                depth += 1
                continue
            # the group splits at event `depth`; execution (and so the
            # statement count) was identical for all members until then,
            # so the run-up to the splitting statement is charged once
            boundary = None
            # ("end",) sorts apart from event keys; repr keeps the order
            # deterministic without comparing ints to strings
            for key, sub in sorted(groups.items(), key=lambda kv: repr(kv[0])):
                if key == ("end",):
                    # terminated streams each ran alone past the last
                    # shared event; identical traces are charged once,
                    # at the longest run among them
                    by_sig: dict = {}
                    for trace, total in sub:
                        sig = tuple(_event_key(e) for e in trace)
                        by_sig[sig] = max(by_sig.get(sig, 0), total)
                    for total in by_sig.values():
                        cost += total - base
                else:
                    boundary = sub[0][0][depth][1]
                    work.append((sub, depth + 1, boundary))
            if boundary is not None:
                cost += boundary - base
            break
    return cost


def run_traditional(program: CompiledProgram, test: str, mutants: list[Mutant],
                    original: Outcome, iso: _IsolatedRuns):
    verdicts, stmts = {}, original.stmts  # the coverage run
    point_of = {m.mid: m.point_id for m in mutants}
    for m in mutants:
        if point_of[m.mid] not in original.covered_points:
            verdicts[m.mid] = ("not_covered",)
            continue
        outcome = iso.get(m.mid)
        verdicts[m.mid] = _verdict_of(outcome)
        stmts += outcome.stmts
    return verdicts, stmts


def run_split_stream(program: CompiledProgram, test: str, mutants: list[Mutant],
                     original: Outcome, iso: _IsolatedRuns):
    verdicts, stmts = {}, original.stmts  # the shared main stream
    point_of = {m.mid: m.point_id for m in mutants}
    for m in mutants:
        if point_of[m.mid] not in original.covered_points:
            verdicts[m.mid] = ("not_covered",)
            continue
        outcome = iso.get(m.mid)
        verdicts[m.mid] = _verdict_of(outcome)
        # shared prefix: execution up to the statement where this mutant's
        # site first executes (identical to the original until then)
        prefix = 0
        for point_id, stmts_before, _tag in outcome.events:
            if point_id == point_of[m.mid]:
                prefix = stmts_before
                break
        stmts += outcome.stmts - prefix
    return verdicts, stmts


def run_modulo_state(program: CompiledProgram, test: str, mutants: list[Mutant],
                     original: Outcome, iso: _IsolatedRuns):
    verdicts = {}
    point_of = {m.mid: m.point_id for m in mutants}
    members: list[tuple[list, int]] = [(original.events, original.stmts)]
    for m in mutants:
        if point_of[m.mid] not in original.covered_points:
            verdicts[m.mid] = ("not_covered",)
            continue
        outcome = iso.get(m.mid)
        verdicts[m.mid] = _verdict_of(outcome)
        members.append((outcome.events, outcome.stmts))
    stmts = _trie_cost(members, 0, 0)
    return verdicts, stmts


def analyze_program(ast: Ast, cfg: AnalysisConfig | None = None) -> ProgramAnalysis:
    """Run every requested strategy over every test and aggregate the
    per-test verdicts into one kill matrix per strategy."""
    cfg = cfg or AnalysisConfig()
    points = discover_mutation_points(ast)
    mutants = enumerate_mutants(points)
    meta = generate_meta_mutant(ast, points, mutants)
    program = compile_program(meta)
    tests = [f.name for f in ast.functions if f.is_test]
    point_of = {m.mid: m.point_id for m in mutants}
    mids = [m.mid for m in mutants]
    record_events = any(name in EVENT_STRATEGIES for name in cfg.strategies)

    analysis = ProgramAnalysis(points, mutants, tests, {})
    runs = {name: StrategyRun(name, {}, {}, 0, 0) for name in cfg.strategies}
    analysis.runs = runs

    for test in tests:
        original = run_entry(program, test, [], select=0,
                             budget=HARD_BUDGET, record_events=record_events)
        analysis.original_stmts[test] = original.stmts
        if original.status != "pass":
            analysis.invalid_test = test
            return analysis
        budget = budget_for(original.stmts, cfg.budget_mult)
        iso = _IsolatedRuns(program, test, budget, record_events)

        for name in cfg.strategies:
            if name == "traditional":
                verdicts, stmts = run_traditional(program, test, mutants,
                                                  original, iso)
                infra = 0
            elif name == "split-stream":
                verdicts, stmts = run_split_stream(program, test, mutants,
                                                   original, iso)
                infra = 0
            elif name == "modulo-state":
                verdicts, stmts = run_modulo_state(program, test, mutants,
                                                   original, iso)
                infra = 0
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
                runs[name].details[test] = {
                    "contexts": len(report.context_stmts),
                    "divergences": len(report.divergences),
                    "memo": report.memo_stats,
                }
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
