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

The three baselines share one pass per test that runs each covered mutant
once in isolation (as with mutant schemata, every baseline executes the
same runs). The pass yields the verdicts of all three; each baseline is
only a cost function `(original, outcomes, point_of) -> stmts` over its
outcomes. Any verdict disagreement with the taint engine is therefore an
internal-consistency failure. Every mutant execution (isolated, child,
re-execution) gets the same step budget derived from the original run
(`budget_for`), so timeout verdicts agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import EngineConfig, HARD_BUDGET, budget_for, run_test
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
            out[v[0]] += 1
        return out


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
        verdicts[m.mid] = _verdict_of(outcome)
    return verdicts, outcomes


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
                    # streams that end here all have exactly the `depth`
                    # shared events, so identical traces: charged once, at
                    # the longest run among them
                    cost += max(t for _, t in sub) - base
                else:
                    boundary = sub[0][0][depth][1]
                    work.append((sub, depth + 1, boundary))
            if boundary is not None:
                cost += boundary - base
            break
    return cost


def run_traditional(original: Outcome, outcomes: dict, point_of: dict) -> int:
    # the coverage run plus every isolated run
    return original.stmts + sum(o.stmts for o in outcomes.values())


def run_split_stream(original: Outcome, outcomes: dict, point_of: dict) -> int:
    stmts = original.stmts  # the shared main stream
    for mid, outcome in outcomes.items():
        # shared prefix: execution up to the statement where this mutant's
        # site first executes (identical to the original until then)
        prefix = 0
        for point_id, stmts_before, _tag in outcome.events:
            if point_id == point_of[mid]:
                prefix = stmts_before
                break
        stmts += outcome.stmts - prefix
    return stmts


def run_modulo_state(original: Outcome, outcomes: dict, point_of: dict) -> int:
    members = [(original.events, original.stmts)]
    members += [(o.events, o.stmts) for o in outcomes.values()]
    return _trie_cost(members, 0, 0)


def analyze_program(ast: Ast, cfg: AnalysisConfig | None = None) -> ProgramAnalysis:
    """Run every requested strategy over every test and aggregate the
    per-test verdicts into one kill matrix per strategy."""
    cfg = cfg or AnalysisConfig()
    points = discover_mutation_points(ast)
    mutants = enumerate_mutants(points)
    meta = generate_meta_mutant(ast, points, mutants)
    program = compile_program(meta)
    tests = ast.tests
    point_of = {m.mid: m.point_id for m in mutants}
    mids = [m.mid for m in mutants]
    record_events = any(name in EVENT_STRATEGIES for name in cfg.strategies)
    # built per call, not at import, so that a wrapper swapped in for one of
    # these module attributes (bench/tracing.py does) is the one called
    cost_of = {"traditional": run_traditional,
               "split-stream": run_split_stream,
               "modulo-state": run_modulo_state}

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
        # drop the last test's outcomes before this test's pass runs
        iso_verdicts, outcomes = {}, {}
        if any(name in cost_of for name in cfg.strategies):
            iso_verdicts, outcomes = _isolated_runs(
                program, test, mutants, original,
                budget_for(original.stmts, cfg.budget_mult), record_events)

        for name in cfg.strategies:
            if name in cost_of:
                verdicts, infra = iso_verdicts, 0
                stmts = cost_of[name](original, outcomes, point_of)
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
