"""Run reports and the JSON/CSV emitters.

JSON output carries `"schema": "mutlab/1"` and is built with a fixed key
order so repeated runs with the same inputs are byte-identical. CSV uses
the header `program,strategy,mutants,killed,survived,not_covered,
program_stmts,infra_ops`, one row per strategy.

`infra_ops` is the engine's bookkeeping cost (0 for the baselines): taint
operations, fork snapshots, memo lookups and stores, and the new
(mutant, call key) mutation-cache records each call writes when it returns.
Taint operations are counted on the root mainline only; diverged mutants
run concretized on the plain interpreter.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .strategies import ProgramAnalysis

SCHEMA = "mutlab/1"

CSV_HEADER = ["program", "strategy", "mutants", "killed", "survived",
              "not_covered", "program_stmts", "infra_ops"]


def verdict_str(v: tuple) -> str:
    if v[0] == "killed":
        return f"killed:{v[1]}"
    return v[0]


@dataclass
class RunReport:
    program: str
    strategy: str
    mutants: int
    killed_by_cause: dict      # {'assertion': n, 'exception': n, 'timeout': n}
    survived: int
    not_covered: int
    program_stmts: int
    infra_ops: int
    verdicts: dict             # mid -> verdict string
    memo_stats: dict = field(default_factory=dict)
    seed: int | None = None
    budget_mult: int = 10

    @property
    def killed(self) -> int:
        return sum(self.killed_by_cause.values())

    @property
    def mutation_score(self) -> float:
        return self.killed / self.mutants if self.mutants else 0.0


def reports_from_analysis(program: str, analysis: ProgramAnalysis,
                          budget_mult: int = 10,
                          seed: int | None = None) -> list[RunReport]:
    reports = []
    for name, run in analysis.runs.items():
        killed = {"assertion": 0, "exception": 0, "timeout": 0}
        survived = not_covered = 0
        for v in run.verdicts.values():
            if v[0] == "killed":
                killed[v[1]] += 1
            elif v[0] == "survived":
                survived += 1
            else:
                not_covered += 1
        memo = {}
        for test, det in sorted(run.details.items()):
            memo[test] = det.get("memo", {})
        reports.append(RunReport(
            program=program,
            strategy=name,
            mutants=len(analysis.mutants),
            killed_by_cause=killed,
            survived=survived,
            not_covered=not_covered,
            program_stmts=run.program_stmts,
            infra_ops=run.infra_ops,
            verdicts={mid: verdict_str(run.verdicts[mid])
                      for mid in sorted(run.verdicts)},
            memo_stats=memo,
            seed=seed,
            budget_mult=budget_mult,
        ))
    return reports


def report_obj(r: RunReport) -> dict:
    return {
        "program": r.program,
        "strategy": r.strategy,
        "mutants": r.mutants,
        "killed": r.killed,
        "killed_by_cause": {k: r.killed_by_cause[k]
                            for k in ("assertion", "exception", "timeout")},
        "survived": r.survived,
        "not_covered": r.not_covered,
        "mutation_score": round(r.mutation_score, 6),
        "program_stmts": r.program_stmts,
        "infra_ops": r.infra_ops,
        "budget_mult": r.budget_mult,
        "seed": r.seed,
        "verdicts": {f"M{mid}": v for mid, v in r.verdicts.items()},
        "memo_stats": r.memo_stats,
    }


def emit_json(reports: list[RunReport]) -> str:
    obj = {"schema": SCHEMA, "reports": [report_obj(r) for r in reports]}
    return json.dumps(obj, indent=2) + "\n"


def emit_csv(reports: list[RunReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in reports:
        w.writerow([r.program, r.strategy, r.mutants, r.killed, r.survived,
                    r.not_covered, r.program_stmts, r.infra_ops])
    return buf.getvalue()
