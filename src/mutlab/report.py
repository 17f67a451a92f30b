"""Run reports and the JSON/CSV emitters.

A report is one strategy's `mutlab/1` dict, built by `reports_from_analysis`
in a fixed key order; it is the one representation of a result. `emit_json`
writes the list of them under `"schema": "mutlab/1"`, so repeated runs with
the same inputs are byte-identical. `emit_csv` writes each report's
`CSV_HEADER` fields, `program,strategy,mutants,killed,survived,not_covered,
program_stmts,infra_ops`, one row per strategy.

`infra_ops` is the engine's bookkeeping cost (0 for the baselines): taint
operations, fork snapshots, and memo lookups and stores. The memo's
mutation cache holds reach sets built once with the program, so it adds
nothing. Taint operations are counted on the root mainline only; diverged
mutants run concretized on the plain interpreter.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from json.encoder import encode_basestring_ascii

from .strategies import ProgramAnalysis

SCHEMA = "mutlab/1"

CSV_HEADER = ["program", "strategy", "mutants", "killed", "survived",
              "not_covered", "program_stmts", "infra_ops"]


def reports_from_analysis(program: str, analysis: ProgramAnalysis,
                          budget_mult: int = 10) -> list[dict]:
    mutants = len(analysis.mutants)
    reports = []
    for name, run in analysis.runs.items():
        # a verdict's last slot is its kill cause, "survived" or "not_covered"
        tally = Counter(v[-1] for v in run.verdicts.values())
        causes = {k: tally[k] for k in ("assertion", "exception", "timeout")}
        killed = sum(causes.values())
        reports.append({
            "program": program,
            "strategy": name,
            "mutants": mutants,
            "killed": killed,
            "killed_by_cause": causes,
            "survived": tally["survived"],
            "not_covered": tally["not_covered"],
            "mutation_score": round(killed / mutants, 6) if mutants else 0.0,
            "program_stmts": run.program_stmts,
            "infra_ops": run.infra_ops,
            "budget_mult": budget_mult,
            "seed": None,  # kept so mutlab/1 bytes stay the same; no run is seeded
            "verdicts": {f"M{mid}": ":".join(run.verdicts[mid])
                         for mid in sorted(run.verdicts)},
            "memo_stats": dict(sorted(run.memo_stats.items())),
        })
    return reports


def _json_text(obj, indent: str = "") -> str:
    """What `json.dumps(obj, indent=2)` writes for `obj` nested at `indent`,
    without the pure-Python encoder that CPython uses for any indent."""
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        brackets, items = "{}", [
            f"{encode_basestring_ascii(key)}: {_json_text(value, inner)}"
            for key, value in obj.items()]
    elif isinstance(obj, (list, tuple)):
        brackets, items = "[]", [_json_text(value, inner) for value in obj]
    else:
        return json.dumps(obj)
    if not items:
        return brackets
    sep = "\n" + inner
    return (brackets[0] + sep + ("," + sep).join(items) + "\n" + indent
            + brackets[1])


def emit_json(reports: list[dict]) -> str:
    return _json_text({"schema": SCHEMA, "reports": reports}) + "\n"


def emit_csv(reports: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    w.writerows([r[k] for k in CSV_HEADER] for r in reports)
    return buf.getvalue()
