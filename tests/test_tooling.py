"""The benchmark's tracer (`bench/tracing.py`) wraps library functions at
the module attributes its `BOUNDARIES` name, and calls `run_test` with five
positional arguments. `bench/run.py` builds each pass's JSON report with
`emit_json(reports_from_analysis(name, analysis, mult))` and reads the
engine's `TestReport` fields in `layer_metrics`. A refactor that drops or
reshapes one of them fails here, in-process and by name, rather than only
inside `bench/run.py`."""

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import mutlab.engine as engine
import mutlab.report as report
import mutlab.strategies as strategies
from mutlab.cli import CORPUS_DIR
from mutlab.lang.parser import parse_program

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists(tracing):
    missing = [f"{getattr(b.owner, '__name__', b.owner)}.{b.attr}"
               for b in tracing.BOUNDARIES
               if not callable(getattr(b.owner, b.attr, None))]
    assert missing == []


def test_run_test_takes_the_tracers_five_positional_arguments(tracing):
    assert strategies.run_test is engine.run_test
    assert any(b.owner is strategies and b.attr == "run_test"
               for b in tracing.BOUNDARIES)
    inspect.signature(engine.run_test).bind(*range(5))


def test_tracer_installs_and_uninstalls(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert strategies.run_test is not engine.run_test
    finally:
        tracer.uninstall()
    tracing.assert_clean()


def test_bench_report_build_and_engine_fields(monkeypatch):
    reports = []

    def recording(*args):
        reports.append(engine.run_test(*args))
        return reports[-1]

    monkeypatch.setattr(strategies, "run_test", recording)
    ast = parse_program((CORPUS_DIR / "euler.ml0").read_text())
    analysis = strategies.analyze_program(
        ast, strategies.AnalysisConfig(["traditional", "exec-taints"], 10))
    # the positional call `bench/run.py`'s `run_op` makes
    text = report.emit_json(report.reports_from_analysis("euler", analysis, 10))
    doc = json.loads(text)
    assert doc["schema"] == report.SCHEMA
    assert [r["strategy"] for r in doc["reports"]] == ["traditional",
                                                      "exec-taints"]
    # what `bench/run.py`'s `layer_metrics` reads of each engine report
    assert len(reports) == len(ast.tests)
    for rep in reports:
        read = (len(rep.context_stmts), len(rep.divergences),
                rep.context_stmts[0], sum(rep.context_stmts[1:]),
                rep.infra.total(), rep.infra.mcache_writes, rep.pending_end,
                rep.infra.taint_ops, rep.memo_stats.get("hits", 0),
                rep.memo_stats.get("misses", 0),
                rep.memo_stats.get("clears", 0))
        assert all(type(n) is int and n >= 0 for n in read)
        assert rep.context_stmts[0] > 0 and rep.infra.taint_ops > 0


# The boundaries whose calls the per-layer metrics count, memo ones per
# memo variant
LIVE_BOUNDARIES = [
    "taints.apply_binary", "taints.partition", "taints.concretize_env",
    *(f"memo.{name}.{variant}" for name in ("key", "lookup", "store", "record")
      for variant in ("exec-taints", "exec-taints-nf")),
]


def test_traced_boundaries_stay_live(tracing):
    """A traced corpus `compare` crosses every boundary in LIVE_BOUNDARIES,
    so a refactor that inlines a traced function fails here by name instead
    of reading 0 in the per-layer metrics."""
    asts = [parse_program(p.read_text())
            for p in sorted(CORPUS_DIR.glob("*.ml0"))]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for ast in asts:
            strategies.check_consistency(strategies.analyze_program(ast))
    finally:
        tracer.uninstall()
    assert [label for label in LIVE_BOUNDARIES
            if tracer.calls(label) == 0] == []
