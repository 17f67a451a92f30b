"""The benchmark's tracer (`bench/tracing.py`) wraps library functions at
the module attributes its `BOUNDARIES` name, and calls `run_test` with five
positional arguments. A refactor that drops or reshapes one of them fails
here, in-process and by name, rather than only inside
`bench/run.py --trace 1`."""

import importlib.util
import inspect
from pathlib import Path

import pytest

import mutlab.engine as engine
import mutlab.strategies as strategies

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
