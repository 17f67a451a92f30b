"""Metamorphic relations: how the whole analysis must answer a change of
its input whose effect is known. Every strategy shares the parser, the
compiler and the kernels, so they can all be wrong together; a relation
needs no second implementation to catch that.

Each relation holds for all seven strategies on the corpus and fuzz seeds
0-9. Both transformations append to the source, so the original's mutants
keep their ids and come first in the new catalog.
"""

from functools import cache

import pytest

from mutlab.cli import CORPUS_DIR, CORPUS_PROGRAMS
from mutlab.fuzz import fuzz_program
from mutlab.lang import parse_program
from mutlab.strategies import analyze_program

SOURCES = {
    **{name: (CORPUS_DIR / f"{name}.ml0").read_text()
       for name in CORPUS_PROGRAMS},
    **{f"fuzz {seed}": fuzz_program(seed) for seed in range(10)},
}

UNCALLED = """
def never_called(a, b):
    if a < b:
        return a + b * 2
    return a - b
"""


def with_duplicated_tests(src: str) -> str:
    """`src` followed by a copy of each test function, renamed
    `<name>_dup`."""
    chunks, copies = ("\n" + src).split("\ndef "), []
    for chunk in chunks[1:]:
        if chunk.startswith("test_"):
            name = chunk[:chunk.index("(")]
            copies.append(f"def {name}_dup" + chunk[len(name):])
    return src.rstrip("\n") + "\n\n" + "\n".join(copies)


@cache
def original_analysis(name: str):
    return analyze_program(parse_program(SOURCES[name]))


def analyses(name: str, transformed: str):
    """Both analyses, the transformed one's first mutants checked to be
    the original's, and the original's mutant ids."""
    old = original_analysis(name)
    new = analyze_program(parse_program(transformed))
    assert old.valid and new.valid
    assert new.mutants[:len(old.mutants)] == old.mutants
    return old, new, [m.mid for m in old.mutants]


@pytest.mark.parametrize("name", list(SOURCES))
def test_uncalled_function_changes_nothing(name):
    src = SOURCES[name]
    assert "never_called" not in src
    old, new, mids = analyses(name, src + UNCALLED)
    added = [m.mid for m in new.mutants[len(mids):]]
    assert added
    for strategy, run in old.runs.items():
        got = new.runs[strategy]
        assert [got.verdicts[mid] for mid in mids] == [
            run.verdicts[mid] for mid in mids], strategy
        assert (got.program_stmts, got.infra_ops) == (
            run.program_stmts, run.infra_ops), strategy
        assert {got.verdicts[mid] for mid in added} == {("not_covered",)}


@pytest.mark.parametrize("name", list(SOURCES))
def test_duplicated_tests_change_no_merged_verdict(name):
    src = SOURCES[name]
    transformed = with_duplicated_tests(src)
    tests = parse_program(src).tests
    assert parse_program(transformed).tests == tests + [
        f"{test}_dup" for test in tests]
    old, new, mids = analyses(name, transformed)
    for strategy, run in old.runs.items():
        got = new.runs[strategy]
        assert [got.verdicts[mid] for mid in mids] == [
            run.verdicts[mid] for mid in mids], strategy
