"""Metamorphic relations: how the whole analysis must answer a change of
its input whose effect is known. Every strategy shares the parser, the
compiler and the kernels, so they can all be wrong together; a relation
needs no second implementation to catch that.

Each relation holds for all seven strategies on the corpus and fuzz seeds
0-9. The dead-code and duplicated-test transformations append to the
source, so the original's mutants keep their ids and come first in the new
catalog; renaming keeps every mutant's id, and a larger budget changes no
source at all. Reordering the functions renumbers the mutants, so they are
matched by function, site index within it and replacement.
"""

import re
from functools import cache

import pytest

from mutlab.cli import CORPUS_DIR, CORPUS_PROGRAMS
from mutlab.fuzz import fuzz_program
from mutlab.lang import Ast, parse_program
from mutlab.lang.lexer import KEYWORDS
from mutlab.lang.values import BUILTINS
from mutlab.mutate import discover_mutation_points
from mutlab.report import emit_json, reports_from_analysis
from mutlab.strategies import AnalysisConfig, analyze_program

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


# a number, a comment, a string or a name; only a whole name is renamed
TOKEN = re.compile(r"""[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|#.*"""
                   r"""|"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*'|[^\W\d]\w*""")


def with_renamed_names(src: str) -> str:
    """`src` with every variable and non-test function renamed
    `renamed_<i>`, in order of first use; keywords, test functions and the
    builtins that no function hides keep their names, and string literals
    and comments are left alone."""
    ast = parse_program(src)
    kept = (KEYWORDS | set(ast.tests)
            | (set(BUILTINS) - {f.name for f in ast.functions}))
    names = {}
    for token in TOKEN.findall(src):
        if token.isidentifier() and token not in kept:
            assert not token.startswith("renamed_")
            names.setdefault(token, f"renamed_{len(names)}")
    return TOKEN.sub(lambda m: names.get(m.group(), m.group()), src)


@pytest.mark.parametrize("name", list(SOURCES))
def test_renamed_names_change_no_report_byte(name):
    src = SOURCES[name]
    transformed = with_renamed_names(src)
    assert transformed != src
    assert parse_program(transformed).tests == parse_program(src).tests
    old = original_analysis(name)
    new = analyze_program(parse_program(transformed))
    assert old.valid and new.valid
    old_json, new_json = (emit_json(reports_from_analysis(name, a, 10))
                          for a in (old, new))
    assert new_json == old_json


def with_reversed_functions(src: str) -> str:
    """`src` with its non-test function definitions in reverse order, then
    its test functions in their order."""
    head, *chunks = ("\n" + src).split("\ndef ")
    defs = [f"def {chunk.rstrip()}\n" for chunk in chunks]
    helpers = [d for d in defs if not d.startswith("def test_")]
    tests = [d for d in defs if d.startswith("def test_")]
    return head + "\n" + "\n".join(helpers[::-1] + tests)


def mutant_keys(ast: Ast, mutants: list) -> dict:
    """mid -> (function, index of its site within the function,
    replacement): points are numbered function by function."""
    sites = [(fn.name, i) for fn in ast.functions
             for i in range(len(discover_mutation_points(Ast([fn]))))]
    return {m.mid: (*sites[m.point_id], m.replacement_op) for m in mutants}


@pytest.mark.parametrize("name", list(SOURCES))
def test_reversed_functions_change_no_verdict_or_cost(name):
    src = SOURCES[name]
    old_ast = parse_program(src)
    new_ast = parse_program(with_reversed_functions(src))
    helpers = [f.name for f in old_ast.functions if not f.is_test]
    assert [f.name for f in new_ast.functions] == (
        helpers[::-1] + old_ast.tests)
    old = original_analysis(name)
    new = analyze_program(new_ast)
    assert old.valid and new.valid
    old_keys = mutant_keys(old_ast, old.mutants)
    mid_of = {key: mid for mid, key in
              mutant_keys(new_ast, new.mutants).items()}
    assert sorted(mid_of) == sorted(old_keys.values())
    for strategy, run in old.runs.items():
        got = new.runs[strategy]
        assert [got.verdicts[mid_of[key]] for key in old_keys.values()] == [
            run.verdicts[mid] for mid in old_keys], strategy
        assert (got.program_stmts, got.infra_ops) == (
            run.program_stmts, run.infra_ops), strategy


TIMEOUT = ("killed", "timeout")


@pytest.mark.parametrize("name", list(SOURCES))
def test_larger_budget_moves_only_timeouts(name):
    """Doubling `budget_mult` from 10 to 20 moves no verdict unless one of
    the two is a timeout."""
    old = original_analysis(name)
    new = analyze_program(parse_program(SOURCES[name]),
                          AnalysisConfig(budget_mult=20))
    assert new.valid and new.mutants == old.mutants
    for strategy, run in old.runs.items():
        got = new.runs[strategy].verdicts
        moved = [mid for mid, v in run.verdicts.items()
                 if got[mid] != v and TIMEOUT not in (got[mid], v)]
        assert moved == [], strategy
