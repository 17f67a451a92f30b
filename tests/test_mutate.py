"""Mutation-point discovery, mutant enumeration, meta-mutant generation."""

import hashlib

import pytest

from mutlab.cli import CORPUS_DIR
from mutlab.lang import (
    TaintChoice, TaintedCond, compile_program, parse_program, run_entry,
    walk_exprs, walk_stmts,
)
from mutlab.lang.interp import eval_plain
from mutlab.mutate import (
    ARITH_CATALOG, COMPARE_CATALOG, _stmt_exprs, discover_mutation_points,
    enumerate_mutants, generate_meta_mutant, mutant_catalog_lines,
)


def _all_exprs(ast):
    for fn in ast.functions:
        for s in walk_stmts(fn.body):
            for root in _stmt_exprs(s):
                yield from walk_exprs(root)

SRC = ("def f(a, b):\n"
       "    c = a + b * 2\n"
       "    if c < 10:\n"
       "        c = c - 1\n"
       "    return c\n"
       "\n"
       "def test_f():\n"
       "    assert f(1, 2) == 4\n")


def test_catalog_sizes():
    assert len(ARITH_CATALOG) == 11
    assert len(COMPARE_CATALOG) == 6


def test_discovery_order_and_classes():
    points = discover_mutation_points(parse_program(SRC))
    assert [(p.original_op, p.op_class) for p in points] == [
        ("+", "arithmetic"), ("*", "arithmetic"), ("<", "comparison"),
        ("-", "arithmetic"), ("==", "comparison"),
    ]
    assert [p.point_id for p in points] == [0, 1, 2, 3, 4]
    assert all(p.original_op not in p.replacements for p in points)
    assert len(points[0].replacements) == 10
    assert len(points[2].replacements) == 5


def test_enumeration_is_stable():
    points = discover_mutation_points(parse_program(SRC))
    mutants = enumerate_mutants(points)
    assert len(mutants) == 10 * 3 + 5 * 2
    assert [m.mid for m in mutants] == list(range(1, len(mutants) + 1))
    # (point order, catalog order)
    assert mutants[0].point_id == 0 and mutants[0].replacement_op == "-"
    lines = mutant_catalog_lines(points, mutants)
    assert lines[0].startswith("M1 ") and " + -> -" in lines[0]


def test_meta_mutant_invariants():
    ast = parse_program(SRC)
    points = discover_mutation_points(ast)
    meta = generate_meta_mutant(ast, points)
    assert all(fn.wrapped for fn in meta.functions)
    choices = [e for e in _all_exprs(meta) if isinstance(e, TaintChoice)]
    conds = [e for e in _all_exprs(meta) if isinstance(e, TaintedCond)]
    assert len(choices) == len(points)
    assert all(0 in c.variants for c in choices)
    assert len(conds) == 1  # the single `if` condition
    # the original AST is untouched
    assert not any(isinstance(e, TaintChoice) for e in _all_exprs(ast))


def test_meta_round_trip_matches_original():
    # running the meta-mutant with only M0 selected matches the plain AST
    # in outcome and statement count
    ast = parse_program(SRC)
    plain = eval_plain(ast, "test_f", {})
    meta = generate_meta_mutant(ast, discover_mutation_points(ast))
    out = run_entry(compile_program(meta), "test_f", [], select=0)
    assert (out.status, out.stmts) == (plain.status, plain.stmts)


def test_selecting_one_mutant_changes_behavior():
    ast = parse_program(SRC)
    points = discover_mutation_points(ast)
    mutants = enumerate_mutants(points)
    meta = generate_meta_mutant(ast, points, mutants)
    prog = compile_program(meta)
    # M1 is `+` -> `-` at point 0: f(1,2) = 1 - 4 = -3, then c - 1 = -4
    out = run_entry(prog, "test_f", [], select=1)
    assert out.status == "assert"


# sha256 of repr(generate_meta_mutant(...)) per corpus program, computed
# with the deep-copying generator; the tree built without a copy must print
# the same, and generation must leave the input AST as it was.
META_PINS = {
    "caesar_cypher": "88537530e77d76bdf6a2dd2dba9b5a5b7bdee0092aa34991d6d9547de4d8dd6b",
    "entropy": "72c25322e97ad3e8fc4595a985363f63f6ae2f86e856753d993fcb1dbf4eefcc",
    "euler": "7cb5672a7c31430a573963b513c3c3e2afdb3339463a8207b4cdf4922815873d",
    "newton": "e1ff976a2c97de0764a2f48c1dd8431d03ca6a7d9d60cd7b0f0afe4bee4fee78",
    "prime": "3fc7763424fa94467b83de59cb00c62ea9d0cdf828253ac0768a44c5072ad855",
}


@pytest.mark.parametrize("name", sorted(META_PINS))
def test_meta_mutant_pinned_on_corpus(name):
    ast = parse_program((CORPUS_DIR / f"{name}.ml0").read_text())
    before = repr(ast)
    points = discover_mutation_points(ast)
    meta = generate_meta_mutant(ast, points, enumerate_mutants(points))
    assert hashlib.sha256(repr(meta).encode()).hexdigest() == META_PINS[name]
    assert repr(ast) == before
