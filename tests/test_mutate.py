"""Mutation-point discovery, mutant enumeration, meta-mutant generation."""

import dataclasses
import hashlib

import pytest

from mutlab.cli import CORPUS_DIR
from mutlab.fuzz import fuzz_program
from mutlab.lang import (
    Expr, If, TaintChoice, compile_program, parse_program, run_entry,
)
from mutlab.lang.values import ARITH_OPS, COMPARE_OPS
from mutlab.mutate import (
    discover_mutation_points, enumerate_mutants, generate_meta_mutant,
    mutant_catalog_lines,
)


def _all_nodes(ast):
    """Every statement and expression node of `ast`, found through the
    dataclass fields rather than the walks under test."""
    stack = list(ast.functions)
    while stack:
        node = stack.pop()
        yield node
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            for child in value if isinstance(value, list) else [value]:
                if dataclasses.is_dataclass(child):
                    stack.append(child)


def _all_exprs(ast):
    return [n for n in _all_nodes(ast) if isinstance(n, Expr)]

SRC = ("def f(a, b):\n"
       "    c = a + b * 2\n"
       "    if c < 10:\n"
       "        c = c - 1\n"
       "    return c\n"
       "\n"
       "def test_f():\n"
       "    assert f(1, 2) == 4\n")


def test_catalog_sizes():
    assert len(ARITH_OPS) == 11
    assert len(COMPARE_OPS) == 6


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


BRANCHY = ("def g(n, xs):\n"
           "    if n < 0:\n"
           "        return -(n * 2)\n"
           "    elif n == 0:\n"
           "        return xs[n + 1]\n"
           "    else:\n"
           "        while n > 1 and not n % 2 == 0:\n"
           "            n = n // 3\n"
           "    return len([n - 1, n | 4]) >> 1\n")


def test_points_follow_the_meta_mutants_choices():
    ast = parse_program(BRANCHY)
    points = discover_mutation_points(ast)
    assert [p.original_op for p in points] == [
        "<", "*", "==", "+", ">", "==", "%", "//", ">>", "-", "|"]
    meta = generate_meta_mutant(ast, points, enumerate_mutants(points))
    choices = {e.point_id: e for e in _all_exprs(meta)
               if isinstance(e, TaintChoice)}
    assert [(choices[p.point_id].loc, choices[p.point_id].variants[0])
            for p in points] == [(p.loc, p.original_op) for p in points]


def test_enumeration_is_stable():
    points = discover_mutation_points(parse_program(SRC))
    mutants = enumerate_mutants(points)
    assert len(mutants) == 10 * 3 + 5 * 2
    assert [m.mid for m in mutants] == list(range(1, len(mutants) + 1))
    # (point order, catalog order)
    assert mutants[0].point_id == 0 and mutants[0].replacement_op == "-"
    lines = mutant_catalog_lines(mutants)
    assert lines[0].startswith("M1 ") and " + -> -" in lines[0]


def test_meta_mutant_invariants():
    ast = parse_program(SRC)
    points = discover_mutation_points(ast)
    meta = generate_meta_mutant(ast, points, enumerate_mutants(points))
    choices = [e for e in _all_exprs(meta) if isinstance(e, TaintChoice)]
    assert len(choices) == len(points)
    assert all(0 in c.variants for c in choices)
    # the single `if` condition is the transformed comparison itself
    [cond] = [s.cond for s in _all_nodes(meta) if isinstance(s, If)]
    assert isinstance(cond, TaintChoice) and cond.variants[0] == "<"
    # the original AST is untouched
    assert not any(isinstance(e, TaintChoice) for e in _all_exprs(ast))


def test_meta_round_trip_matches_original():
    # running the meta-mutant with only M0 selected matches the plain AST
    # in outcome and statement count
    ast = parse_program(SRC)
    plain = run_entry(compile_program(ast), "test_f", [])
    points = discover_mutation_points(ast)
    meta = generate_meta_mutant(ast, points, enumerate_mutants(points))
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


# sha256 of repr(generate_meta_mutant(...)) per corpus program. Re-take
# them only with a check that the new tree equals the old one once the
# nodes or fields a change removes are normalised away; generation must
# also leave the input AST as it was.
META_PINS = {
    "caesar_cypher": "9d735dc4c340628dd458576364396faa56ca79eef994ae3c4344fe0cd333e7ee",
    "entropy": "322bba75eb5f4da4e37b9b387f4563cd944f36fa56128bf392f517dc2688f523",
    "euler": "3387021216c59712363e0d20a84d58e2a4e4eed91e7370b1d7820973d4c790b8",
    "newton": "d37657d4bc58005a29b6820f1cd3de308ff827c1f1d988aa7fd139dce3dafe14",
    "prime": "afd39e01d6566e6933f3d2100adee4c09291f280afd5b68e6660804c8f1aaa11",
}


@pytest.mark.parametrize("name", sorted(META_PINS))
def test_meta_mutant_pinned_on_corpus(name):
    ast = parse_program((CORPUS_DIR / f"{name}.ml0").read_text())
    before = repr(ast)
    points = discover_mutation_points(ast)
    meta = generate_meta_mutant(ast, points, enumerate_mutants(points))
    assert hashlib.sha256(repr(meta).encode()).hexdigest() == META_PINS[name]
    assert repr(ast) == before


# One sha256 over the repr of the AST, the meta-mutant, the points and the
# mutants of each corpus program and each fuzz program of seeds 0-999, taken
# before the lexer became one regular expression, the parser one
# precedence-climbing loop and `Loc`/`MutationPoint`/`Mutant` named tuples.
PARSE_PINS = {
    "corpus, fuzz seeds 0-999":
        "cfd22c79a87aa3f90c0baee1454f0ce2041fcf81d3ed4b4355dfb4fedab8c0bd",
}


def test_front_end_pinned_on_corpus_and_fuzz():
    texts = [path.read_text() for path in sorted(CORPUS_DIR.glob("*.ml0"))]
    texts += [fuzz_program(seed) for seed in range(1000)]
    digest = hashlib.sha256()
    for text in texts:
        ast = parse_program(text)
        points = discover_mutation_points(ast)
        mutants = enumerate_mutants(points)
        meta = generate_meta_mutant(ast, points, mutants)
        digest.update("\n".join([repr(ast), repr(meta), repr(points),
                                 repr(mutants)]).encode())
    assert digest.hexdigest() == PARSE_PINS["corpus, fuzz seeds 0-999"]
