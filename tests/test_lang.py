"""Language core: lexer/parser, plain semantics, execution counting."""

import hashlib
import itertools
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mutlab.cli import CORPUS_DIR
from mutlab.engine import HARD_BUDGET
from mutlab.lang import (
    MiniRuntimeError, MiniSyntaxError, compile_program, eval_plain,
    parse_program, run_entry, to_source,
)
from mutlab.lang.lexer import OPERATORS as LEX_OPERATORS, _lex_line
from mutlab.lang.values import (
    ARITH_OPS, COMPARE_OPS, INT_MAX, INT_MIN, OPERATORS, binary_op, bool_op,
    canon_key, compare_op, plain_eq,
)
from mutlab.mutate import (
    discover_mutation_points, enumerate_mutants, generate_meta_mutant,
)
from mutlab.strategies import budget_for


def run_src(src, entry="main", env=None):
    return eval_plain(parse_program(src), entry, env or {})


class TestParser:
    def test_simple_function(self):
        ast = parse_program("def f(x):\n    return x + 1\n")
        assert [f.name for f in ast.functions] == ["f"]

    def test_test_functions_are_flagged(self):
        ast = parse_program(
            "def f():\n    return 1\n\ndef test_f():\n    assert f() == 1\n")
        assert [f.is_test for f in ast.functions] == [False, True]

    def test_elif_desugars(self):
        src = ("def f(x):\n"
               "    if x < 0:\n"
               "        return 0\n"
               "    elif x < 10:\n"
               "        return 1\n"
               "    else:\n"
               "        return 2\n")
        assert run_src(src, "f", {"x": 5}).value == 1
        assert run_src(src, "f", {"x": 50}).value == 2

    def test_aug_assign_desugars(self):
        src = "def f(x):\n    x += 3\n    x *= 2\n    return x\n"
        assert run_src(src, "f", {"x": 4}).value == 14
        # the printer restores the sugar
        assert "x += 3" in to_source(parse_program(src))

    def test_top_level_statement_rejected(self):
        with pytest.raises(MiniSyntaxError):
            parse_program("x = 1\n")

    def test_duplicate_function_rejected(self):
        with pytest.raises(MiniSyntaxError):
            parse_program("def f():\n    return 1\ndef f():\n    return 2\n")

    def test_tabs_rejected(self):
        with pytest.raises(MiniSyntaxError):
            parse_program("def f():\n\treturn 1\n")

    def test_print_parse_fixed_point(self):
        src = ("def f(a, b):\n"
               "    c = (a + b) * 2 - a % 3\n"
               "    while c > 0:\n"
               "        c = c - 1\n"
               "    if a < b and b != 0:\n"
               "        return [a, b][0]\n"
               "    return -c\n")
        once = to_source(parse_program(src))
        assert to_source(parse_program(once)) == once


# the lexer's operator list before it became a set, in its matching order
REFERENCE_OPERATORS = [
    "//=", "<<", ">>", "==", "!=", "<=", ">=", "//",
    "+=", "-=", "*=", "/=", "%=",
    "+", "-", "*", "/", "%", "<", ">", "=", "|", "^", "&",
    "(", ")", "[", "]", ",", ":",
]


def reference_op_tokens(text):
    """(op, col) pairs of an operator-only text, by trying each operator in
    turn at every position and taking the first that matches."""
    out, i = [], 0
    while i < len(text):
        for op in REFERENCE_OPERATORS:
            if text.startswith(op, i):
                out.append((op, i + 1))
                i += len(op)
                break
        else:
            raise AssertionError(f"no operator at {i} in {text!r}")
    return out


def test_lexer_operators_match_first_match_reference():
    assert LEX_OPERATORS == set(REFERENCE_OPERATORS)
    texts = list(REFERENCE_OPERATORS)
    texts += [a + b for a, b in itertools.product(REFERENCE_OPERATORS,
                                                  repeat=2)]
    for text in texts:
        tokens = []
        _lex_line(text, 1, 0, tokens)
        assert all(t.kind == "OP" and t.line == 1 for t in tokens), text
        assert [(t.value, t.col) for t in tokens] == \
            reference_op_tokens(text), text


class TestValues:
    def test_int_overflow_is_error(self):
        with pytest.raises(MiniRuntimeError) as e:
            binary_op("*", INT_MAX, 2)
        assert e.value.kind == "overflow"

    def test_true_division_yields_float(self):
        assert binary_op("/", 2, 2) == 1.0
        assert isinstance(binary_op("/", 2, 2), float)

    def test_floor_semantics(self):
        assert binary_op("//", -7, 2) == -4
        assert binary_op("%", -7, 2) == 1

    def test_division_by_zero(self):
        for op in ("/", "//", "%"):
            with pytest.raises(MiniRuntimeError) as e:
                binary_op(op, 1, 0)
            assert e.value.kind == "zero-division"

    def test_bitwise_on_float_is_type_error(self):
        for op in ("<<", ">>", "|", "^", "&"):
            with pytest.raises(MiniRuntimeError) as e:
                binary_op(op, 1.5, 1)
            assert e.value.kind == "type"

    def test_shift_guards(self):
        with pytest.raises(MiniRuntimeError):
            binary_op("<<", 1, -1)
        with pytest.raises(MiniRuntimeError):
            binary_op("<<", 1, 600)

    def test_plain_eq_is_type_sensitive(self):
        assert not plain_eq(1, 1.0)
        assert plain_eq(1.0, 1.0)
        assert not plain_eq(True, 1)
        # but comparison follows numeric equality
        assert compare_op("==", 1, 1.0) is True

    def test_string_concat_and_ordering(self):
        assert binary_op("+", "ab", "cd") == "abcd"
        assert compare_op("<", "ab", "b") is True
        with pytest.raises(MiniRuntimeError):
            binary_op("-", "ab", "cd")


class TestInterp:
    def test_and_or_evaluate_both_operands(self):
        # no short-circuit: the right operand's error always surfaces
        src = ("def f(x):\n"
               "    return x == 0 or 1 // x == 1\n")
        out = run_src(src, "f", {"x": 0})
        assert out.status == "error" and out.kind == "zero-division"

    def test_condition_must_be_bool(self):
        out = run_src("def f():\n    if 1:\n        return 2\n    return 3\n", "f")
        assert out.status == "error" and out.kind == "type"

    def test_statement_counting(self):
        # 1 assign + 4 condition evals + 3 bodies x 2 stmts + 1 return = 12
        src = ("def f():\n"
               "    i = 0\n"
               "    while i < 3:\n"
               "        x = i\n"
               "        i = i + 1\n"
               "    return i\n")
        out = run_src(src, "f")
        assert out.status == "pass" and out.value == 3
        assert out.stmts == 12

    def test_step_budget(self):
        src = "def f():\n    x = 0\n    while x == 0:\n        x = x * 1\n    return x\n"
        out = eval_plain(parse_program(src), "f", {}, budget=50)
        assert out.status == "timeout"

    def test_assert_statuses(self):
        prog = compile_program(parse_program(
            "def test_a():\n    assert 1 == 2\n"))
        assert run_entry(prog, "test_a", []).status == "assert"

    def test_builtins(self):
        src = ("def f(s):\n"
               "    return [len(s), ord(\"A\"), chr(66), abs(0 - 3),"
               " min(4, 2), max(4, 2), int(2.9), float(2)]\n")
        out = run_src(src, "f", {"s": "hey"})
        assert out.value == (3, 65, "B", 3, 2, 4, 2, 2.0)

    def test_negative_index_and_bounds(self):
        src = "def f(s, i):\n    return s[i]\n"
        assert run_src(src, "f", {"s": "abc", "i": -1}).value == "c"
        out = run_src(src, "f", {"s": "abc", "i": 3})
        assert out.status == "error" and out.kind == "index"

    def test_math_domain_errors(self):
        out = run_src("def f():\n    return log(0)\n", "f")
        assert out.status == "error"
        out = run_src("def f():\n    return sqrt(0 - 1.0)\n", "f")
        assert out.status == "error"


# --- the operator table against the generic operator functions ---

def generic(op, a, b):
    if op in COMPARE_OPS:
        return compare_op(op, a, b)
    if op in ("and", "or"):
        return bool_op(op, a, b)
    return binary_op(op, a, b)


def result_of(fn, *args):
    try:
        v = fn(*args)
    except MiniRuntimeError as err:
        return ("err", err.kind, err.message)
    return ("ok", type(v), v)


def assert_same_result(op, a, b):
    got = result_of(OPERATORS[op], a, b)
    want = result_of(generic, op, a, b)
    assert got[:2] == want[:2], (op, a, b, got, want)
    if got[0] == "ok":
        assert plain_eq(got[2], want[2]), (op, a, b, got, want)
    else:
        assert got[2] == want[2], (op, a, b, got, want)


OPERAND_GRID = [
    0, 1, -1, 7, -3, 2**32, INT_MIN, INT_MAX, INT_MAX // 2 + 1,
    True, False,
    0.0, -0.0, 2.5, -1e308, math.inf, -math.inf, math.nan,
    "", "ab", (), (1, "a"), None,
]


def test_operator_table_covers_every_operator():
    assert set(OPERATORS) == set(ARITH_OPS) | set(COMPARE_OPS) | {"and", "or"}


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_operator_table_matches_generic_on_grid(op):
    for a, b in itertools.product(OPERAND_GRID, repeat=2):
        assert_same_result(op, a, b)


INTS = st.one_of(st.integers(INT_MIN, INT_MAX),
                 st.sampled_from([INT_MIN, INT_MAX, 0, -1]))


@given(st.sampled_from(sorted(OPERATORS)), INTS, INTS)
def test_operator_int_fast_paths_match_generic(op, a, b):
    assert_same_result(op, a, b)


# operands of the typed fast paths: ints, floats and bools, mixed, plus the
# edges where a fast path must hand over (5e-324 and 2.225073858507201e-308
# are the smallest and largest subnormals; 63-128 are shift counts)
SPECIAL_NUMBERS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    2.225073858507201e-308, 1e308, -1e308, INT_MIN, INT_MAX,
    -1, 0, 63, 64, 127, 128,
]
NUMBERS = st.one_of(st.integers(INT_MIN, INT_MAX), st.floats(),
                    st.booleans(), st.sampled_from(SPECIAL_NUMBERS))


@given(st.sampled_from(sorted(OPERATORS)), NUMBERS, NUMBERS)
@example("//", INT_MIN, -1)
@example("%", INT_MIN, -1)
@example("*", INT_MIN, -1)
@example("/", 1e308, 1e-308)
@example("//", 1e308, 5e-324)
@example("%", -5.0, math.inf)
@example("*", 0, math.inf)
@example("+", 1e308, 1e308)
@example("<<", 1, -1)
@example("<<", 1, 0)
@example("<<", 1, 63)
@example("<<", -1, 63)
@example("<<", 1, 64)
@example("<<", 1, 127)
@example("<<", 0, 127)
@example("<<", 1, 128)
@example("<<", 0, 128)
@example(">>", INT_MIN, -1)
@example(">>", INT_MIN, 0)
@example(">>", INT_MIN, 63)
@example(">>", INT_MAX, 64)
@example(">>", -5, 127)
@example(">>", -5, 128)
@example(">>", 5, 128)
def test_operator_fast_paths_match_generic_on_mixed_numbers(op, a, b):
    assert_same_result(op, a, b)


PLAIN_VALUES = st.recursive(
    st.one_of(st.integers(-3, 3), st.booleans(), st.text(max_size=2),
              st.floats(), st.none()),
    lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)


@given(PLAIN_VALUES, PLAIN_VALUES)
def test_plain_eq_fast_path_matches_full_comparison(a, b):
    assert plain_eq(a, b) == (canon_key(a) == canon_key(b))


# sha256 over every plain run (original and each mutant of each test) of
# each corpus program. Pinned: a change to the evaluator must not change any
# run's status, error kind, location, statements, coverage, site events or
# value.
OUTCOME_PINS = {
    "caesar_cypher": "2df12f3296123dcbf1b92d1eb13c88787e203c57c07e21f8901de17b3d207396",
    "entropy": "0017ad49dda9f8646bd6bd0559b1ab4ba88f7d8328c6f4182eaaf67867549b17",
    "euler": "5d20c6f38dd5d26ff460b4880a8c64768f2695a49f793a04b46dc7988a265409",
    "newton": "02bd0117f4e6b06ceae0024fe33e60c2de31b394f517da91d7e55cc413d4c455",
    "prime": "bbdeed69930d3e270a8e75bebd35a62b22234a102b7bc4ca412b9f07a9a82e6d",
}


@pytest.mark.parametrize("name", sorted(OUTCOME_PINS))
def test_plain_run_outcomes_pinned_on_corpus(name):
    ast = parse_program((CORPUS_DIR / f"{name}.ml0").read_text())
    points = discover_mutation_points(ast)
    mutants = enumerate_mutants(points)
    program = compile_program(generate_meta_mutant(ast, points, mutants))
    digest = hashlib.sha256()
    for test in ast.tests:
        original = run_entry(program, test, [], budget=HARD_BUDGET,
                             record_events=True)
        budget = budget_for(original.stmts, 10)
        for mid in [0] + [m.mid for m in mutants]:
            o = run_entry(program, test, [], select=mid, budget=budget,
                          record_events=True)
            digest.update(repr((mid, o.status, o.kind, o.loc, o.stmts,
                                sorted(o.covered_points), o.events,
                                o.value)).encode())
    assert digest.hexdigest() == OUTCOME_PINS[name]
