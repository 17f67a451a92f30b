"""Language core: lexer/parser, plain semantics, execution counting."""

import hashlib
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutlab.cli import CORPUS_DIR
from mutlab.engine import HARD_BUDGET
from mutlab.fuzz import fuzz_program
from mutlab.lang import (
    MiniRuntimeError, MiniSyntaxError, PlainRun, compile_program, eval_plain,
    interp, parse_program, run_entry, to_source,
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


def outcome_digest(ast):
    """sha256 over every plain run, with events, of the original and each
    mutant of each test of `ast`, each mutant at its isolated budget."""
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
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(OUTCOME_PINS))
def test_plain_run_outcomes_pinned_on_corpus(name):
    ast = parse_program((CORPUS_DIR / f"{name}.ml0").read_text())
    assert outcome_digest(ast) == OUTCOME_PINS[name]


# The same digest for fuzz seeds 0-9, taken while every run that loops
# forever still ran until its budget stopped it. Many of these runs do, so
# a run cut short at a repeated loop state must keep its statement count
# and its site events, the ones past the cut included.
FUZZ_OUTCOME_PINS = {
    0: "d5c461d51a1fa07b7a30965830a47ee0bc35d5d9ce56d39c3da76c30b1607a26",
    1: "e82c29b49c0acfa8a96c8f717f934d43d20774f46db7fde2140ea46911069eeb",
    2: "6920e7bbda27b9f2ad6371a1c265567f6b30dec241ec596a7c51435cf57836ad",
    3: "85f66c111ce86f7cb86f54c2859371c50a8b81c8ca3f1c0f248c8f7884cab31d",
    4: "73c4d745745f7e59dfb291fca88292957ed423cb7b9c48d4ad87709836df0c74",
    5: "da63ea6ace7c58b2841d993ce6a55105c36fda5a44ef013d12e6b5fdd985dcc2",
    6: "4f1b21b9ce8f87e7df207aa96806d43c7bbf2ccd323765b8cec26e29f372ad79",
    7: "206a6705fe5048189110c5d2034703d4687e2eb3ccafbe41995b8d6bc5630cea",
    8: "1045f1c419edc472472d03539f2e446a2929b71e0b518fda860fe2eb634097a4",
    9: "93199f6349ef03903a2dc9a980c330b3792b528fb3c77f839e796aa648fcf310",
}


@pytest.mark.parametrize("seed", sorted(FUZZ_OUTCOME_PINS))
def test_plain_run_outcomes_pinned_on_fuzz(seed):
    ast = parse_program(fuzz_program(seed))
    assert outcome_digest(ast) == FUZZ_OUTCOME_PINS[seed]


# --- a loop back at a state it had before is a timeout ---

class NoShortcut(PlainRun):
    """The plain run with a repeat check that never fires: a loop back at an
    earlier state runs on until its budget stops it."""

    def run_to_budget(self, stmts0, mark):
        pass


def meta_program(src):
    ast = parse_program(src)
    points = discover_mutation_points(ast)
    return compile_program(generate_meta_mutant(ast, points,
                                                enumerate_mutants(points)))


def with_and_without_shortcut(program, entry, select=0, budget=None):
    """The outcome of one run with events, the same run's outcome without
    the shortcut, and the number of times the shortcut fired."""
    fired = []
    run_to_budget = PlainRun.run_to_budget

    def counting(run, *args):
        fired.append(run.stmts)
        run_to_budget(run, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PlainRun, "run_to_budget", counting)
        got = run_entry(program, entry, [], select=select, budget=budget,
                        record_events=True)
        mp.setattr(interp, "PlainRun", NoShortcut)
        want = run_entry(program, entry, [], select=select, budget=budget,
                         record_events=True)
    return got, want, len(fired)


def observed(o):
    # repr tells 1 from 1.0 and 0.0 from -0.0
    return repr((o.status, o.kind, o.loc, o.stmts, sorted(o.covered_points),
                 o.events, o.value))


CYCLING = {
    "period-1": """\
def f():
    i = 3
    while i > 0:
        i = i * 1
    return i
""",
    "period-2": """\
def f():
    i = 0
    while i < 5:
        i = i ^ 1
    return i
""",
    # the outer loop ends its first two inner loops, the third cycles
    "inner-loop": """\
def f():
    n = 0
    while n < 5:
        n = n + 1
        j = 0
        while j < 4:
            j = j + 2 - n // 3 * 2
    return n
""",
    # each cycle runs a helper with a loop of its own; a budget can end the
    # last cycle inside it
    "helper-call": """\
def h(x):
    k = 0
    while k < 2:
        k = k + 1
    return x * 2 - x

def f():
    i = 1
    t = 0
    while i > 0:
        t = t + h(i) - i
        i = h(i)
    return t
""",
    # x and a cycle with period 3 through values equal under ==, which
    # flow into the site events: 1 and 1.0, 0.0 and -0.0
    "equal-values": """\
def f():
    x = 1
    y = 1
    z = 1.0
    a = 0.0
    b = 0.0
    c = -0.0
    while x == 1:
        w = x * 1
        v = a * 1.0
        t = x
        x = y
        y = z
        z = t
        t = a
        a = b
        b = c
        c = t
    return x
""",
}


@pytest.mark.parametrize("name", sorted(CYCLING))
def test_repeated_loop_state_ends_as_running_to_budget(name):
    program = meta_program(CYCLING[name])
    for budget in range(400, 440):
        got, want, fired = with_and_without_shortcut(program, "f",
                                                     budget=budget)
        assert want.status == "timeout" and want.stmts == budget + 1
        assert fired == 1, budget
        assert observed(got) == observed(want), budget


def test_loop_that_never_repeats_runs_to_budget():
    program = meta_program("""\
def f():
    i = 0
    while i < 10:
        i = i - 1
    return i
""")
    for budget in range(400, 410):
        got, want, fired = with_and_without_shortcut(program, "f",
                                                     budget=budget)
        assert fired == 0
        assert got.status == "timeout"
        assert observed(got) == observed(want)


def test_same_variables_at_another_loop_head_are_no_repeat():
    # the checkpoint at the 8th back edge finds i == 8 at the first loop's
    # head, the check 8 back edges later i == 8 at the second loop's head
    program = meta_program("""\
def f():
    i = 0
    while i < 8:
        i = i + 1
    i = 0
    while i < 50:
        i = i + 1
    return i
""")
    got, want, fired = with_and_without_shortcut(program, "f", budget=400)
    assert fired == 0 and got.status == "pass"
    assert observed(got) == observed(want)


def test_unbudgeted_run_never_takes_the_shortcut(monkeypatch):
    class Stop(Exception):
        pass

    checkpoints = []
    at_checkpoint = PlainRun.at_checkpoint

    def stop_at_the_50th(run, *args):
        checkpoints.append(run.stmts)
        if len(checkpoints) == 50:
            raise Stop
        return at_checkpoint(run, *args)

    def fail(run, *args):
        pytest.fail("shortcut taken without a budget")

    monkeypatch.setattr(PlainRun, "at_checkpoint", stop_at_the_50th)
    monkeypatch.setattr(PlainRun, "run_to_budget", fail)
    with pytest.raises(Stop):
        PlainRun(meta_program(CYCLING["period-1"])).call("f", [])


@given(st.integers(0, 199))
@settings(max_examples=25, deadline=None)
def test_isolated_runs_match_reference_on_fuzz(seed):
    ast = parse_program(fuzz_program(seed))
    points = discover_mutation_points(ast)
    mutants = enumerate_mutants(points)
    program = compile_program(generate_meta_mutant(ast, points, mutants))
    [test] = ast.tests
    original = run_entry(program, test, [], budget=HARD_BUDGET)
    budget = budget_for(original.stmts, 10)
    for m in mutants:
        got, want, _ = with_and_without_shortcut(program, test, m.mid, budget)
        assert observed(got) == observed(want), m.mid
