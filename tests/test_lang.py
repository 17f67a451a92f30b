"""Language core: lexer/parser, plain semantics, execution counting."""

import gc
import hashlib
import itertools
import math
import os
import struct
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutlab.cli import CORPUS_DIR
from mutlab.engine import EngineConfig, TaintEngine, _MemoRun, run_test
from mutlab.fuzz import fuzz_program
from mutlab.lang import (
    Assert, Assign, Ast, BoolOp, Call, ExprStmt, Index, ListLit, Literal, Loc,
    MiniRuntimeError, MiniSyntaxError, PlainRun, Return, TaintChoice,
    UnaryOp, Var, compile_program, interp, parse_program, run_entry,
)
from mutlab.lang.lexer import KEYWORDS, OPERATORS as LEX_OPERATORS, _lex_line
from mutlab.lang import values
from mutlab.lang.interp import HARD_BUDGET
from mutlab.lang.parser import MAX_BLOCK_DEPTH, MAX_DEPTH, MAX_NESTING
from mutlab.lang.values import (
    ARITH_OPS, COMPARE_OPS, INT_MAX, INT_MIN, MAX_SIZE, OPERATORS, binary_op,
    bool_op, canon_key, compare_op, plain_eq,
)
from mutlab.mutate import (
    discover_mutation_points, enumerate_mutants, generate_meta_mutant,
)
from mutlab.strategies import analyze_program, budget_for, check_consistency


def run_src(src, entry="main", args=()):
    return run_entry(compile_program(parse_program(src)), entry, list(args))


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
        assert run_src(src, "f", [5]).value == 1
        assert run_src(src, "f", [50]).value == 2

    def test_aug_assign_desugars(self):
        src = "def f(x):\n    x += 3\n    x *= 2\n    return x\n"
        assert run_src(src, "f", [4]).value == 14

    def test_top_level_statement_rejected(self):
        with pytest.raises(MiniSyntaxError):
            parse_program("x = 1\n")

    def test_duplicate_function_rejected(self):
        with pytest.raises(MiniSyntaxError):
            parse_program("def f():\n    return 1\ndef f():\n    return 2\n")

    def test_tabs_rejected(self):
        with pytest.raises(MiniSyntaxError):
            parse_program("def f():\n\treturn 1\n")


def sexp(e):
    """An expression tree as a compact prefix form, e.g. `(+ a (* b c))`."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Literal):
        return repr(e.value)
    if isinstance(e, UnaryOp):
        return f"({e.op} {sexp(e.operand)})"
    if isinstance(e, Call):
        return f"({e.name}{''.join(' ' + sexp(a) for a in e.args)})"
    if isinstance(e, ListLit):
        return f"(list{''.join(' ' + sexp(a) for a in e.items)})"
    if isinstance(e, Index):
        return f"([] {sexp(e.base)} {sexp(e.index)})"
    return f"({e.op} {sexp(e.left)} {sexp(e.right)})"


@pytest.mark.parametrize("expr, tree", [
    ("a or b and c", "(or a (and b c))"),
    ("a and b or c", "(or (and a b) c)"),
    ("not a < b", "(not (< a b))"),
    ("not a and not b", "(and (not a) (not b))"),
    ("not not a", "(not (not a))"),
    ("a < b + c * d", "(< a (+ b (* c d)))"),
    ("a - b - c // d % e", "(- (- a b) (% (// c d) e))"),
    ("a | b ^ c & d << e + f * g", "(| a (^ b (& c (<< d (+ e (* f g))))))"),
    ("a * b + c & d ^ e | f", "(| (^ (& (+ (* a b) c) d) e) f)"),
    ("-a * b", "(* (- a) b)"),
    ("- -a[0]", "(- (- ([] a 0)))"),
    ("-f(x, 2)[1]", "(- ([] (f x 2) 1))"),
    ("a < b and c == d or not e", "(or (and (< a b) (== c d)) (not e))"),
    ("(a or b) * c", "(* (or a b) c)"),
    ("[a, b + c][0]", "([] (list a (+ b c)) 0)"),
    ("[] == [[]]", "(== (list) (list (list)))"),
])
def test_expression_precedence(expr, tree):
    ast = parse_program(f"def f(a, b, c, d, e, x):\n    return {expr}\n")
    assert sexp(ast.functions[0].body[0].value) == tree


@pytest.mark.parametrize("expr, col, message", [
    ("a < b < c", 18, "expected 'NEWLINE', found '<'"),
    ("x and a < b < c", 24, "expected 'NEWLINE', found '<'"),
    ("a < b + c < d", 22, "expected 'NEWLINE', found '<'"),
    ("not a < b < c", 22, "expected 'NEWLINE', found '<'"),
    ("f(a < b < c)", 20, "expected ')', found '<'"),
    ("a + not b", 16, "unexpected token 'not'"),
    ("a < not b", 16, "unexpected token 'not'"),
    ("-not a", 13, "unexpected token 'not'"),
    ("f(a)(b)", 16, "only names can be called"),
    ("(a)(b)(c)", 18, "only names can be called"),
    ("a +", 15, "unexpected token 'NEWLINE'"),
    ("f(a b)", 16, "expected ')', found 'b'"),
    ("[a,]", 15, "unexpected token ']'"),
])
def test_expression_syntax_errors(expr, col, message):
    with pytest.raises(MiniSyntaxError) as excinfo:
        parse_program(f"def f(a, b, c, x):\n    return {expr}\n")
    assert (excinfo.value.line, excinfo.value.col) == (2, col)
    assert excinfo.value.message == message


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


def reference_lex_line(line, lineno, start, out):
    """The lexer's character loop before it became one regular expression,
    appending (kind, value, line, col) tuples. On ASCII text `isalpha`,
    `isalnum` and `isdigit` are the regular expression's character sets."""
    i = start
    n = len(line)
    while i < n:
        c = line[i]
        col = i + 1
        if c == " ":
            i += 1
            continue
        if c == "#":
            return
        if c.isalpha() or c == "_":
            j = i
            while j < n and (line[j].isalnum() or line[j] == "_"):
                j += 1
            word = line[i:j]
            kind = "KEYWORD" if word in KEYWORDS else "NAME"
            out.append((kind, word, lineno, col))
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and line[j].isdigit():
                j += 1
            is_float = False
            if j < n and line[j] == "." and j + 1 < n and line[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and line[j].isdigit():
                    j += 1
            if j < n and line[j] in "eE":
                k = j + 1
                if k < n and line[k] in "+-":
                    k += 1
                if k < n and line[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and line[j].isdigit():
                        j += 1
            out.append(("FLOAT" if is_float else "INT", line[i:j], lineno, col))
            i = j
            continue
        if c in "\"'":
            quote = c
            j = i + 1
            buf = []
            while j < n and line[j] != quote:
                if line[j] == "\\":
                    if j + 1 >= n:
                        raise MiniSyntaxError("bad escape", lineno, j + 1)
                    esc = line[j + 1]
                    buf.append({"n": "\n", "t": "\t", "\\": "\\", "'": "'",
                                '"': '"'}.get(esc))
                    if buf[-1] is None:
                        raise MiniSyntaxError(f"unknown escape \\{esc}",
                                              lineno, j + 1)
                    j += 2
                else:
                    buf.append(line[j])
                    j += 1
            if j >= n:
                raise MiniSyntaxError("unterminated string", lineno, col)
            out.append(("STRING", "".join(buf), lineno, col))
            i = j + 1
            continue
        for op in REFERENCE_OPERATORS:
            if line.startswith(op, i):
                out.append(("OP", op, lineno, col))
                i += len(op)
                break
        else:
            raise MiniSyntaxError(f"unexpected character {c!r}", lineno, col)


def lexed(lex_line, line, start):
    """The tokens of `line` from `start` as tuples, and the error that
    stopped the lexer, if any."""
    out, error = [], None
    try:
        lex_line(line, 3, start, out)
    except MiniSyntaxError as err:
        error = str(err)
    return [t if isinstance(t, tuple) else (t.kind, t.value, t.line, t.col)
            for t in out], error


ASCII_PIECES = st.one_of(
    st.sampled_from(sorted(KEYWORDS) + REFERENCE_OPERATORS + [
        "x", "_y2", "abc_", "0", "42", "3.25", "1.", "1.x", ".5", "1e5",
        "2E-3", "7e+", "8e", "1e+x", "09", "'a'", '"b c"', "'\\n\\t'",
        "'\\q'", '"\\"', "'it\\'s'", "'open", '"\\', "\\", "#", "# c",
        "!", "?", "@", "$", ".", ";", "{", "}", "`", "~", "\t", " ", "  "]),
    st.text(st.characters(min_codepoint=9, max_codepoint=126), max_size=3))


@settings(max_examples=400, deadline=None)
@given(st.lists(ASCII_PIECES, max_size=20), st.booleans(), st.integers(0, 4))
@example(["x", "'a\\q", "\\"], True, 0)
@example(["x", "'a\\n", "\\"], True, 0)
@example(["x", "'a\\n"], True, 0)
@example(["'", "\\'", "'"], False, 0)
def test_lexer_matches_character_loop_reference(pieces, spaced, start):
    line = (" " if spaced else "").join(pieces)
    start = min(start, len(line))
    assert lexed(_lex_line, line, start) == \
        lexed(reference_lex_line, line, start)


PROGRAM_CHARS = st.one_of(
    st.characters(min_codepoint=32, max_codepoint=126),
    st.sampled_from("\n\t\r\x0c\u00a0\u00e9\u00df\u00b2\u00bd\u0663\u2163\u20ac"))
PROGRAM_LINES = st.tuples(
    st.sampled_from(["", "    ", "        ", "  ", "\t", " \t"]),
    st.lists(st.one_of(ASCII_PIECES, st.text(PROGRAM_CHARS, max_size=2)),
             max_size=12),
).map(lambda t: t[0] + " ".join(t[1]))
PROGRAM_TEXTS = st.one_of(
    st.text(PROGRAM_CHARS, max_size=80),
    st.lists(PROGRAM_LINES, max_size=8).map("\n".join),
    st.lists(PROGRAM_LINES, max_size=8).map(
        lambda lines: "def f(x):\n" + "\n".join("    " + ln for ln in lines)))


@settings(max_examples=400, deadline=None)
@given(PROGRAM_TEXTS)
@example("def f():\n    return " + "(" * 1000 + "1" + ")" * 1000 + "\n")
@example("def f():\n    return " + "-" * 1000 + "1\n")
@example("def f():\n    return " + "not " * 1000 + "1\n")
@example("def f():\n    return " + "[" * 1000 + "]" * 1000 + "\n")
@example("def f():\n    return " + " + ".join(["1"] * 2000) + "\n")
@example("def f():\n    return " + "9" * 5000 + "\n")
@example("def f():\n    return 2\u00b2\n")
@example("def f():\n    return \u0663\n")
def test_parse_program_raises_only_syntax_errors(text):
    try:
        ast = parse_program(text)
    except MiniSyntaxError:
        return
    assert isinstance(ast, Ast)


def syntax_error(source):
    with pytest.raises(MiniSyntaxError) as excinfo:
        parse_program(source)
    return excinfo.value


def test_overlong_int_literal_is_a_syntax_error_at_the_literal():
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("int() converts any number of digits here")
    ast = parse_program("def f():\n    x = " + "9" * limit + "\n")
    assert ast.functions[0].body[0].value.value == int("9" * limit)
    err = syntax_error("def f():\n    x = " + "9" * (limit + 1) + "\n")
    assert (err.line, err.col) == (2, 9)
    assert err.message == f"integer literal of {limit + 1} digits is too long"


@pytest.mark.parametrize("source, col, char", [
    ("x = 2\u00b2", 10, "\u00b2"),     # a superscript: isdigit, not a digit
    ("x = \u0663", 9, "\u0663"),       # an Arabic-Indic digit: isdecimal
    ("x = 1.\u0663", 10, "."),
    ("x = \u00bd", 9, "\u00bd"),       # a fraction: isnumeric
    ("\u00b2x = 1", 5, "\u00b2"),
])
def test_non_ascii_digits_are_syntax_errors(source, col, char):
    err = syntax_error("def f():\n    " + source + "\n")
    assert (err.line, err.col) == (2, col)
    assert err.message == f"unexpected character {char!r}"


def test_non_ascii_letters_and_digits_inside_names_stay_names():
    ast = parse_program("def f():\n    \u00e9t\u00e9\u0663 = 1\n"
                        "    return \u00e9t\u00e9\u0663\n")
    assert ast.functions[0].body[0].name == "\u00e9t\u00e9\u0663"


# (opening text, innermost operand, closing text, token that opens a level)
NESTINGS = {
    "parentheses": ("(", "x", ")", "("),
    "list literals": ("[", "x", "]", "["),
    "call arguments": ("abs(", "x", ")", "("),
    "indexes": ("x[", "0", "]", "["),
    "unary minus": ("-", "x", "", "-"),
    "not": ("not ", "x", "", "not"),
}


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_nesting_limit(kind):
    open_, inner, close, opener = NESTINGS[kind]

    def source(depth):
        return f"def f(x):\n    return {open_ * depth}{inner}{close * depth}\n"
    parse_program(source(MAX_NESTING))
    err = syntax_error(source(MAX_NESTING + 1))
    col = len("    return ") + len(open_) * MAX_NESTING + open_.index(opener) + 1
    assert (err.line, err.col) == (2, col)
    assert err.message == f"nesting deeper than {MAX_NESTING} levels"


def test_nesting_counts_open_levels_not_all_levels():
    flat = " + ".join(["(" * MAX_NESTING + "x" + ")" * MAX_NESTING] * 3)
    parse_program(f"def f(x):\n    return {flat}\n")
    nots = " and ".join(["not " * MAX_NESTING + "x"] * 3)
    parse_program(f"def f(x):\n    return {nots}\n")


def chain(terms: int) -> str:
    """`x + x + ... + x`: `terms` deep."""
    return " + ".join(["x"] * terms)


def test_depth_limit_on_an_operator_chain():
    src = (f"def f(x):\n    return {chain(MAX_DEPTH)}\n\n"
           f"def test_f():\n    assert f(1) == {MAX_DEPTH}\n")
    analysis = analyze_program(parse_program(src))
    assert analysis.valid
    assert check_consistency(analysis) == []
    parse_program(f"def f(x):\n    return ({chain(MAX_DEPTH)})\n")  # no level
    # the error is at the operator whose node would be MAX_DEPTH + 1 deep
    err = syntax_error(f"def f(x):\n    return {chain(MAX_DEPTH + 1)}\n")
    assert (err.line, err.col) == (2, len("    return x ") + 4 * MAX_DEPTH - 3)
    assert err.message == f"expression deeper than {MAX_DEPTH} levels"


# (opening text, closing text, offset in the opening text of the token that
# adds a level)
DEPTH_WRAPPERS = {
    "call": ("abs(", ")", 3),
    "index": ("[0][", "]", 3),
    "list literal": ("[", "]", 0),
    "unary minus": ("-(", ")", 0),
    "not": ("not (", ")", 0),
}


@pytest.mark.parametrize("kind", sorted(DEPTH_WRAPPERS))
def test_depth_limit_counts_every_node(kind):
    open_, close, at = DEPTH_WRAPPERS[kind]

    def source(terms):
        return f"def f(x):\n    return {open_}{chain(terms)}{close}\n"
    parse_program(source(MAX_DEPTH - 1))
    err = syntax_error(source(MAX_DEPTH))
    assert (err.line, err.col) == (2, len("    return ") + at + 1)
    assert err.message == f"expression deeper than {MAX_DEPTH} levels"


def test_depth_adds_up_across_nesting_levels():
    # each level of `(...) + x + x` is 2 deeper, so MAX_NESTING does not
    # bound the depth on its own
    def source(levels):
        return f"def f(x):\n    return {'(' * levels}x{') + x + x' * levels}\n"
    parse_program(source(MAX_DEPTH // 2 - 1))
    assert MAX_DEPTH // 2 <= MAX_NESTING
    err = syntax_error(source(MAX_DEPTH // 2))
    assert err.message == f"expression deeper than {MAX_DEPTH} levels"


def nested_blocks(keywords: list[str]) -> str:
    """`f` with one block per keyword, each inside the one before."""
    lines = ["def f(x):"]
    for i, kw in enumerate(keywords):
        lines.append("    " * (i + 1) + f"{kw} x > 0:")
    lines.append("    " * (len(keywords) + 1) + "x = 0")
    return "\n".join(lines) + "\n    return x\n"


def elif_chain(arms: int) -> str:
    """`f` as one `if` followed by `arms - 1` `elif` arms."""
    lines = ["def f(x):", "    if x == 0:", "        return 0"]
    for i in range(1, arms):
        lines += [f"    elif x == {i}:", f"        return {i}"]
    return "\n".join(lines) + "\n    return -1\n"


@pytest.mark.parametrize("keyword", ["if", "while"])
def test_block_depth_limit(keyword):
    parse_program(nested_blocks([keyword] * MAX_BLOCK_DEPTH))
    err = syntax_error(nested_blocks([keyword] * (MAX_BLOCK_DEPTH + 1)))
    # at the keyword of the block one past the limit
    assert (err.line, err.col) == (MAX_BLOCK_DEPTH + 2, 4 * MAX_BLOCK_DEPTH + 5)
    assert err.message == f"blocks nested deeper than {MAX_BLOCK_DEPTH} levels"


def test_block_depth_counts_open_blocks_and_each_elif():
    # blocks side by side open one level each; `if` and `while` add up
    flat = "def f(x):\n" + "    if x > 0:\n        x = 0\n" * (2 * MAX_BLOCK_DEPTH)
    parse_program(flat)
    mixed = ["if", "while"] * (MAX_BLOCK_DEPTH // 2)
    parse_program(nested_blocks(mixed))
    assert syntax_error(nested_blocks(mixed + ["if"])).line == MAX_BLOCK_DEPTH + 2
    # an `elif` is an `if` in the arm before it: the chain's arms nest
    parse_program(elif_chain(MAX_BLOCK_DEPTH))
    err = syntax_error(elif_chain(MAX_BLOCK_DEPTH + 1))
    assert (err.line, err.col) == (2 * MAX_BLOCK_DEPTH + 2, 5)
    assert err.message == f"blocks nested deeper than {MAX_BLOCK_DEPTH} levels"


class TestValues:
    def test_int_overflow_is_error(self):
        with pytest.raises(MiniRuntimeError) as e:
            binary_op("*", INT_MAX, 2)
        assert e.value.kind == "overflow"

    @pytest.mark.parametrize("unit", ["a", (1,)], ids=["string", "list"])
    def test_concatenation_longer_than_max_size_is_overflow(self, unit):
        # the plain operator and the `+` kernel the sites call agree
        half = unit * (MAX_SIZE // 2)
        for add in (partial(binary_op, "+"), OPERATORS["+"]):
            assert add(half, half) == unit * MAX_SIZE
            assert add(unit * MAX_SIZE, unit[:0]) == unit * MAX_SIZE
            for a, b in ((half, half + unit), (unit * MAX_SIZE, unit)):
                with pytest.raises(MiniRuntimeError) as e:
                    add(a, b)
                assert (e.value.kind, e.value.message) == (
                    "overflow", f"{values.type_name(unit)} result longer "
                    f"than {MAX_SIZE}")

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

    @pytest.mark.parametrize("a, b, equal", [
        (True, 1, False), (False, 0, False), (True, True, True),
        (1, 1.0, False), (0, -0.0, False), (2.5, 2.5, True),
        (None, None, True), (None, 0, False), (None, (), False),
        (((0.0,),), ((-0.0,),), False), (((-0.0,),), ((-0.0,),), True),
        ((1, (float("nan"),)), (1, (float("nan"),)), True),
        ((1, (float("nan"),)), (1, (-float("nan"),)), False),
        ((1, (2,)), (1, (2.0,)), False), ((1,), (1, 2), False),
        (("a", ()), ("a", ()), True),
    ])
    def test_plain_eq_cases(self, a, b, equal):
        # one exact type each, floats by their bits, lists item by item
        assert plain_eq(a, b) is equal
        assert plain_eq(b, a) is equal

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
        out = run_src(src, "f", [0])
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
        out = run_entry(compile_program(parse_program(src)), "f", [],
                        budget=50)
        assert out.status == "timeout"

    def test_assert_statuses(self):
        prog = compile_program(parse_program(
            "def test_a():\n    assert 1 == 2\n"))
        assert run_entry(prog, "test_a", []).status == "assert"

    def test_builtins(self):
        src = ("def f(s):\n"
               "    return [len(s), ord(\"A\"), chr(66), abs(0 - 3),"
               " min(4, 2), max(4, 2), int(2.9), float(2)]\n")
        out = run_src(src, "f", ["hey"])
        assert out.value == (3, 65, "B", 3, 2, 4, 2, 2.0)

    def test_negative_index_and_bounds(self):
        src = "def f(s, i):\n    return s[i]\n"
        assert run_src(src, "f", ["abc", -1]).value == "c"
        out = run_src(src, "f", ["abc", 3])
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


NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]


def test_computed_nan_has_one_bit_pattern():
    """An arithmetic NaN is `math.nan` whatever its operands' signs and
    payloads, and however often CPython has run the operation."""
    got = {struct.pack("<d", binary_op("+", -math.nan, NAN_PAYLOAD))
           for _ in range(20)}
    got |= {struct.pack("<d", binary_op(op, NAN_PAYLOAD, 2.0))
            for op in ("-", "*", "/", "//", "%")}
    assert got == {struct.pack("<d", math.nan)}


NAN_PROGRAM = """\
def f(a, b):
    return a + b

def g(a, b):
    return a * b - b

def test_n():
    x = float("nan")
    y = -x
    z = f(x, y)
    w = g(y, x)
    assert z != z
    assert w != w
"""


SIX_NAN_REPORTS = """\
import sys
from mutlab.lang import parse_program
from mutlab.report import emit_json, reports_from_analysis
from mutlab.strategies import analyze_program

src = sys.stdin.read()
print(len({emit_json(reports_from_analysis(
    "nan", analyze_program(parse_program(src)), 10)) for _ in range(6)}))
"""


def test_nan_program_gives_one_report_per_process():
    """Six analyses of NAN_PROGRAM in one fresh interpreter, where CPython
    specializes the float add partway through, write one JSON report."""
    src_dir = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", SIX_NAN_REPORTS], input=NAN_PROGRAM,
        env=dict(os.environ, PYTHONPATH=str(src_dir)),
        capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


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
# value. Re-taken when a mutant's run came to record only its own site's
# events: the same digest at the parent, over each mutant run's events
# filtered to its own point and the coverage read from them, gave these.
OUTCOME_PINS = {
    "caesar_cypher": "bdf570a701c6d3b1ad011e189b687883c963f437ae7060a72d3710350820f9bf",
    "entropy": "3a96ae6792f5ac1c3c20ab3a71f2f589198ad0f6e90e74bff0571c156b63b332",
    "euler": "28a695005a6b2e0b6fc07b2aa75e9460408a266f7c87f09e1422fd001523cdad",
    "newton": "11d167e00fb4aeec7065b006a8970897c04401faba7e3227310d179fb00d38e1",
    "prime": "0bc10da68e324ab0d40221c553d8dd020d31d1e2e5558de3f1b91e64f327c6ee",
}


def event_triples(events):
    """A run's flat site events (four slots each) as the
    `(point, stmts, (kind, value))` triples the pins were taken over."""
    return [(events[i], events[i + 1], (events[i + 2], events[i + 3]))
            for i in range(0, len(events), 4)]


def outcome_digest(ast):
    """sha256 over every plain run, with events, of the original and each
    mutant of each test of `ast`, each mutant at its isolated budget. The
    original's run records the events of every site, a mutant's only those
    of its own, and each run's coverage is the points of its events."""
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
                                sorted(o.covered_points),
                                event_triples(o.events), o.value)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(OUTCOME_PINS))
def test_plain_run_outcomes_pinned_on_corpus(name):
    ast = parse_program((CORPUS_DIR / f"{name}.ml0").read_text())
    assert outcome_digest(ast) == OUTCOME_PINS[name]


# The same digest for fuzz seeds 0-9, taken while every run that loops
# forever still ran until its budget stopped it. Many of these runs do, so
# a run cut short at a repeated loop state must keep its statement count
# and its site events, the ones past the cut included. Re-taken like the
# corpus pins.
FUZZ_OUTCOME_PINS = {
    0: "57b5d4d2e49164a1a25dd507fe61f12df82aebcf1d1f0f54ac4cd8bd9c8f3d7d",
    1: "a2936d0c2ca22b3dce441e75e4516fdbe200a1c7b6811933db1624f25789c78b",
    2: "f8ec01c2301cedde2797ece4814114a29ea69c5419b5c29b73d76193706a6fd1",
    3: "3e306f48647ceca26145ee5c89b98b464eba7bd3b81ff09bd29cdb43d4559f67",
    4: "8fe81b673b8fcb435f330255cd1c01e8a460c8c2477fd87010b6e95731070b55",
    5: "ae58d3ef9799093ce2904b763649598247811dc6c2798b856f7f834c9c4fffca",
    6: "f677ba8123acdc037a85e7d7f6797e6d7c18377d30044c06968cc988a66f24a9",
    7: "a7d4ad34329da1c0e88335dc7ad4aabe8946de92a45ac4a2096ce4e1ceacc1cb",
    8: "626ba3de4e2656e39b211f33a42b7832689344a7d439df15dd1e2b0205c5d9a2",
    9: "f0c593ef7687deb1ef153c018ecb3d69596ebf59e44cf4fd11ae60cd9701834d",
}


@pytest.mark.parametrize("seed", sorted(FUZZ_OUTCOME_PINS))
def test_plain_run_outcomes_pinned_on_fuzz(seed):
    ast = parse_program(fuzz_program(seed))
    assert outcome_digest(ast) == FUZZ_OUTCOME_PINS[seed]


# --- choice sites with leaf operands read them inline ---

class OpaqueVar(Var):
    """A Var that a choice site does not read inline."""


class OpaqueLiteral(Literal):
    """A Literal that a choice site does not read inline."""


SITE_OPS = ARITH_OPS + COMPARE_OPS
SITE_VALUES = st.one_of(
    st.integers(-3, 3), st.integers(INT_MIN, INT_MAX), st.booleans(),
    st.floats(), st.sampled_from([-0.0, math.nan, math.inf]),
    st.text(max_size=2))
UNBOUND = object()  # an operand variable that the environment lacks


def run_site(site, select, env):
    """What evaluating the compiled `site` shows: its value or error, its
    covered points and events (a repr, which tells 1 from True, 0.0 from
    -0.0 and matches nan)."""
    program = interp.CompiledProgram({})
    ev = interp.compile_expr(site, program)
    run = PlainRun(program, select=select, record_events=True)
    run.stmts = 7
    try:
        result = ("val", repr(ev(run, env)))
    except MiniRuntimeError as err:
        result = ("err", err.kind, err.message, err.loc)
    return repr((result, set(run.events[::4]), run.events))


def binary_node(op, left, right):
    """A choice site of `op` (its variants every site operator), or the
    `and`/`or` or `[]` node of a plain AST."""
    if op in ("and", "or"):
        return BoolOp(Loc(2, 7), op, left, right)
    if op == "[]":
        return Index(Loc(2, 7), left, right)
    variants = {0: op, **{mid: o for mid, o in enumerate(SITE_OPS, 1)}}
    return TaintChoice(Loc(2, 7), 5, variants, left, right)


@given(st.sampled_from([*SITE_OPS, "and", "or", "[]"]),
       st.integers(0, len(SITE_OPS) + 1),
       st.one_of(SITE_VALUES, st.just(UNBOUND)),
       st.one_of(SITE_VALUES, st.just(UNBOUND)), st.booleans())
@example("/", 0, 1, 0, True)
@example("+", 3, UNBOUND, 1, False)
@example("<", 0, 1, UNBOUND, False)
@example("<<", 4, 1, 64, True)
@example("==", 0, math.nan, math.nan, False)
@example("and", 0, True, False, False)
@example("or", 0, 1, True, True)
@example("[]", 0, "ab", 1, True)
@example("[]", 0, "ab", 2, False)
def test_inline_site_operands_match_generic_path(op, select, a, b, literal):
    """A Var-Literal (`literal`) or Var-Var choice site, `and`/`or` or
    `Index` against the same node with operands of subclasses, which take
    the generic path of leaf closures."""
    env = {k: v for k, v in (("a", a), ("b", b)) if v is not UNBOUND}
    if literal:
        b = 0 if b is UNBOUND else b
        right, opaque_right = Literal(Loc(2, 9), b), OpaqueLiteral(Loc(2, 9), b)
    else:
        right, opaque_right = Var(Loc(2, 9), "b"), OpaqueVar(Loc(2, 9), "b")
    inline = binary_node(op, Var(Loc(2, 5), "a"), right)
    generic = binary_node(op, OpaqueVar(Loc(2, 5), "a"), opaque_right)
    assert run_site(inline, select, env) == run_site(generic, select, env)


# --- each statement runs as one step ---

STEP_LOC = Loc(3, 5)


def site_variants(point, op="+"):
    """The variants of a site at `point`: `op`, then every site operator,
    each a mutant of its own (ids 100 * point + 1, ...), as one mutant
    belongs to one site in a meta-mutant."""
    return {0: op, **{100 * point + i: o for i, o in enumerate(SITE_OPS, 1)}}


SITE_VARIANTS = site_variants(5)
# the original, the mutants of CALLEES (45) and those of each site
STEP_SELECTS = st.one_of(st.integers(0, 46),
                         st.integers(500, 501 + len(SITE_OPS)),
                         st.integers(600, 601 + len(SITE_OPS)))


def leaf_operands(loc):
    """A bound or unbound variable, an opaque variable, or a literal."""
    return st.one_of(
        st.sampled_from([Var(loc, "a"), Var(loc, "b"), Var(loc, "u"),
                         OpaqueVar(loc, "b")]),
        st.builds(lambda v: Literal(loc, v), SITE_VALUES))


def site_exprs(op, left, right):
    return st.builds(
        lambda o, point, a, b: TaintChoice(
            Loc(3, 11), point, site_variants(point, o), a, b),
        op, st.sampled_from([5, 6]), left, right)


def step_operands():
    """Leaf operands and nested ones: a choice site, a negation, a `not`, a
    call bound to a program function, a call of a one-argument builtin, a
    two-argument `min` or `max` and a bare `print()`."""
    leaf = leaf_operands(Loc(3, 9))
    return st.one_of(
        leaf,
        site_exprs(st.sampled_from(SITE_OPS), leaf, leaf),
        st.builds(lambda op, a: UnaryOp(Loc(3, 9), op, a),
                  st.sampled_from(["-", "not"]), leaf),
        st.builds(lambda name, a: Call(Loc(3, 9), name, [a]),
                  st.sampled_from(["f1", "f4", "abs", "len"]), leaf),
        st.builds(lambda name, a, b: Call(Loc(3, 9), name, [a, b]),
                  st.sampled_from(["min", "max"]), leaf, leaf),
        st.just(Call(Loc(3, 9), "print", [])))


# a condition error carries the `if`'s own location, not the call site's
F4 = """
def f4(a):
    if a:
        return 1
    return 0
"""


STEP_EXPRS = st.one_of(
    site_exprs(st.sampled_from(SITE_OPS), step_operands(), step_operands()),
    step_operands(),
    st.builds(lambda a, b: Call(Loc(3, 7), "f2", [a, b]),
              step_operands(), step_operands()),
    st.builds(lambda a, b: Index(Loc(3, 8), a, b),
              step_operands(), step_operands()),
    st.builds(lambda op, a, b: BoolOp(Loc(3, 8), op, a, b),
              st.sampled_from(["and", "or"]), step_operands(),
              step_operands()),
    st.just(None))


class ReferenceRun(PlainRun):
    """A plain run that keeps its own coverage set, which `reference_eval`
    fills at every site it evaluates itself."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.covered = set()


def reference_eval(e, program, run, env):
    """A choice site, `Index`, `and`/`or`, a unary operator or a call
    evaluated here: its operands, then the operator (a site's for the run's
    variant) or the callee called by name, with the node's location on its
    error; a site also covers its point and records its event, on the
    original's run or on a run of one of its own mutants. A leaf runs its
    compiled closure."""
    if type(e) in (Index, BoolOp):
        a = reference_eval(e.base if type(e) is Index else e.left,
                           program, run, env)
        b = reference_eval(e.index if type(e) is Index else e.right,
                           program, run, env)
        try:
            return (values.index_value if type(e) is Index
                    else OPERATORS[e.op])(a, b)
        except MiniRuntimeError as err:
            err.loc = err.loc or e.loc
            raise
    if type(e) is UnaryOp:
        a = reference_eval(e.operand, program, run, env)
        try:
            return values.unary_op(e.op, a)
        except MiniRuntimeError as err:
            err.loc = err.loc or e.loc
            raise
    if type(e) is Call:
        args = [reference_eval(a, program, run, env) for a in e.args]
        mark = len(run.events)
        try:
            return run.call(e.name, args)
        except MiniRuntimeError as err:
            err.loc = err.loc or e.loc
            raise
        finally:  # a compiled callee covers the points of its events
            run.covered.update(run.events[mark::4])
    if type(e) is not TaintChoice:
        return interp.compile_expr(e, program)(run, env)
    a = reference_eval(e.left, program, run, env)
    b = reference_eval(e.right, program, run, env)
    records = run.select == 0 or run.select in e.variants
    if records:
        run.covered.add(e.point_id)
    try:
        v = OPERATORS[e.variants.get(run.select, e.variants[0])](a, b)
    except MiniRuntimeError as err:
        if records:
            run.events += e.point_id, run.stmts - 1, "err", err.kind
        err.loc = err.loc or e.loc
        raise
    if records:
        run.events += e.point_id, run.stmts - 1, "val", v
    return v


def reference_step(s, program):
    """The reference for the compiled step at pc 0: count, check the
    budget, evaluate the expression, then store, branch, return or assert,
    with the statement's location on a condition's or an assert's type
    error."""
    kind = type(s)
    e = (s.cond if kind is interp.IBranch else s.test if kind is Assert
         else s.value)

    def step(run, env):
        run.stmts += 1
        if run.stmts > run.budget:
            raise interp.StepBudgetExceeded()
        v = None if e is None else reference_eval(e, program, run, env)
        if kind is Assign:
            env[s.name] = v
        elif kind is interp.IBranch:
            return 1 if values.require_bool(
                v, "condition", s.loc) else s.false_pc
        elif kind is Return:
            return "return", v
        elif kind is Assert and not values.require_bool(
                v, "assert expression", s.loc):
            raise interp.MiniAssertionError(s.loc)
        return 1
    return step


def run_step(step, program, select, budget, env, run_class=PlainRun):
    """What one step shows: where control goes, its error, the environment,
    the statements run, the points covered and the events recorded. A
    `ReferenceRun` reports its own coverage set, any other run the points
    of its events."""
    run = run_class(program, select=select, budget=budget, record_events=True)
    run.stmts = 7
    try:
        result = step(run, env)
        if result == interp.RETURN:
            result = "return", run.rv
        result = ("ok", repr(result))
    except MiniRuntimeError as err:
        result = ("err", err.kind, err.message, err.loc)
    except interp.MiniAssertionError as err:
        result = ("assert", err.loc)
    except interp.StepBudgetExceeded:
        result = ("timeout",)
    covered = (run.covered if run_class is ReferenceRun
               else set(run.events[::4]))
    return repr((result, sorted(env.items()), run.stmts, sorted(covered),
                 run.events))


@given(st.sampled_from(["assign", "branch", "return", "expr", "assert"]),
       STEP_EXPRS, STEP_SELECTS,
       st.one_of(SITE_VALUES, st.just(UNBOUND)), st.sampled_from([7, 8, 500]))
@example("assign", TaintChoice(Loc(3, 11), 5, SITE_VARIANTS, Var(Loc(3, 9), "a"),
                               Literal(Loc(3, 9), 1)), 0, 2, 8)
@example("branch", TaintChoice(Loc(3, 11), 5, site_variants(5, "<"),
                               Var(Loc(3, 9), "a"), Var(Loc(3, 9), "b")),
         503, 1, 7)
@example("assert", Var(Loc(3, 9), "u"), 0, 1, 500)
@example("expr", TaintChoice(Loc(3, 11), 5, SITE_VARIANTS, Var(Loc(3, 9), "a"),
                             Var(Loc(3, 10), "u")), 0, 1, 500)
@example("expr", TaintChoice(Loc(3, 11), 5, SITE_VARIANTS, Var(Loc(3, 9), "u"),
                             Var(Loc(3, 10), "u")), 0, 1, 500)
@example("assign", Call(Loc(3, 7), "f4", [Literal(Loc(3, 9), 2)]), 0, 1, 500)
@example("return", Call(Loc(3, 7), "f2", [Literal(Loc(3, 9), 2),
                                          Var(Loc(3, 9), "a")]), 12, 3, 8)
@example("branch", BoolOp(Loc(3, 8), "and", Var(Loc(3, 9), "a"),
                          Literal(Loc(3, 9), True)), 0, 1, 500)
@example("branch", TaintChoice(Loc(3, 11), 5, SITE_VARIANTS,
                               Var(Loc(3, 9), "a"), Literal(Loc(3, 9), 1)),
         0, 2, 500)
@example("assert", Index(Loc(3, 8), Var(Loc(3, 9), "a"),
                         Literal(Loc(3, 9), 0)), 0, "ab", 500)
@example("assign", Index(Loc(3, 8), Var(Loc(3, 9), "a"), Var(Loc(3, 9), "b")),
         0, "abc", 500)
@example("branch", UnaryOp(Loc(3, 8), "not", Var(Loc(3, 9), "u")), 0, 1, 500)
@example("assert", UnaryOp(Loc(3, 8), "not", Var(Loc(3, 9), "a")), 0, 1, 500)
@example("return", Call(Loc(3, 7), "len", [Var(Loc(3, 9), "a")]), 0, 1, 500)
@example("assign", TaintChoice(Loc(3, 11), 5, SITE_VARIANTS,
                               Call(Loc(3, 7), "abs", [Var(Loc(3, 9), "a")]),
                               UnaryOp(Loc(3, 8), "-", Literal(Loc(3, 9), 1))),
         0, "ab", 500)
@example("assign", Call(Loc(3, 9), "max", [Var(Loc(3, 9), "a"),
                                          Literal(Loc(3, 9), 1.5)]), 0, 2, 500)
@example("branch", Call(Loc(3, 9), "min", [Var(Loc(3, 9), "u"),
                                          Var(Loc(3, 9), "b")]), 0, 1, 500)
@example("assert", Call(Loc(3, 9), "max", [Literal(Loc(3, 9), "s"),
                                          Var(Loc(3, 9), "b")]), 0, 1, 500)
@example("expr", Call(Loc(3, 9), "print", []), 0, 1, 500)
@example("return", TaintChoice(Loc(3, 11), 5, SITE_VARIANTS,
                               Call(Loc(3, 9), "print", []),
                               Call(Loc(3, 9), "min", [Var(Loc(3, 9), "a"),
                                                      Var(Loc(3, 9), "b")])),
         0, 1, 500)
@settings(max_examples=300, deadline=None)
def test_steps_match_reference(kind, e, select, a, budget):
    """The compiled step of each statement kind against a reference step
    that evaluates choice sites, `Index`, `and`/`or`, unary operators and
    calls itself (`reference_eval`) and keeps its own coverage set, which
    must be the points of the compiled run's events. `b` is bound to 2,
    `u` never; a budget of 7 ends before the statement, 8 exactly on it,
    so a call in it runs out of budget."""
    program = meta_program(CALLEES + F4)
    if e is None and kind != "return":
        e = Literal(Loc(3, 9), True)
    filler = ExprStmt(STEP_LOC, Literal(STEP_LOC, 0))
    # the function ends at pc 2, where a false branch goes
    s = {"assign": lambda: Assign(STEP_LOC, "x", e),
         "branch": lambda: interp.IBranch(STEP_LOC, e, 2),
         "return": lambda: Return(STEP_LOC, e),
         "expr": lambda: ExprStmt(STEP_LOC, e),
         "assert": lambda: Assert(STEP_LOC, e)}[kind]()
    code = [s, filler]
    env = {k: v for k, v in (("a", a), ("b", 2)) if v is not UNBOUND}
    assert (run_step(interp.compile_steps(code, program)[0], program, select,
                     budget, dict(env))
            == run_step(reference_step(s, program), program, select,
                        budget, dict(env), ReferenceRun))


IF_ELSE_IN_WHILE = """\
def f(n):
    while n > 0:
        if n > 5:
            n = n - 2
        else:
            n = n - 1
    return n
"""


def test_code_layout_of_if_else_in_while():
    """A function's code holds its own AST statements. A condition falls
    through to pc + 1 when true; the `if` jumps over its `else`, the loop's
    back edge goes to its condition, the loop's false target is the
    statement after it, and the code ends there, at the implicit return."""
    [fn] = parse_program(IF_ELSE_IN_WHILE).functions
    code = interp.compile_fn(fn)
    loop, ret = fn.body
    [branch] = loop.body
    assert len(code) == 7
    assert code[2] is branch.then_body[0] and code[4] is branch.else_body[0]
    assert code[6] is ret
    assert code[0] == interp.IBranch(loop.loc, loop.cond, 6)
    assert code[1] == interp.IBranch(branch.loc, branch.cond, 4)
    assert code[3] == interp.IJump(branch.loc, 5, back=False)
    assert code[5] == interp.IJump(loop.loc, 0, back=True)


def python_calls(step, run, env):
    """The Python functions one call of `step` runs, itself included, and
    the C functions that the step's own frame calls."""
    calls, c_calls = [], []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)
        elif event == "c_call" and frame.f_code is step.__code__:
            c_calls.append(arg)

    sys.setprofile(profile)
    try:
        step(run, env)
    finally:
        sys.setprofile(None)
    return calls, c_calls


@pytest.mark.parametrize("stmt, env, calls", [
    ("x = a + 1", {"a": 3}, ["ev", "kernel"]),  # the step and the operator
    ("x = a * b", {"a": 3, "b": 4}, ["ev", "kernel"]),
    ("if a < 1:\n        x = 0", {"a": 3}, ["ev", "kernel"]),
    ("x = 0", {"a": 3}, ["step"]),
    ("x = s[i]", {"s": (4, 5), "i": 1}, ["ev", "index_value"]),
    ("if a and b:\n        x = 0", {"a": True, "b": False}, ["ev", "bool_op"]),
    # the step, its argument, then g's frame and g's return step
    ("x = g(a)", {"a": 3}, ["step", "ev", "run_fn", "step"]),
    # nested: the site, the call site, its argument, g's frame and return
    # step, then the operator
    ("x = g(a) + 1", {"a": 3},
     ["ev", "step", "ev", "run_fn", "step", "kernel"]),
    # a one-argument builtin's call site reads a leaf argument inline and
    # evaluates no `<listcomp>`
    ("x = len(s) + 1", {"s": (4, 5)}, ["ev", "step", "_bi_len", "kernel"]),
    # a unary operator or one-argument builtin at top level runs in its step
    ("x = -a", {"a": 3}, ["step", "unary_op", "is_num", "_check_int_range"]),
    ("x = len(s)", {"s": (4, 5)}, ["step", "_bi_len"]),
    ("if not b:\n        x = 0", {"b": False}, ["step", "unary_op"]),
], ids=["assign-site", "assign-site-vars", "branch-site", "assign-literal",
        "assign-index", "branch-and", "assign-call", "nested-call",
        "nested-builtin", "assign-neg", "assign-builtin", "branch-not"])
def test_python_calls_per_statement(stmt, env, calls):
    """A statement whose top-level expression is a binary node, a unary
    operator or a one-argument builtin with leaf operands, or a literal,
    runs inside its step: losing that fusion adds a call. A call enters
    its callee through `run_fn` alone. No step calls a C function itself:
    a choice site neither adds coverage to a set nor looks its kernel up
    in a dict, and a call builds no argument list."""
    program = meta_program(f"def g(b):\n    return b\n\n"
                           f"def f(a):\n    {stmt}\n    return a\n")
    step = program.functions["f"].steps[0]
    run = PlainRun(program, budget=100)
    assert python_calls(step, run, env) == (calls, [])
    assert run.stmts == (2 if "g(" in stmt else 1)  # g's return counts


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


def with_and_without_shortcut(program, entry, select=0,
                              budget=HARD_BUDGET):
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


# A loop with period 2 whose sites produce 1 next to 1.0 (`x * 1`), -0.0
# (`z * 1.0`) and lists, on the inline path (`xs + ys`) and the generic one
# (`ys + [z, x]`); neither the corpus nor the fuzz programs cut such a run.
MIXED_VALUES = """\
def f():
    x = 1
    y = 1.0
    z = -0.0
    xs = [1, 1.0]
    ys = [-0.0]
    while x == 1:
        a = x * 1
        b = z * 1.0
        c = xs + ys
        d = ys + [z, x]
        t = x
        x = y
        y = t
        t = xs
        xs = ys
        ys = t
    return x
"""


def test_shortcut_replicates_non_int_site_values(monkeypatch):
    program = meta_program(MIXED_VALUES)
    cuts = []
    run_to_budget = PlainRun.run_to_budget

    def recording(run, *args):
        cuts.append(len(run.events))
        run_to_budget(run, *args)

    monkeypatch.setattr(PlainRun, "run_to_budget", recording)
    for budget in range(400, 440):
        cuts.clear()
        got, want, fired = with_and_without_shortcut(program, "f",
                                                     budget=budget)
        assert want.status == "timeout" and want.stmts == budget + 1
        assert fired == 1, budget
        assert observed(got) == observed(want), budget
        # the events copied past the cut hold every kind of value
        [cut] = cuts
        copied = got.events[cut:]
        assert len(copied) >= 4 * 20
        shown = {repr(v) for v in copied[3::4]}
        assert shown == {"True", "1", "1.0", "-0.0", "(1, 1.0, -0.0)",
                         "(-0.0, -0.0, 1)", "(-0.0, 1, 1.0)",
                         "(1, 1.0, -0.0, 1.0)"}, budget


def test_shortcut_matches_running_on_for_every_mutant_of_mixed_values():
    program = meta_program(MIXED_VALUES)
    mids = {0, *program.reach["f"]}
    assert len(mids) == 1 + 4 * 10 + 5  # the original, 4 arithmetic sites, `==`
    fired = 0
    for mid in sorted(mids):
        got, want, n = with_and_without_shortcut(program, "f", mid, 420)
        assert observed(got) == observed(want), mid
        fired += n
    assert fired == 13  # the original and 12 mutants still cycle


def tracked_objects_after_run(program, record_events):
    """The objects the garbage collector tracks after one run of `f`, less
    those before it, with the collector off so that it untracks nothing,
    and the run's outcome, which keeps the events alive."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        outcome = run_entry(program, "f", [], record_events=record_events)
        return len(gc.get_objects()) - before, outcome
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [1500, 3000])
def test_event_recording_allocates_nothing_per_event(n):
    """An event is four slots of the run's one event list, so recording
    events leaves a constant number of tracked objects more, not one or
    two per event."""
    program = meta_program(f"""\
def f():
    i = 0
    s = 0
    while i < {n}:
        s = s + i % 7
        i = i + 1
    return s
""")
    with_events, outcome = tracked_objects_after_run(program, True)
    without, plain = tracked_objects_after_run(program, False)
    assert len(outcome.events) == 4 * 4 * n + 4  # 4 sites per iteration
    assert plain.events == [] and plain.stmts == outcome.stmts
    assert with_events - without <= 10


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


# --- call sites bound at compile time ---

CALLEES = """\
def f0():
    return 7 - 2

def f1(a):
    return a + 1

def f2(a, b):
    return f1(a) * b

def f3(a, b, c):
    if a < b:
        return f2(b, c)
    return f0() + c
"""
CALLEE_NAMES = ["f0", "f1", "f2", "f3", "len", "ord", "chr", "abs", "min",
                "max", "print", "nope"]
ARG_LOC = Loc(9, 20)
CALL_ARGS = st.one_of(
    st.builds(lambda v: Literal(ARG_LOC, v), st.one_of(
        st.integers(-3, 3), st.text("ab", max_size=2),
        st.tuples(st.integers(0, 3)), st.just(1.5))),
    st.sampled_from([
        Var(ARG_LOC, "v"),                          # bound to 2
        Var(ARG_LOC, "u"),                          # unbound: a name error
        Call(ARG_LOC, "f1", [Var(ARG_LOC, "v")]),   # nested calls
        Call(ARG_LOC, "f1", [Literal(ARG_LOC, 5)]),
        Call(ARG_LOC, "f1", [Literal(ARG_LOC, "s")]),  # fails inside f1
    ]))


def by_name_site(site, program):
    """The call site as it was compiled before call sites were bound: it
    evaluates the arguments, then calls through `PlainRun.call` by name."""
    args = [interp.compile_expr(a, program) for a in site.args]

    def ev(run, env):
        vals = [a(run, env) for a in args]
        try:
            return run.call(site.name, vals)
        except MiniRuntimeError as err:
            err.loc = err.loc or site.loc
            raise
    return ev


def run_call_site(ev, program, select):
    """The value or error of one call, the statements it ran, the points it
    covered and the events it recorded."""
    run = PlainRun(program, select=select, budget=500, record_events=True)
    try:
        result = ("val", repr(ev(run, {"v": 2})))
    except MiniRuntimeError as err:
        result = ("err", err.kind, err.message, err.loc)
    return repr((result, run.stmts, sorted(set(run.events[::4])), run.events))


@given(st.sampled_from(CALLEE_NAMES), st.lists(CALL_ARGS, max_size=4),
       st.integers(0, 46))  # 45 mutants
@example("f2", [Literal(ARG_LOC, 3), Literal(ARG_LOC, 4)], 0)
@example("f3", [Literal(ARG_LOC, 1), Var(ARG_LOC, "v"), Literal(ARG_LOC, 3)], 7)
@example("f1", [Literal(ARG_LOC, "s")], 0)
@example("f2", [Var(ARG_LOC, "u")], 0)
@example("f2", [Call(ARG_LOC, "f1", [Var(ARG_LOC, "v")]), Var(ARG_LOC, "u")], 0)
@example("f3", [Call(ARG_LOC, "f1", [Var(ARG_LOC, "v")]),
                Call(ARG_LOC, "f1", [Literal(ARG_LOC, 5)]),
                Call(ARG_LOC, "f1", [Literal(ARG_LOC, "s")])], 12)
@example("nope", [Call(ARG_LOC, "f1", [Literal(ARG_LOC, "s")])], 0)
@example("len", [Literal(ARG_LOC, "ab"), Literal(ARG_LOC, "ab")], 0)
@example("min", [], 0)
@example("print", [], 0)
@settings(max_examples=300, deadline=None)
def test_bound_call_sites_match_call_by_name(name, args, select):
    """Program functions with 0-3 parameters and builtins, called with
    every argument count, unknown names, failing arguments, errors deep in
    the callee and mutants selected inside nested calls."""
    program = meta_program(CALLEES)
    site = Call(Loc(9, 11), name, args)
    bound = interp.compile_expr(site, program)
    assert (run_call_site(bound, program, select)
            == run_call_site(by_name_site(site, program), program, select))


@pytest.mark.parametrize("source, kind, message, col", [
    ("nope(1)", "name", "unknown function 'nope'", 12),
    ("f(1)", "arity", "f() expected 2 arguments, got 1", 12),
    ("f(1, 2, 3)", "arity", "f() expected 2 arguments, got 3", 12),
    ("len(1, 2)", "arity", "len() got 2 arguments", 12),
    ("min()", "arity", "min() got 0 arguments", 12),
    ("abs()", "arity", "abs() got 0 arguments", 12),
    ("nope(u)", "name", "undefined variable 'u'", 17),
    ("f(len(1))", "type", "len() takes a string or list, got int", 14),
    ("nope(1 // 0)", "zero-division", "'//' by zero", 19),
])
def test_illegal_call_errors(source, kind, message, col):
    """Each illegal call's error at its site; an argument's own error,
    raised first, wins."""
    assert illegal_call_error(f"return {source}") == (kind, message,
                                                      Loc(5, col))


def illegal_call_error(statement):
    """The kind, message and location of the error that `statement`, the
    first line of `main`, raises in a program that also defines `f(a, b)`."""
    program = compile_program(parse_program(
        f"def f(a, b):\n    return a\n\ndef main():\n    {statement}\n"
        "    return 0\n"))
    with pytest.raises(MiniRuntimeError) as err:
        PlainRun(program).call("main", [])
    return err.value.kind, err.value.message, err.value.loc


@pytest.mark.parametrize("statement, kind, message, col", [
    ("x = max(a, 1 // b)", "zero-division", "'//' by zero", 18),
    ('x = max("s", 1)', "type", "max() takes numbers or a non-empty list", 9),
    ('return 1 + max("s", 1)', "type",
     "max() takes numbers or a non-empty list", 16),
    ("x = nope(1, 2)", "name", "unknown function 'nope'", 9),
    ("nope(a, 1 // b)", "zero-division", "'//' by zero", 15),
    ("print(a, nope(b))", "name", "unknown function 'nope'", 14),
])
def test_spread_call_errors(statement, kind, message, col):
    """A call of a Python function with other than one argument, after
    `a = 2` and `b = 0`: an argument's error keeps its own location, the
    callee's gets the call's, and every argument is evaluated before an
    illegal call raises."""
    assert illegal_call_error(f"a = 2\n    b = 0\n    {statement}") == (
        kind, message, Loc(7, col))


@pytest.mark.parametrize("statement, kind, message, col", [
    ("x = nope(1)", "name", "unknown function 'nope'", 9),
    ("nope(1)", "name", "unknown function 'nope'", 5),
    ("x = nope(1 // 0)", "zero-division", "'//' by zero", 16),
    ("nope(1 // 0)", "zero-division", "'//' by zero", 12),
    ("x = f(1)", "arity", "f() expected 2 arguments, got 1", 9),
    ("len(1, 2)", "arity", "len() got 2 arguments", 5),
])
def test_illegal_call_statement_errors(statement, kind, message, col):
    """A one-argument illegal call is a statement's own top-level body, as
    an assignment and as a bare call; its argument's error still wins."""
    assert illegal_call_error(statement) == (kind, message, Loc(5, col))


ONLY_A_MUTANT_CALLS_NOPE = """\
def f(x):
    if x > 0:
        return x
    y = nope(x)
    return y

def g(x):
    if x < 5:
        return x
    nope(x)
    return 0

def h(x):
    if x != 3:
        return x
    return nope(x, x)

def test_t():
    assert f(1) + g(1) + h(1) == 3
"""


def test_illegal_call_reached_only_by_a_mutant():
    """Mutants of each guard reach an illegal call (one argument as an
    assignment and as a bare call, two as a return value) that the
    original never runs: every strategy kills them by exception."""
    analysis = analyze_program(parse_program(ONLY_A_MUTANT_CALLS_NOPE))
    assert analysis.valid and check_consistency(analysis) == []
    # line of each guard -> the replacements that make it false at x = 1
    guards = {2: ("==", "<", "<="), 8: ("==", ">", ">="),
              14: ("==", ">", ">=")}
    reaching = [m.mid for m in analysis.mutants
                if m.replacement_op in guards.get(m.loc.line, ())]
    assert len(reaching) == 9
    for name, run in analysis.runs.items():
        for mid in reaching:
            assert run.verdicts[mid] == ("killed", "exception"), (name, mid)


def test_program_function_hides_a_builtin():
    outcome = run_src("def len(s):\n    return 7\n\ndef main():\n"
                      "    return len(\"ab\") + len(1)\n")
    assert (outcome.status, outcome.value) == ("pass", 14)


FRAMES_PER_CALL_LEVEL = 2  # run_fn, the statement's step
# the step, the memo hook `_MemoRun.run_fn` and `PlainRun.run_fn`
MEMO_FRAMES_PER_CALL_LEVEL = 3
ROOT_FRAMES_PER_CALL_LEVEL = 2  # run_code, eval
# the recursive call as a return value, with two arguments, as an
# assignment's value and as a bare expression statement
RECURSING = """\
def f(n):
    if n == 0:
        return print()
    return f(n - 1)

def g(n, k):
    if n == 0:
        return print(k)
    return g(n - 1, k)

def h(n):
    x = 0
    if n == 0:
        x = print()
    else:
        x = h(n - 1)
    return x

def k(n):
    if n == 0:
        print()
    else:
        k(n - 1)
"""


def stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("entry, args", [("f", []), ("g", [5]), ("h", []),
                                         ("k", [])])
def test_python_frames_per_call_level(monkeypatch, entry, args):
    """The Python stack grows by FRAMES_PER_CALL_LEVEL for each `.ml0`
    call level on PlainRun, read inside a builtin at two recursion depths.
    The deepest `.ml0` recursion that fits Python's recursion limit follows
    from this figure."""
    depths = []
    monkeypatch.setitem(values.BUILTINS, "print",
                        (lambda *a: depths.append(stack_depth()), 0, None))
    program = compile_program(parse_program(RECURSING))
    for n in (10, 30):
        PlainRun(program).call(entry, [n, *args])
    assert depths[1] - depths[0] == 20 * FRAMES_PER_CALL_LEVEL


@pytest.mark.parametrize("entry, args", [("f", []), ("g", [5]), ("h", []),
                                         ("k", [])])
def test_memo_python_frames_per_call_level(monkeypatch, entry, args):
    """A memo run, whose hook every call enters, costs
    MEMO_FRAMES_PER_CALL_LEVEL Python frames per `.ml0` call level. Each
    depth runs on a new engine, so no call is served from the memo."""
    depths = []
    monkeypatch.setitem(values.BUILTINS, "print",
                        (lambda *a: depths.append(stack_depth()), 0, None))
    program = compile_program(parse_program(RECURSING))
    for n in (10, 30):
        engine = TaintEngine(program, [], EngineConfig(), budget=10_000)
        _MemoRun(engine, 0).call(entry, [n, *args])
        assert engine.memo.stats.hits == 0
    assert depths[1] - depths[0] == 20 * MEMO_FRAMES_PER_CALL_LEVEL


@pytest.mark.parametrize("entry, args", [("f", []), ("g", [5]), ("h", []),
                                         ("k", [])])
def test_root_python_frames_per_call_level(monkeypatch, entry, args):
    """The taint engine's root mainline costs ROOT_FRAMES_PER_CALL_LEVEL
    Python frames per `.ml0` call level (`run_code` and `eval`), read
    inside a builtin at two recursion depths."""
    depths = []
    monkeypatch.setitem(values.BUILTINS, "print",
                        (lambda *a: depths.append(stack_depth()), 0, None))
    tests = "".join(
        f"\ndef test_{n}():\n    {entry}({', '.join(map(str, [n, *args]))})\n"
        for n in (10, 30))
    program = compile_program(parse_program(RECURSING + tests))
    for n in (10, 30):
        assert run_test(program, f"test_{n}", [], {}, EngineConfig()).valid
    # each test prints once in its original run, then once on the root
    root_depths = depths[1::2]
    assert root_depths[1] - root_depths[0] == 20 * ROOT_FRAMES_PER_CALL_LEVEL
