"""Memo cache and mutation cache semantics, and the static reach sets
the mutation cache holds."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from mutlab.cli import CORPUS_DIR, CORPUS_PROGRAMS
from mutlab.lang import compile_program, parse_program
from mutlab.lang.nodes import Call, Expr, Stmt, TaintChoice
from mutlab.lang.values import canon_key
from mutlab.memo import MemoState, make_call_key
from mutlab.mutate import (
    discover_mutation_points, enumerate_mutants, generate_meta_mutant,
)
from mutlab.taints import ORIGINAL


class TestCallKeys:
    def test_floats_are_bit_exact(self):
        assert make_call_key("f", [1.0]) != make_call_key("f", [1])
        assert make_call_key("f", [0.0]) != make_call_key("f", [-0.0])
        assert make_call_key("f", [1.5]) == make_call_key("f", [1.5])

    def test_bools_distinct_from_ints(self):
        assert make_call_key("f", [True]) != make_call_key("f", [1])

    def test_lists_key_structurally(self):
        # mini-language lists are tuples internally
        assert (make_call_key("f", [(1, 2.0)])
                == make_call_key("f", [(1, 2.0)]))
        assert make_call_key("f", [(1,)]) != make_call_key("f", [(1.0,)])

    def test_canon_key_output_is_pinned(self):
        # call keys are decoded from this exact form (acceptance
        # criterion 6); repr tells True from 1 and the float bytes apart
        nan = struct.unpack("<d", b"\x00\x00\x00\x00\x00\x00\xf8\x7f")[0]
        pins = [
            (7, "('i', 7)"),
            (-2**63, "('i', -9223372036854775808)"),
            (True, "('b', True)"),
            (False, "('b', False)"),
            ("ab", "('s', 'ab')"),
            (1.5, "('f', b'\\x00\\x00\\x00\\x00\\x00\\x00\\xf8?')"),
            (-0.0, "('f', b'\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x80')"),
            (nan, "('f', b'\\x00\\x00\\x00\\x00\\x00\\x00\\xf8\\x7f')"),
            (None, "('n', None)"),
            ((), "('l', ())"),
            ((1, (True, "x"), ()),
             "('l', (('i', 1), ('l', (('b', True), ('s', 'x'))), ('l', ())))"),
        ]
        for v, want in pins:
            assert repr(canon_key(v)) == want, v

        assert repr(make_call_key("f", [2, (0.0,)])) == (
            "('f', (('i', 2), ('l', (('f', b'\\x00\\x00\\x00\\x00\\x00"
            "\\x00\\x00\\x00'),))))")

    @given(st.floats(allow_nan=False))
    def test_float_keys_hashable_and_stable(self, x):
        k = make_call_key("g", [x])
        assert hash(k) == hash(make_call_key("g", [x]))


class TestMemoState:
    def test_store_then_lookup(self):
        ms = MemoState()
        k = make_call_key("f", [3])
        hit, _ = ms.lookup(k, 1)
        assert not hit
        ms.store(k, 1, 42)
        hit, v = ms.lookup(k, 2)
        assert hit and v == 42
        assert ms.stats.hits == 1 and ms.stats.misses == 1
        assert ms.stats.stores == 1

    def test_first_write_wins(self):
        ms = MemoState()
        k = make_call_key("f", [3])
        ms.store(k, 1, 42)
        ms.store(k, 2, 99)
        assert ms.lookup(k, 5) == (True, 42)

    def test_mutation_cache_vetoes_lookup_per_mutant(self):
        ms = MemoState()
        k = make_call_key("f", [3])
        ms.store(k, 1, 42)
        ms.record_mutation_encounter("f", frozenset({2}))  # M2's site is in f
        assert ms.lookup(k, 2) == (False, None)   # M2's mutation may run inside
        assert ms.lookup(k, 3) == (True, 42)      # other mutants still share

    def test_mutation_cache_vetoes_store(self):
        ms = MemoState()
        k = make_call_key("f", [3])
        ms.record_mutation_encounter("f", frozenset({1}))
        ms.store(k, 1, 42)
        assert ms.stats.stores == 0
        assert ms.lookup(k, 1) == (False, None)

    def test_reach_refuses_every_key_of_its_function(self):
        ms = MemoState()
        keys = [make_call_key(fn, [x]) for fn in ("p", "c", "q") for x in (5, 6)]
        for fn, mutants in (("p", {1}), ("c", {1}), ("q", set())):
            ms.record_mutation_encounter(fn, frozenset(mutants))  # p calls c
        for k in keys:
            ms.store(k, 1, 0)                    # refused for p and c
        assert ms.stats.stores == 2              # only q(5), q(6)
        for k in keys:
            ms.store(k, 2, k[1][0])              # M2 has no site: kept
        assert ms.stats.stores == 6
        for k in keys:
            assert ms.lookup(k, 1) == ((True, 0) if k[0] == "q"
                                       else (False, None))
            assert ms.lookup(k, 3) == (True, ms.entries[k])

    def test_original_is_never_refused(self):
        ms = MemoState()
        k = make_call_key("f", [3])
        ms.record_mutation_encounter("f", frozenset({4}))
        ms.store(k, ORIGINAL, 9)
        assert ms.lookup(k, ORIGINAL) == (True, 9)
        assert ms.lookup(k, 4) == (False, None)

    def test_clear_keeps_the_reach_sets(self):
        ms = MemoState()
        k = make_call_key("f", [3])
        ms.record_mutation_encounter("f", frozenset({1}))
        ms.clear_if_all_merged()
        assert ms.stats.clears == 0              # no entry to drop
        ms.store(k, 2, 42)
        ms.clear_if_all_merged()
        assert ms.stats.clears == 1 and ms.entries == {}
        ms.store(k, 1, 42)                       # still refused
        assert ms.mutation_cache == {"f": {1}} and ms.entries == {}

    def test_clear_only_when_all_merged(self):
        ms = MemoState()
        k = make_call_key("f", [3])
        ms.store(k, 1, 42)
        assert ms.lookup(k, 1) == (True, 42)
        ms.clear_if_all_merged()
        assert ms.lookup(k, 1) == (False, None)
        assert ms.stats.clears == 1
        # clearing an already-empty store doesn't count
        ms.clear_if_all_merged()
        assert ms.stats.clears == 1


def meta_ast(src):
    ast = parse_program(src)
    points = discover_mutation_points(ast)
    return generate_meta_mutant(ast, points, enumerate_mutants(points))


def _nodes(node):
    """`node` and every statement and expression under it."""
    yield node
    for v in vars(node).values():
        for child in v if isinstance(v, list) else [v]:
            if isinstance(child, (Expr, Stmt)):
                yield from _nodes(child)


def brute_force_reach(meta):
    """reach(f) by a breadth-first search over the calls written in the
    source, bound by name and argument count."""
    arity = {f.name: len(f.params) for f in meta.functions}
    own, calls = {}, {}
    for f in meta.functions:
        nodes = [n for s in f.body for n in _nodes(s)]
        own[f.name] = {m for n in nodes if isinstance(n, TaintChoice)
                       for m in n.variants if m != ORIGINAL}
        calls[f.name] = {n.name for n in nodes if isinstance(n, Call)
                         and arity.get(n.name) == len(n.args)}
    reach = {}
    for name in arity:
        seen, frontier = {name}, [name]
        while frontier:
            frontier = [g for f in frontier for g in calls[f] if g not in seen]
            seen.update(frontier)
        reach[name] = frozenset().union(*(own[f] for f in seen))
    return own, reach


def reach_sets(src):
    """The program's reach sets, and each function's own mutants."""
    meta = meta_ast(src)
    return brute_force_reach(meta)[0], compile_program(meta).reach


class TestReachSets:
    def test_closure_over_calls(self):
        own, reach = reach_sets(
            "def c(x):\n    return x * 2\n\n"
            "def b(x):\n    return c(x) + 1\n\n"
            "def a(x):\n    return b(x)\n")
        assert own["a"] == set() and own["b"] and own["c"]
        assert reach["c"] == own["c"]
        assert reach["b"] == reach["a"] == own["b"] | own["c"]

    def test_mutual_recursion(self):
        own, reach = reach_sets(
            "def p(n):\n    if n < 1:\n        return 0\n    return q(n - 1)\n\n"
            "def q(n):\n    if n < 2:\n        return 1\n    return p(n - 2)\n\n"
            "def r(n):\n    return p(n)\n")
        assert own["p"] and own["q"] and not own["p"] & own["q"]
        assert reach["p"] == reach["q"] == reach["r"] == own["p"] | own["q"]

    def test_call_with_the_wrong_arity_adds_nothing(self):
        own, reach = reach_sets(
            "def h(x):\n    return x + 1\n\n"
            "def g(x):\n    return h(x, 1)\n")
        assert reach == {"h": own["h"], "g": frozenset()} and own["h"]

    def test_program_function_hides_a_builtin(self):
        own, reach = reach_sets(
            "def len(s):\n    return s + 1\n\n"
            "def f(s):\n    return len(s)\n\n"
            "def g(s):\n    return abs(s)\n")
        assert reach == {"len": own["len"], "f": own["len"],
                         "g": frozenset()} and own["len"]

    def test_uncalled_function_is_in_no_other_set(self):
        own, reach = reach_sets(
            "def u(x):\n    return x - 1\n\n"
            "def f(x):\n    return x + 1\n\n"
            "def test_f():\n    assert f(1) == 2\n")
        assert reach["u"] == own["u"] and own["u"]
        assert not own["u"] & (reach["f"] | reach["test_f"])

    def test_original_id_is_in_no_set(self):
        for src in (CORPUS_DIR / f"{n}.ml0" for n in CORPUS_PROGRAMS):
            _, reach = reach_sets(src.read_text())
            assert reach and all(ORIGINAL not in s for s in reach.values())


NAMES = ["f0", "f1", "f2", "f3", "len", "abs"]


@st.composite
def call_graph_programs(draw):
    """Source text of 1-4 functions, some named like builtins, whose
    bodies call any of the names (undefined ones too) with 0-3 arguments,
    inside branches, loops, arithmetic and other calls."""
    def expr(depth):
        kind = draw(st.sampled_from(["leaf", "op", "call"] if depth else ["leaf"]))
        if kind == "leaf":
            return draw(st.sampled_from(["1", "2"]))
        if kind == "op":
            op = draw(st.sampled_from("+-*<"))
            return f"({expr(depth - 1)} {op} {expr(depth - 1)})"
        args = [expr(depth - 1) for _ in range(draw(st.integers(0, 3)))]
        return f"{draw(st.sampled_from(NAMES + ['nope']))}({', '.join(args)})"

    lines = []
    for name in draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4,
                              unique=True)):
        params = ", ".join(f"p{i}" for i in range(draw(st.integers(0, 3))))
        lines.append(f"def {name}({params}):")
        for _ in range(draw(st.integers(1, 3))):
            head = draw(st.sampled_from(["", "if", "while"]))
            if head:
                lines.append(f"    {head} {expr(2)}:")
            lines.append(f"{'    ' * (2 if head else 1)}x = {expr(2)}")
        lines.append(f"    return {expr(2)}")
    return "\n".join(lines) + "\n"


@given(call_graph_programs())
@settings(max_examples=200, deadline=None)
def test_reach_sets_match_a_brute_force_search(src):
    meta = meta_ast(src)
    assert compile_program(meta).reach == brute_force_reach(meta)[1]
