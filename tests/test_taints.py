"""Taint maps and the transmission rules, including the documented worked
examples and property-based checks of the composition laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutlab.lang.errors import MiniRuntimeError
from mutlab.lang.values import ARITH_OPS, COMPARE_OPS, OPERATORS, canon_key
from mutlab.taints import (
    Tainted, apply_binary, apply_unary, entries, make, partition_condition,
    taint_get, taint_keys, value_of, with_taint,
)


def tmap(**kw):
    return make({int(k[1:]): v for k, v in kw.items()})


def as_map(v):
    return entries(v)


class TestRules:
    def test_rule1_untainted_operands_untainted_result(self):
        c = apply_binary(2, "+", {}, 3)
        assert c == 5 and not isinstance(c, Tainted)

    def test_rule3_operator_mutation_only(self):
        # a=1, b=1, mutation M1 turns + into -; the original entry is 2
        c = apply_binary(1, "+", {1: "-"}, 1)
        assert as_map(c) == {0: 2, 1: 0}

    def test_rule4_pointwise(self):
        a = tmap(M0=1, M1=2)
        b = tmap(M0=3, M1=4)
        c = apply_binary(a, "+", {}, b)
        assert as_map(c) == {0: 4, 1: 6}

    def test_rule5_mutated_operator_uses_own_entries(self):
        a = tmap(M0=1, M1=2)
        b = tmap(M0=3, M1=4)
        c = apply_binary(a, "+", {1: "*"}, b)
        assert as_map(c) == {0: 4, 1: 8}

    def test_rule6_fallback(self):
        a = tmap(M0=1, M1=2)
        c = apply_binary(a, "+", {}, 3)
        assert as_map(c) == {0: 4, 1: 5}

    def test_rule7_independent_taints(self):
        a = tmap(M0=1, M1=2)
        b = tmap(M0=3, M2=5)
        c = apply_binary(a, "+", {}, b)
        assert as_map(c) == {0: 4, 1: 5, 2: 6}

    def test_running_example_composition(self):
        # a = 2; `a/2` with M2: a+2 and M3: a*2
        c = apply_binary(2, "/", {2: "+", 3: "*"}, 2)
        assert as_map(c) == {0: 1.0, 2: 4, 3: 4}


class TestMechanics:
    def test_pruning_equal_entries(self):
        assert make({0: 5, 1: 5}) == 5
        assert not isinstance(make({0: 5, 1: 5, 2: 5}), Tainted)
        # type-sensitive: 5.0 is a distinct entry
        assert isinstance(make({0: 5, 1: 5.0}), Tainted)

    def test_fallback_law(self):
        v = tmap(M0=1, M3=9)
        assert taint_get(v, 3) == 9
        assert taint_get(v, 4) == 1
        assert taint_get(7, 3) == 7

    def test_per_mutant_error_kills_and_drops(self):
        killed = []
        a = tmap(M0=4, M1=0)
        c = apply_binary(8, "//", {}, a,
                         on_kill=lambda m, k: killed.append((m, k)))
        assert as_map(c) == {0: 2}
        assert killed == [(1, "zero-division")]

    def test_mainline_error_propagates(self):
        with pytest.raises(MiniRuntimeError):
            apply_binary(1, "//", {}, tmap(M0=0, M1=2))

    def test_restrict_limits_entries(self):
        a = tmap(M0=1, M1=2, M2=3)
        c = apply_binary(a, "+", {}, 1, restrict={2})
        assert as_map(c) == {0: 2, 2: 4}

    def test_apply_unary(self):
        assert as_map(apply_unary("-", tmap(M0=1, M1=2))) == {0: -1, 1: -2}

    def test_with_taint_merge_back(self):
        v = with_taint(5, 3, 9)
        assert as_map(v) == {0: 5, 3: 9}
        assert with_taint(5, 3, 5) == 5  # pruned

    def test_partition_condition(self):
        killed = []
        # entries equal to M0 are pruned at construction, so explicit
        # agreeing entries don't exist and `follow` stays empty here
        c = make({0: True, 1: False, 3: 7})
        mainline, follow, diverge = partition_condition(
            c, on_kill=lambda m, k: killed.append(m))
        assert mainline is True
        assert follow == set() and diverge == {1}
        assert killed == [3]

    def test_partition_requires_bool_mainline(self):
        with pytest.raises(MiniRuntimeError):
            partition_condition(make({0: 1, 1: 2}))


ids = st.integers(min_value=1, max_value=5)
small_ints = st.integers(min_value=-50, max_value=50)
maps = st.dictionaries(ids, small_ints, max_size=4).map(
    lambda d: make({0: 0, **d}) if 0 not in d else make(d))


def taint_of(v, m):
    return taint_get(v, m)


class TestProperties:
    @given(st.dictionaries(ids, small_ints, max_size=4), small_ints,
           st.dictionaries(ids, small_ints, max_size=4), small_ints)
    @settings(max_examples=200)
    def test_pointwise_composition(self, da, a0, db, b0):
        # every mutant's entry equals the plain op on its own views:
        # mutants never interact (rule 7)
        a = make({0: a0, **da})
        b = make({0: b0, **db})
        c = apply_binary(a, "+", {}, b)
        for m in set(da) | set(db) | {0}:
            assert taint_of(c, m) == taint_of(a, m) + taint_of(b, m)

    @given(st.dictionaries(ids, small_ints, max_size=4), small_ints, small_ints)
    @settings(max_examples=200)
    def test_m0_projection_matches_plain(self, da, a0, b0):
        # projecting M0 commutes with the operation
        a = make({0: a0, **da})
        c = apply_binary(a, "*", {}, b0)
        assert value_of(c) == a0 * b0

    @given(st.dictionaries(ids, small_ints, min_size=1, max_size=4), small_ints)
    @settings(max_examples=200)
    def test_pruning_is_lossless(self, da, a0):
        # by the fallback law, pruning entries equal to M0 never changes
        # any mutant's view
        full = {0: a0, **da}
        pruned = make(full)
        for m in range(0, 7):
            assert taint_get(pruned, m) == full.get(m, a0)


# --- the lean apply_binary against the straightforward composition ---

def reference_apply_binary(a, op, op_mutations, b, *, restrict, on_kill,
                           stats):
    """apply_binary as plain composition: every id through the operator
    table with fallback lookups, then `make` prunes."""
    out = {0: OPERATORS[op](value_of(a), value_of(b))}
    ids = taint_keys(a) | taint_keys(b) | set(op_mutations)
    if restrict is not None:
        ids &= restrict
    for m in sorted(ids):
        try:
            out[m] = OPERATORS[op_mutations.get(m, op)](taint_get(a, m),
                                                        taint_get(b, m))
        except MiniRuntimeError as err:
            on_kill(m, err.kind)
    stats.taint_ops += max(len(ids), 1)
    return make(out)


class _Stats:
    taint_ops = 0


def _run(fn, a, op, muts, b, restrict):
    kills, stats = [], _Stats()
    try:
        v = fn(a, op, muts, b, restrict=restrict,
               on_kill=lambda m, kind: kills.append((m, kind)), stats=stats)
    except MiniRuntimeError as err:
        return ("err", err.kind, err.message), kills, stats.taint_ops
    taint_map = [(m, canon_key(x)) for m, x in entries(v).items()]
    return taint_map, kills, stats.taint_ops


OPERANDS = st.one_of(st.integers(-3, 3), st.sampled_from(
    [0.0, -0.0, 0.5, 2.0, float("inf"), float("nan"), True, False, "a", 2**62]))
TAINT_MAPS = st.builds(lambda a0, d: make({0: a0, **d}), OPERANDS,
                       st.dictionaries(st.integers(1, 8), OPERANDS, max_size=5))


@st.composite
def compositions(draw):
    ops = draw(st.sampled_from([ARITH_OPS, COMPARE_OPS, ("and", "or")]))
    op = draw(st.sampled_from(ops))
    muts = draw(st.dictionaries(st.integers(1, 8), st.sampled_from(ops),
                                max_size=5))
    restrict = draw(st.none() | st.sets(st.integers(1, 8)))
    return draw(TAINT_MAPS), op, muts, draw(TAINT_MAPS), restrict


@given(compositions(), st.booleans())
@settings(max_examples=500)
def test_apply_binary_matches_reference_composition(case, as_variants):
    a, op, muts, b, restrict = case
    want = _run(reference_apply_binary, a, op, muts, b, restrict)
    # a choice site passes its whole variant map, ORIGINAL included
    passed = {0: op, **muts} if as_variants else muts
    assert _run(apply_binary, a, op, passed, b, restrict) == want


@given(TAINT_MAPS, st.integers(1, 8), OPERANDS)
def test_with_taint_matches_make(v, m, mval):
    # merge-back compares only the new entry: the others are already pruned
    want = make({**entries(v), m: mval})
    got = with_taint(v, m, mval)
    assert [(k, canon_key(x)) for k, x in entries(got).items()] == \
        [(k, canon_key(x)) for k, x in entries(want).items()]
