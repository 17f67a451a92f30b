"""Taint maps and the transmission rules, including the documented worked
examples and property-based checks of the composition laws."""

import struct
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mutlab.lang.errors import MiniRuntimeError
from mutlab.lang.values import (
    ARITH_OPS, BUILTINS, COMPARE_OPS, OPERATORS, canon_key, index_value,
    plain_eq, unary_op,
)
from mutlab.taints import (
    Tainted, apply_binary, apply_pointwise, concretize_env, entries, make,
    partition_condition, taint_get, value_of, with_taints,
)


def tmap(**kw):
    return make({int(k[1:]): v for k, v in kw.items()})


def as_map(v):
    return entries(v)


def taint_keys(v) -> set:
    """Non-original mutant ids carried by a value."""
    return set(v.taints) - {0} if isinstance(v, Tainted) else set()


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

    def test_pointwise_unary(self):
        v = apply_pointwise(partial(unary_op, "-"), [tmap(M0=1, M1=2)])
        assert as_map(v) == {0: -1, 1: -2}

    def test_pointwise_charge_floor(self):
        # one taint op per computed id, at least `floor`: a unary operator
        # passes 1, a builtin, list or index 0
        neg, length = partial(unary_op, "-"), BUILTINS["len"][0]
        cases = [(neg, [3], 1, None, 1), (neg, [tmap(M0=1, M1=2)], 1, set(), 1),
                 (neg, [tmap(M0=1, M1=2, M2=3)], 1, None, 2),
                 (length, ["ab"], 0, None, 0),
                 (length, [tmap(M0="a", M4="ab")], 0, {4}, 1),
                 (index_value, [(1, 2), 0], 0, None, 0)]
        for fn, args, floor, restrict, charge in cases:
            stats = _Stats()
            apply_pointwise(fn, args, floor=floor, restrict=restrict,
                            stats=stats)
            assert stats.taint_ops == charge, (fn, args)

    def test_pointwise_kills_in_id_order(self):
        # a list built of tainted items is tainted as a whole; a failing id
        # is reported in id order and dropped, the others kept
        killed = []
        items = [tmap(M0=0, M3=5, M1=9, M2=1), 1]
        v = apply_pointwise(lambda *vs: vs, items)
        assert as_map(v) == {0: (0, 1), 1: (9, 1), 2: (1, 1), 3: (5, 1)}
        out = apply_pointwise(index_value, [(7, 8), items[0]],
                              on_kill=lambda m, kind: killed.append((m, kind)))
        assert as_map(out) == {0: 7, 2: 8}
        assert killed == [(1, "index"), (3, "index")]
        with pytest.raises(MiniRuntimeError):  # a mainline error propagates
            apply_pointwise(index_value, [(7,), tmap(M0=2, M1=0)])

    def test_with_taint_merge_back(self):
        v = with_taint(5, 3, 9)
        assert as_map(v) == {0: 5, 3: 9}
        assert with_taint(5, 3, 5) == 5  # pruned

    def test_partition_condition(self):
        killed = []
        # entries equal to M0 are pruned at construction, so M2 agrees by
        # fallback and is not reported
        c = make({0: True, 1: False, 2: True, 3: 7})
        mainline, diverge = partition_condition(
            c, on_kill=lambda m, k: killed.append(m))
        assert mainline is True
        assert diverge == [1]
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


NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
# values whose entries differ from the original only in type, sign of zero,
# nan payload bits, or as strings and tuples
PRUNE_OPERANDS = st.one_of(st.integers(-2, 2), st.sampled_from(
    [0.0, -0.0, 1.0, 2.5, float("nan"), -float("nan"), NAN_PAYLOAD, True,
     False, "", "a", "ab", (), (1,), (1.0,), (True,), (0.0,), (-0.0,)]))
PRUNE_MAPS = st.builds(lambda a0, d: make({0: a0, **d}), PRUNE_OPERANDS,
                       st.dictionaries(st.integers(1, 8), PRUNE_OPERANDS,
                                       max_size=5))
ANY_OP = st.sampled_from(ARITH_OPS + COMPARE_OPS + ("and", "or"))


@given(PRUNE_MAPS, ANY_OP, st.dictionaries(st.integers(1, 8), ANY_OP,
                                           max_size=5),
       PRUNE_MAPS, st.none() | st.sets(st.integers(1, 8)))
@example(4, "/", {1: "//"}, 2, None)                  # 2.0 against 2
@example(1, "==", {1: "*"}, 1, None)                  # True against 1
@example(make({0: 0.0, 1: -0.0}), "*", {}, 1.0, None)  # 0.0 against -0.0
@example(make({0: float("nan"), 1: NAN_PAYLOAD}), "*", {}, 1.0, None)
@example(make({0: "a", 1: "b"}), "+", {2: "*"}, "", None)
@example(make({0: (1,), 1: (1.0,), 2: (True,)}), "+", {}, (), None)
@settings(max_examples=500)
def test_apply_binary_prunes_as_make_does(a, op, muts, b, restrict):
    # the pruned result is `make` over the full map: an entry of another
    # exact type is kept unchecked, and a float is compared inline except
    # for ±0.0 and nan; kills and the charge do not change either
    assert _run(apply_binary, a, op, muts, b, restrict) == \
        _run(reference_apply_binary, a, op, muts, b, restrict)


BOOL_MAPS = st.builds(lambda a0, d: make({0: a0, **d}), st.booleans(),
                      st.dictionaries(st.integers(1, 8), OPERANDS, max_size=5))


@st.composite
def conditions(draw):
    """A condition as the engine builds one: by `make`, or by
    `apply_binary` applying a comparison or `and`/`or`."""
    if draw(st.booleans()):
        return draw(BOOL_MAPS)
    ops, operands = draw(st.sampled_from([(COMPARE_OPS, TAINT_MAPS),
                                          (("and", "or"), BOOL_MAPS)]))
    op = draw(st.sampled_from(ops))
    muts = draw(st.dictionaries(st.integers(1, 8), st.sampled_from(ops),
                                max_size=5))
    try:
        return apply_binary(draw(operands), op, muts, draw(operands))
    except MiniRuntimeError:
        assume(False)


@given(conditions(), st.none() | st.sets(st.integers(1, 8)))
@settings(max_examples=300)
def test_every_bool_entry_of_a_condition_diverges(c, restrict):
    # entries equal to the original are pruned as a value is built, so no
    # mutant a condition carries follows its mainline decision: each bool
    # entry diverges, and each other entry is a type error
    mainline = value_of(c)
    assert type(mainline) is bool
    ids = taint_keys(c) if restrict is None else taint_keys(c) & restrict
    bools = {m for m in ids if type(taint_get(c, m)) is bool}
    assert all(taint_get(c, m) is not mainline for m in bools)
    killed = []
    assert partition_condition(c, restrict=restrict,
                               on_kill=lambda m, k: killed.append(m)) == (
        mainline, sorted(bools))
    assert killed == sorted(ids - bools)


def with_taint(v, m: int, mval):
    """Install mval as mutant m's entry on v: the one-entry merge-back rule,
    the reference that `with_taints` is checked against. The other entries
    are already pruned, so only the new one is compared with the original."""
    t = entries(v)
    if plain_eq(mval, t[0]):
        t.pop(m, None)
    else:
        t[m] = mval
    return Tainted(t) if len(t) > 1 else t[0]


@given(TAINT_MAPS, st.integers(1, 8), OPERANDS)
def test_with_taint_matches_make(v, m, mval):
    # merge-back compares only the new entry: the others are already pruned
    want = make({**entries(v), m: mval})
    got = with_taint(v, m, mval)
    assert [(k, canon_key(x)) for k, x in entries(got).items()] == \
        [(k, canon_key(x)) for k, x in entries(want).items()]


def keyed(v):
    """A value's taint map as (id, canon_key) pairs, in map order."""
    return [(k, canon_key(x)) for k, x in entries(v).items()]


@given(TAINT_MAPS, st.dictionaries(st.integers(1, 8), OPERANDS, max_size=6))
def test_one_map_merge_back_matches_folding_with_taint(v, survivors):
    # the engine merges a frame's survivors in mutant order
    merged = sorted(survivors.items())
    want = v
    for m, mval in merged:
        want = with_taint(want, m, mval)
    got = with_taints(v, merged)
    assert type(got) is type(want)
    assert keyed(got) == keyed(want)


@given(st.dictionaries(st.sampled_from("abcdefg"), TAINT_MAPS, max_size=6),
       st.lists(st.integers(1, 9), unique=True, max_size=5))
def test_divergence_envs_match_each_mutants_view(env, mutants):
    # each diverging mutant gets env concretized for it: same values (the
    # same objects), same key order
    views = concretize_env(env, mutants)
    assert len(views) == len(mutants)
    for m, view in zip(mutants, views):
        want = {k: taint_get(v, m) for k, v in env.items()}
        assert list(view) == list(want)
        assert all(view[k] is want[k] for k in want)
