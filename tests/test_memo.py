"""Memo cache and mutation cache semantics."""

from hypothesis import given
from hypothesis import strategies as st

from mutlab.memo import MemoState, make_call_key
from mutlab.taints import make


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
        ms.enter("f", [3])
        ms.note(0, {0: "+", 2: "-"})              # M2's choice site ran inside
        assert ms.leave() == 1
        assert ms.lookup(k, 2) == (False, None)   # M2's mutation ran inside
        assert ms.lookup(k, 3) == (True, 42)      # other mutants still share

    def test_mutation_cache_vetoes_store(self):
        ms = MemoState()
        k = make_call_key("f", [3])
        ms.enter("f", [3])
        ms.note(0, {1: "*"})
        ms.leave()
        ms.store(k, 1, 42)
        assert ms.stats.stores == 0
        assert ms.lookup(k, 1) == (False, None)

    def test_encounter_marks_all_ancestor_keys_once(self):
        ms = MemoState()
        for expected in (2, 0):
            ms.enter("g", [2])
            ms.enter("f", [1])
            ms.note(0, {1: "+", 2: "-"})
            assert ms.leave() == expected     # (M1, f(1)), (M2, f(1))
            assert ms.leave() == expected     # merged into g's set on return
        assert ms.frames == []

    def test_nested_frame_records_inner_and_outer_keys(self):
        ms = MemoState()
        ms.enter("g", [make({0: 2, 1: 5})])    # M1 calls g(5), the rest g(2)
        ms.enter("f", [1])
        ms.note(0, {0: "<", 1: ">", 2: ">="})
        assert ms.mutation_cache == set()      # nothing written while open
        assert ms.leave() == 2
        assert ms.leave() == 2
        assert ms.mutation_cache == {
            (1, make_call_key("f", [1])), (2, make_call_key("f", [1])),
            (1, make_call_key("g", [5])), (2, make_call_key("g", [2])),
        }

    def test_clear_drops_pending_sets_of_open_frames(self):
        ms = MemoState()
        ms.enter("test_t", [])
        ms.enter("f", [3])
        ms.note(0, {1: "+"})
        ms.clear_if_all_merged()
        assert ms.stats.clears == 1            # only a pending set was non-empty
        assert ms.leave() == 0
        assert ms.leave() == 0
        assert ms.mutation_cache == set()
        ms.clear_if_all_merged()
        assert ms.stats.clears == 1

    def test_open_frame_vetoes_its_own_key(self):
        ms = MemoState()
        k = make_call_key("f", [3])
        ms.store(k, 1, 42)
        ms.enter("f", [3])
        ms.note(0, {2: "-"})
        assert ms.lookup(k, 2) == (False, None)
        assert ms.lookup(k, 3) == (True, 42)
        ms.enter("g", [make({0: 4, 5: 7})])
        ms.note(1, {5: "*"})
        ms.store(make_call_key("g", [7]), 5, 1)   # M5's own view of the frame
        assert ms.stats.stores == 1
        ms.store(make_call_key("g", [4]), 5, 1)   # a call M5 did not make
        assert ms.stats.stores == 2

    def test_open_outer_frame_vetoes_while_inner_frame_is_open(self):
        ms = MemoState()
        k = make_call_key("p", [5])
        ms.store(k, 2, 6)                        # M2 computed p(5) earlier
        ms.enter("p", [make({0: 2, 1: 5})])      # M1 calls p(5), the rest p(2)
        ms.enter("c", [make({0: 2, 1: 5})])
        ms.note(0, {0: "+", 1: "*"})             # M1's site runs in c, not in p
        assert ms.lookup(k, 1) == (False, None)  # M1's p(5) is still open
        assert ms.lookup(k, 2) == (True, 6)
        assert ms.lookup(make_call_key("p", [2]), 1) == (False, None)  # no entry
        ms.store(make_call_key("p", [2]), 1, 0)  # not M1's view of p: kept
        assert ms.stats.stores == 2
        ms.leave()
        assert ms.lookup(k, 1) == (False, None)
        ms.leave()
        assert ms.lookup(k, 1) == (False, None)  # now a mutation-cache record

    def test_site_run_many_times_writes_the_records_of_one_run(self):
        written = []
        for times in (1, 7):
            ms = MemoState()
            ms.enter("g", [make({0: 2, 1: 5})])
            ms.enter("f", [1])
            for _ in range(times):
                ms.note(3, {0: "<", 1: ">", 2: ">="})
            ms.note(4, {0: "+", 6: "-"})
            leaves = (ms.leave(), ms.leave())
            written.append((leaves, ms.mutation_cache, ms.stats.as_dict()))
        assert written[0] == written[1]
        assert written[0][0] == (3, 3)

    def test_site_noted_two_frames_deeper_still_vetoes(self):
        ms = MemoState()
        k = make_call_key("p", [5])
        ms.store(k, 2, 6)
        ms.enter("p", [5])
        ms.enter("c", [1])
        ms.enter("d", [0])
        ms.note(7, {0: "+", 2: "*"})             # M2's site runs in d
        assert ms.lookup(k, 2) == (False, None)  # p(5) is open for M2
        assert ms.lookup(k, 3) == (True, 6)
        assert ms.lookup(k, 0) == (True, 6)      # the original is never vetoed
        ms.store(make_call_key("c", [1]), 2, 0)
        assert ms.stats.stores == 1              # c(1) is open for M2 too

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

    def test_disabled_state_is_inert(self):
        ms = MemoState(enabled=False)
        k = make_call_key("f", [3])
        ms.store(k, 1, 42)
        assert ms.record_mutation_encounter("f", [3], {1}) == 0
        assert ms.lookup(k, 1) == (False, None)
        assert ms.stats.stores == 0 and ms.stats.misses == 0
