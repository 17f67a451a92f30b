"""Memo cache and mutation cache semantics."""

from hypothesis import given
from hypothesis import strategies as st

from mutlab.memo import MemoState, make_call_key
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
        ms.enter("f")
        ms.note(0, {0: "+", 2: "-"})              # M2's choice site ran inside
        assert ms.leave() == 1
        assert ms.lookup(k, 2) == (False, None)   # M2's mutation ran inside
        assert ms.lookup(k, 3) == (True, 42)      # other mutants still share

    def test_mutation_cache_vetoes_store(self):
        ms = MemoState()
        k = make_call_key("f", [3])
        ms.enter("f")
        ms.note(0, {1: "*"})
        ms.leave()
        ms.store(k, 1, 42)
        assert ms.stats.stores == 0
        assert ms.lookup(k, 1) == (False, None)

    def test_encounter_marks_all_ancestor_keys_once(self):
        ms = MemoState()
        for expected in (2, 0):
            ms.enter("g")
            ms.enter("f")
            ms.note(0, {1: "+", 2: "-"})
            assert ms.leave() == expected     # (M1, f), (M2, f)
            assert ms.leave() == expected     # merged into g's set on return
        assert ms.frames == []

    def test_closed_frames_record_their_function_and_callers(self):
        ms = MemoState()
        ms.enter("g")
        ms.enter("f")
        ms.note(0, {0: "<", 1: ">", 2: ">="})
        assert ms.mutation_cache == set()      # nothing written while open
        assert ms.leave() == 2
        assert ms.leave() == 2
        assert ms.mutation_cache == {(1, "f"), (2, "f"), (1, "g"), (2, "g")}

    def test_clear_drops_pending_sets_of_open_frames(self):
        ms = MemoState()
        ms.enter("test_t")
        ms.enter("f")
        ms.note(0, {1: "+"})
        ms.clear_if_all_merged()
        assert ms.stats.clears == 1            # only a pending set was non-empty
        assert ms.leave() == 0
        assert ms.leave() == 0
        assert ms.mutation_cache == set()
        ms.clear_if_all_merged()
        assert ms.stats.clears == 1

    def test_closed_frame_refuses_every_key_of_its_function_and_callers(self):
        ms = MemoState()
        keys = [make_call_key(fn, [x]) for fn in ("p", "c", "q") for x in (5, 6)]
        ms.enter("p")
        ms.enter("c")
        ms.note(0, {0: "+", 1: "*"})             # M1's site runs in c
        assert ms.leave() == 1
        assert ms.leave() == 1
        for k in keys:
            ms.store(k, 1, 0)                    # refused for p and c
        assert ms.stats.stores == 2              # only q(5), q(6)
        for k in keys:
            ms.store(k, 2, k[1][0])              # M2 ran no site: kept
        assert ms.stats.stores == 6
        for k in keys:
            assert ms.lookup(k, 1) == ((True, 0) if k[0] == "q"
                                       else (False, None))
            assert ms.lookup(k, 3) == (True, ms.entries[k])

    def test_open_frame_refuses_nothing(self):
        ms = MemoState()
        k, kc = make_call_key("p", [5]), make_call_key("c", [1])
        ms.store(k, 2, 6)
        ms.store(kc, 3, 0)
        ms.enter("p")
        ms.enter("c")
        ms.note(7, {0: "+", 2: "*"})             # M2's site runs in c
        assert ms.lookup(k, 2) == (True, 6)      # no record until c returns
        assert ms.lookup(kc, 2) == (True, 0)
        ms.leave()
        assert ms.lookup(k, 2) == (True, 6)      # c's record leaves p alone
        assert ms.lookup(kc, 2) == (False, None)
        ms.leave()
        assert ms.lookup(k, 2) == (False, None)

    def test_original_is_never_refused(self):
        ms = MemoState()
        k = make_call_key("f", [3])
        ms.enter("f")
        ms.note(0, {0: "+", 4: "-"})
        assert ms.leave() == 1                   # (M4, f) only
        assert (ORIGINAL, "f") not in ms.mutation_cache
        ms.store(k, ORIGINAL, 9)
        assert ms.lookup(k, ORIGINAL) == (True, 9)
        assert ms.lookup(k, 4) == (False, None)

    def test_site_run_many_times_writes_one_record(self):
        ms = MemoState()
        for _ in range(3):                       # three calls of f
            ms.enter("f")
            for _ in range(5):
                ms.note(3, {0: "<", 1: ">"})
            ms.leave()
        assert ms.mutation_cache == {(1, "f")}
        ms.enter("g")
        ms.note(3, {0: "<", 1: ">"})
        ms.leave()
        assert ms.mutation_cache == {(1, "f"), (1, "g")}

    def test_site_run_many_times_writes_the_records_of_one_run(self):
        written = []
        for times in (1, 7):
            ms = MemoState()
            ms.enter("g")
            ms.enter("f")
            for _ in range(times):
                ms.note(3, {0: "<", 1: ">", 2: ">="})
            ms.note(4, {0: "+", 6: "-"})
            leaves = (ms.leave(), ms.leave())
            written.append((leaves, ms.mutation_cache, ms.stats.as_dict()))
        assert written[0] == written[1]
        assert written[0][0] == (3, 3)

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
