"""Baseline strategies, trie cost accounting, verdict merging, and
cross-strategy consistency on small programs."""

import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutlab.strategies as strategies
from mutlab.cli import CORPUS_DIR, main
from mutlab.fuzz import fuzz_program
from mutlab.lang import PlainRun, interp, parse_program
from mutlab.lang.values import canon_key
from mutlab.mutate import (
    discover_mutation_points, enumerate_mutants, generate_meta_mutant,
)
from mutlab.strategies import (
    AnalysisConfig, STRATEGY_NAMES, _event_key, _group_key, _isolated_runs,
    _trie_cost, analyze_program, budget_for, check_consistency,
    merge_verdict, run_modulo_state, run_split_stream,
)
from test_lang import NAN_PROGRAM

KILL = ("killed", "assertion")
SURV = ("survived",)
NC = ("not_covered",)


class TestMergeVerdict:
    def test_kill_is_sticky(self):
        assert merge_verdict(KILL, SURV) == KILL
        assert merge_verdict(SURV, KILL) == KILL
        assert merge_verdict(KILL, NC) == KILL
        # the first kill's cause is kept
        assert merge_verdict(("killed", "timeout"), KILL) == ("killed", "timeout")

    def test_covered_beats_not_covered(self):
        assert merge_verdict(SURV, NC) == SURV
        assert merge_verdict(NC, SURV) == SURV
        assert merge_verdict(NC, NC) == NC

    def test_none_initial(self):
        assert merge_verdict(None, SURV) == SURV


def ev(point, stmts, val):
    return (point, stmts, ("val", val))


def flat(events):
    """`(point, stmts, (kind, value))` events as a run records them: one
    flat list, four slots per event."""
    return [s for point, stmts, (kind, v) in events
            for s in (point, stmts, kind, v)]


def triples(trace):
    """A flat trace decoded to `(point, stmts, (kind, value))` events."""
    return [(trace[i], trace[i + 1], (trace[i + 2], trace[i + 3]))
            for i in range(0, len(trace), 4)]


def triple_event_key(event):
    """`_event_key` as it was written for `(point, stmts, tag)` events."""
    point_id, _stmts, tag = event
    if tag[0] == "val":
        return (point_id, "val", canon_key(tag[1]))
    return (point_id, "err", tag[1])


class TestTrieCost:
    def test_single_stream_charges_total(self):
        assert _trie_cost([(flat([ev(0, 3, 1)]), 10)], 0, 0) == 10

    def test_identical_traces_charged_once(self):
        members = [(flat([ev(0, 3, 1)]), 10), (flat([ev(0, 3, 1)]), 10)]
        assert _trie_cost(members, 0, 0) == 10

    def test_split_charges_prefix_once(self):
        # both share 3 statements, then split and run 7 more each:
        # 3 + 7 + 7 = 17, not 10 + 10 = 20
        members = [(flat([ev(0, 3, 1)]), 10), (flat([ev(0, 3, 2)]), 10)]
        assert _trie_cost(members, 0, 0) == 17

    def test_nested_split(self):
        # three streams: agree at event0, one splits at event1
        a = (flat([ev(0, 3, 1), ev(1, 6, 5)]), 10)
        b = (flat([ev(0, 3, 1), ev(1, 6, 5)]), 10)
        c = (flat([ev(0, 3, 1), ev(1, 6, 9)]), 12)
        # shared to stmt 6, then {a,b} share 4 more, c runs 6 more
        assert _trie_cost([a, b, c], 0, 0) == 6 + 4 + 6

    def test_error_events_split(self):
        a = (flat([(0, 3, ("err", "zero-division"))]), 4)
        b = (flat([ev(0, 3, 1)]), 10)
        assert _trie_cost([a, b], 0, 0) == 3 + 1 + 7

    @given(st.lists(
        st.tuples(st.lists(st.integers(0, 3), max_size=4),
                  st.integers(0, 20)),
        min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_cost_bounds(self, raw):
        # build monotone event traces: event i occurs at statement i+1,
        # total >= last event statement
        members = []
        for vals, extra in raw:
            trace = flat([ev(i, i + 1, v) for i, v in enumerate(vals)])
            members.append((trace, len(vals) + 1 + extra))
        cost = _trie_cost(members, 0, 0)
        # never more than running everything in isolation, never less
        # than the longest single stream
        assert cost <= sum(t for _, t in members)
        assert cost >= max(t for _, t in members)

    @given(st.lists(
        st.tuples(st.lists(st.sampled_from([1, 2, "e"]), max_size=3),
                  st.integers(0, 5)),
        min_size=1, max_size=6))
    @settings(max_examples=500)
    def test_matches_signature_grouping_reference(self, raw):
        # short traces over three outcomes, so groups often split with
        # some streams ending at the split
        members = []
        for outcomes, extra in raw:
            trace = [(i, i + 1, ("err", "type") if o == "e" else ("val", o))
                     for i, o in enumerate(outcomes)]
            members.append((flat(trace), len(trace) + 1 + extra))
        assert _trie_cost(members, 0, 0) == reference_trie_cost(members)


def reference_trie_cost(members):
    """`_trie_cost(members, 0, 0)` as it was written before streams ending
    in a split were charged as one: it grouped them by full trace. It reads
    the traces decoded to `(point, stmts, tag)` events."""
    cost = 0
    work = [([(triples(trace), total) for trace, total in members], 0, 0)]
    while work:
        members, depth, base = work.pop()
        while True:
            if len(members) == 1:
                cost += members[0][1] - base
                break
            groups = {}
            for trace, total in members:
                key = (("end",) if len(trace) <= depth
                       else triple_event_key(trace[depth]))
                groups.setdefault(key, []).append((trace, total))
            if len(groups) == 1:
                if ("end",) in groups:
                    cost += max(t for _, t in members) - base
                    break
                depth += 1
                continue
            boundary = None
            for key, sub in sorted(groups.items(), key=lambda kv: repr(kv[0])):
                if key == ("end",):
                    by_sig = {}
                    for trace, total in sub:
                        sig = tuple(triple_event_key(e) for e in trace)
                        by_sig[sig] = max(by_sig.get(sig, 0), total)
                    for total in by_sig.values():
                        cost += total - base
                else:
                    boundary = sub[0][0][depth][1]
                    work.append((sub, depth + 1, boundary))
            if boundary is not None:
                cost += boundary - base
            break
    return cost


# Site outcomes a key could confuse: values equal under `==` but of another
# type or other bits, lists, a string, None and error tags, each built afresh
# so that no two events share a value object.
GRID = [
    lambda: ("val", 1), lambda: ("val", 1.0), lambda: ("val", True),
    lambda: ("val", 0.0), lambda: ("val", -0.0),
    lambda: ("val", float("nan")), lambda: ("val", -float("nan")),
    lambda: ("val", (1,)), lambda: ("val", (1.0,)), lambda: ("val", "1"),
    lambda: ("val", None), lambda: ("err", "type"), lambda: ("err", "value"),
]


def test_group_key_equal_exactly_when_event_key_equal():
    events = [(point, stmts, make())
              for point, stmts in ((0, 3), (0, 5), (1, 3))
              for make in GRID for _copy in range(2)]
    trace = flat(events)
    slots = range(0, len(trace), 4)
    # the flat trace's keys are those of its events decoded
    assert [_event_key(trace, i) for i in slots] == \
        [triple_event_key(e) for e in events]
    for i, j in itertools.product(slots, repeat=2):
        assert (_group_key(trace, i) == _group_key(trace, j)) == \
            (_event_key(trace, i) == _event_key(trace, j)), (i, j)
    # equal keys hash alike, so a dict groups by them as by `_event_key`
    assert len({_group_key(trace, i) for i in slots}) == \
        len({_event_key(trace, i) for i in slots}) == 2 * len(GRID)


def parent_trie_cost(members):
    """`_trie_cost(members, 0, 0)` as it was written before streams were
    grouped by `_group_key`: every visited event went through `_event_key`
    and a group dict. Returns the cost and the number of subgroups formed
    at splits. It reads the traces decoded to `(point, stmts, tag)`
    events."""
    cost = subgroups = 0
    work = [([(triples(trace), total) for trace, total in members], 0, 0)]
    while work:
        members, depth, base = work.pop()
        while True:
            if len(members) == 1:
                cost += members[0][1] - base
                break
            groups = {}
            for trace, total in members:
                key = (("end",) if len(trace) <= depth
                       else triple_event_key(trace[depth]))
                groups.setdefault(key, []).append((trace, total))
            if len(groups) == 1:
                if ("end",) in groups:
                    cost += max(t for _, t in members) - base
                    break
                depth += 1
                continue
            subgroups += len(groups)
            boundary = None
            for key, sub in sorted(groups.items(), key=lambda kv: repr(kv[0])):
                if key == ("end",):
                    cost += max(t for _, t in sub) - base
                else:
                    boundary = sub[0][0][depth][1]
                    work.append((sub, depth + 1, boundary))
            if boundary is not None:
                cost += boundary - base
            break
    return cost, subgroups


@given(st.lists(st.lists(st.integers(0, len(GRID) - 1), max_size=4),
                min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4),
                          st.integers(0, 5)),
                min_size=1, max_size=8))
@settings(max_examples=500)
def test_trie_cost_matches_parent_on_grid(traces, picks):
    # each member takes a prefix of one of a few traces, so members repeat
    # with different totals and some streams end where others split
    members = []
    for which, length, extra in picks:
        outcomes = traces[which % len(traces)][:length]
        trace = [(0, i + 1, GRID[o]()) for i, o in enumerate(outcomes)]
        members.append((flat(trace), len(trace) + 1 + extra))
    assert _trie_cost(members, 0, 0) == parent_trie_cost(members)[0]


def recorded_trie_members(monkeypatch, seeds):
    """Runs modulo-state on fuzz `seeds` and returns the member lists its
    trie was given, checking each cost against `parent_trie_cost`."""
    recorded = []
    trie_cost = strategies._trie_cost

    def recording(members, depth, base):
        recorded.append(members)
        return trie_cost(members, depth, base)

    monkeypatch.setattr(strategies, "_trie_cost", recording)
    for seed in seeds:
        analyze_program(parse_program(fuzz_program(seed)),
                        AnalysisConfig(strategies=["modulo-state"]))
    monkeypatch.setattr(strategies, "_trie_cost", trie_cost)
    return recorded


def test_modulo_state_costs_match_parent_on_fuzz(monkeypatch):
    recorded = recorded_trie_members(monkeypatch, range(10, 60))
    assert len(recorded) >= 50
    for members in recorded:
        assert _trie_cost(members, 0, 0) == parent_trie_cost(members)[0]


def test_event_key_runs_only_for_list_events(monkeypatch):
    # the trie keys scalar events by `_group_key` alone and canonicalises
    # only list values, which fuzz events never hold: no call here, against
    # 63,698 when each visited event went through `_event_key`
    calls = 0
    event_key = strategies._event_key

    def counting(trace, i):
        nonlocal calls
        calls += 1
        return event_key(trace, i)

    monkeypatch.setattr(strategies, "_event_key", counting)
    recorded = recorded_trie_members(monkeypatch, range(10))
    monkeypatch.setattr(strategies, "_event_key", event_key)
    assert sum(parent_trie_cost(members)[1] for members in recorded) > 0
    assert calls == 0


class FullRun(PlainRun):
    """A plain run whose `every` is its events list, so that a mutant's run
    records the events of every site, as the original's does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.every = self.events


# sites whose values are lists and strings
LIST_STRING_PROGRAM = """\
def build(n):
    xs = []
    s = ""
    i = 0
    while i < n:
        xs = xs + [i * 2]
        s = s + chr(97 + i % 3)
        i = i + 1
    return [xs, s]

def test_build():
    r = build(4)
    assert r[0] == [0, 2, 4, 6]
    assert r[1] + "!" == "abca!"
    assert len(r[0] + r[0]) == 8
"""

STREAM_PROGRAMS = (
    [(path.stem, path.read_text())
     for path in sorted(CORPUS_DIR.glob("*.ml0"))]
    + [(f"fuzz{seed}", fuzz_program(seed)) for seed in range(20)]
    + [("nan", NAN_PROGRAM), ("lists", LIST_STRING_PROGRAM)])


def own_events(events, point):
    """The events of a flat trace at `point`."""
    return [s for i in range(0, len(events), 4) if events[i] == point
            for s in events[i:i + 4]]


@pytest.fixture(scope="module")
def event_streams():
    """Per test of each of `STREAM_PROGRAMS`: the original's outcome and
    the covered mutants' isolated outcomes; both event baselines' costs as
    they were read off the same runs recording every site (`FullRun`):
    split-stream from the first event at the mutant's point, modulo-state
    from one trie over the original's stream and every mutant's; the
    covered mutants whose runs are not their full runs filtered to their
    own point; and how many of those runs the loop-state shortcut
    ended."""
    results = []
    shortcut = []
    run_to_budget = PlainRun.run_to_budget

    def counting(run, *args):
        shortcut.append(type(run) is PlainRun)
        run_to_budget(run, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PlainRun, "run_to_budget", counting)
        for name, src in STREAM_PROGRAMS:
            ast = parse_program(src)
            points = discover_mutation_points(ast)
            mutants = enumerate_mutants(points)
            program = interp.compile_program(
                generate_meta_mutant(ast, points, mutants))
            point_of = {m.mid: m.point_id for m in mutants}
            for test in ast.tests:
                original = interp.run_entry(program, test, [],
                                            record_events=True)
                assert original.status == "pass"
                budget = budget_for(original.stmts, 10)
                shortcut.clear()
                _, outcomes = _isolated_runs(program, test, mutants,
                                             original, budget, True)
                mp.setattr(interp, "PlainRun", FullRun)
                _, full = _isolated_runs(program, test, mutants, original,
                                         budget, True)
                mp.setattr(interp, "PlainRun", PlainRun)
                split = original.stmts + sum(
                    f.stmts - f.events[4 * f.events[::4].index(
                        point_of[mid]) + 1]
                    for mid, f in full.items())
                trie = _trie_cost(
                    [(original.events, original.stmts)]
                    + [(f.events, f.stmts) for f in full.values()], 0, 0)
                unfiltered = [
                    mid for mid, o in outcomes.items()
                    if (o.status, o.kind, o.loc, o.stmts, o.cause, o.value,
                        o.events, o.covered_points)
                    != (full[mid].status, full[mid].kind, full[mid].loc,
                        full[mid].stmts, full[mid].cause, full[mid].value,
                        own_events(full[mid].events, point_of[mid]),
                        {point_of[mid]})]
                results.append((name, test, original, outcomes, split,
                                trie, unfiltered, sum(shortcut)))
    return results


def test_split_stream_matches_full_streams(event_streams):
    for name, test, original, outcomes, want, *_ in event_streams:
        assert run_split_stream(original, outcomes) == want, (name, test)


def test_modulo_state_matches_trie_over_full_streams(event_streams):
    for name, test, original, outcomes, _, want, *_ in event_streams:
        assert run_modulo_state(original, outcomes) == want, (name, test)


def test_mutant_runs_record_their_own_site_events(event_streams):
    for name, test, *_, unfiltered, _ in event_streams:
        assert unfiltered == [], (name, test)
    # the fuzz programs have runs that the loop-state shortcut ends
    assert sum(r[-1] for r in event_streams) > 0


SRC = """\
def classify(x):
    if x % 2 == 0:
        return x // 2
    return x * 3 + 1

def test_even():
    assert classify(10) == 5

def test_odd():
    assert classify(7) == 22
"""


class TestAnalyzeProgram:
    def test_all_strategies_consistent(self):
        analysis = analyze_program(parse_program(SRC))
        assert analysis.valid
        assert check_consistency(analysis) == []
        assert set(analysis.runs) == set(STRATEGY_NAMES)

    def test_verdicts_cover_all_mutants(self):
        analysis = analyze_program(parse_program(SRC))
        mids = {m.mid for m in analysis.mutants}
        for run in analysis.runs.values():
            assert set(run.verdicts) == mids

    def test_cost_ordering(self):
        analysis = analyze_program(parse_program(SRC))
        s = {n: analysis.runs[n].program_stmts for n in STRATEGY_NAMES}
        assert s["modulo-state"] <= s["split-stream"] <= s["traditional"]
        assert s["exec-taints"] <= s["exec-taints-nm"] <= s["exec-taints-nf-nm"]
        assert s["exec-taints"] <= s["exec-taints-nf"] <= s["exec-taints-nf-nm"]

    def test_exec_taints_cheaper_than_traditional(self):
        analysis = analyze_program(parse_program(SRC))
        assert (analysis.runs["exec-taints"].program_stmts
                < analysis.runs["traditional"].program_stmts)

    def test_multi_test_merge(self):
        # a mutant not covered by test_even but killed by test_odd must
        # end up killed in the aggregate matrix
        analysis = analyze_program(parse_program(SRC))
        run = analysis.runs["traditional"]
        merged_kills = {m for m, v in run.verdicts.items() if v[0] == "killed"}
        per_test_kills = set()
        for verdicts in run.per_test.values():
            per_test_kills |= {m for m, v in verdicts.items()
                               if v[0] == "killed"}
        assert merged_kills == per_test_kills

    def test_invalid_test_short_circuits(self):
        bad = "def f():\n    return 1\n\ndef test_f():\n    assert f() == 2\n"
        analysis = analyze_program(parse_program(bad))
        assert not analysis.valid and analysis.invalid_test == "test_f"

    def test_counts_summary(self):
        analysis = analyze_program(
            parse_program(SRC), AnalysisConfig(strategies=["traditional"]))
        c = Counter(v[0] for v in analysis.runs["traditional"].verdicts.values())
        assert sum(c.values()) == len(analysis.mutants)
        assert c["killed"] > 0

    def test_baselines_share_one_isolated_run_per_covered_mutant(
            self, monkeypatch):
        selected = []
        run_entry = strategies.run_entry

        def counting(*args, **kwargs):
            selected.append(kwargs.get("select", 0))
            return run_entry(*args, **kwargs)

        monkeypatch.setattr(strategies, "run_entry", counting)
        analysis = analyze_program(parse_program(SRC), AnalysisConfig(
            strategies=["exec-taints"]))
        assert [mid for mid in selected if mid] == []
        selected.clear()
        analysis = analyze_program(parse_program(SRC), AnalysisConfig(
            strategies=["traditional", "split-stream", "modulo-state"]))
        covered = [mid for verdicts in analysis.runs["traditional"]
                   .per_test.values()
                   for mid, v in verdicts.items() if v != NC]
        assert sorted(mid for mid in selected if mid) == sorted(covered)


# sha256 of `mutlab compare --program corpus/<name>.ml0 --all` (JSON, default
# budget multiplier), computed when each baseline still looped over the
# mutants itself; the shared pass must report the same bytes, every
# baseline's `program_stmts` included. All five were re-taken when the
# mutation cache became static reach sets: only the memo variants'
# `infra_ops` and per-test `clears` moved (no run-time records, and a clear
# counts only when it drops an entry).
REPORT_PINS = {
    "caesar_cypher": "64c3293035ca9201524a7d3c9465d0f7803f016e88e7a1c0dc8258d4abbe61d4",
    "entropy": "66672062c8377c0cf2221112539205cc004b2b863fdbb603c93fe6c225a6379f",
    "euler": "e3a17d3ba8436190465b3a59e393546492a43264ca665962c0683422cbace574",
    "newton": "8345cbd3f047f389bb1ba8f9f0070d8643e13f86c95db4302141cc1c074435b1",
    "prime": "9d4f6e20e9a39333823d40099f2ae97af9932498ae9e872fd9f4276a8879877d",
}


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_compare_report_pinned_on_corpus(name, tmp_path, monkeypatch):
    monkeypatch.delenv("MUTLAB_BUDGET_MULT", raising=False)
    out = tmp_path / "report.json"
    assert main(["compare", "--program", str(CORPUS_DIR / f"{name}.ml0"),
                 "--all", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_PINS[name]


# The same for the benchmark's fuzz programs (seeds 0-9, written to
# fuzz<seed>.ml0), taken while every run that loops forever still ran until
# its budget stopped it. Split-stream and modulo-state costs read the site
# events of those runs. All ten were re-taken like the corpus pins.
FUZZ_REPORT_PINS = {
    0: "79afc9768e9377adff9db61b29128ef737359ae619575a339ed2cdeed5861a24",
    1: "c91c409ba27d7feafd2daba207c0a25ced1e48f915f8180659a2e4034ae0c624",
    2: "fe548acee2337b493d4bd7d3b469875d454af96a0e46472d8ccf8fce17d9d1f4",
    3: "27a876da4039b85d88bf9dd216a11069b4cfb9d4876f54c8f6bdc1230c469fde",
    4: "071455b78f667923d16d8dfb7feade915111285f26b62de61f3c066de470f033",
    5: "ddbac70333033067e424d109175a08c745869e9b1c48da33132977f8cf9c70ae",
    6: "4e4b5f74bd3f56bd4223ab233d38062d6f53693198f388ca9ae0cee8dbc587ae",
    7: "8d30819f8f638544ecb997b81157452aab0dcfa027ac0b8e499f7dd412c310e7",
    8: "d26536d5ddb573b1fc52f128a1f5a4db57a05423bd917f7d3016d4c15ae63888",
    9: "97749317531f0e9f5e52ebcbce36f81c8b78ed5526385b6019c56c545dc60612",
}


@pytest.mark.parametrize("seed", sorted(FUZZ_REPORT_PINS))
def test_compare_report_pinned_on_fuzz(seed, tmp_path, monkeypatch):
    monkeypatch.delenv("MUTLAB_BUDGET_MULT", raising=False)
    program = tmp_path / f"fuzz{seed}.ml0"
    program.write_text(fuzz_program(seed))
    out = tmp_path / "report.json"
    assert main(["compare", "--program", str(program), "--all",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        FUZZ_REPORT_PINS[seed]


def test_repeated_loop_state_shortcut_fires(monkeypatch):
    # 99 isolated runs, forked children and re-executions of the benchmark's
    # fuzz programs (seeds 0-9) return to a loop state they already had;
    # each ends there in every strategy, and the three baselines share one
    # isolated pass. The corpus has no such run.
    fired = []
    run_to_budget = PlainRun.run_to_budget

    def counting(run, *args):
        fired.append(run.stmts)
        run_to_budget(run, *args)

    monkeypatch.setattr(PlainRun, "run_to_budget", counting)
    fuzz = [parse_program(fuzz_program(seed)) for seed in range(10)]
    for name in STRATEGY_NAMES:
        fired.clear()
        for ast in fuzz:
            analyze_program(ast, AnalysisConfig(strategies=[name]))
        assert len(fired) == 99, name
    fired.clear()
    for ast in fuzz:
        analyze_program(ast)
    assert len(fired) == 495
    fired.clear()
    for name in sorted(REPORT_PINS):
        analyze_program(parse_program((CORPUS_DIR / f"{name}.ml0").read_text()))
    assert fired == []


def test_compare_runs_each_original_once(monkeypatch):
    """A compare analysis runs each test's original (`select=0`) once: the
    engine variants read the outcome `analyze_program` recorded."""
    import mutlab.engine as engine
    originals = Counter()

    def counting(run_entry):
        def wrapper(program, test, args, select=0, **kwargs):
            if select == 0:
                originals[test] += 1
            return run_entry(program, test, args, select=select, **kwargs)
        return wrapper

    for module in (strategies, engine):
        monkeypatch.setattr(module, "run_entry", counting(module.run_entry))
    ast = parse_program((CORPUS_DIR / "euler.ml0").read_text())
    analysis = analyze_program(ast)
    assert analysis.valid and sorted(analysis.runs) == sorted(STRATEGY_NAMES)
    assert originals == Counter({test: 1 for test in ast.tests})
