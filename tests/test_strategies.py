"""Baseline strategies, trie cost accounting, verdict merging, and
cross-strategy consistency on small programs."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutlab.strategies as strategies
from mutlab.cli import CORPUS_DIR, main
from mutlab.fuzz import fuzz_program
from mutlab.lang import PlainRun, parse_program
from mutlab.strategies import (
    AnalysisConfig, STRATEGY_NAMES, _event_key, _trie_cost, analyze_program,
    check_consistency, merge_verdict,
)

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


class TestTrieCost:
    def test_single_stream_charges_total(self):
        assert _trie_cost([([ev(0, 3, 1)], 10)], 0, 0) == 10

    def test_identical_traces_charged_once(self):
        members = [([ev(0, 3, 1)], 10), ([ev(0, 3, 1)], 10)]
        assert _trie_cost(members, 0, 0) == 10

    def test_split_charges_prefix_once(self):
        # both share 3 statements, then split and run 7 more each:
        # 3 + 7 + 7 = 17, not 10 + 10 = 20
        members = [([ev(0, 3, 1)], 10), ([ev(0, 3, 2)], 10)]
        assert _trie_cost(members, 0, 0) == 17

    def test_nested_split(self):
        # three streams: agree at event0, one splits at event1
        a = ([ev(0, 3, 1), ev(1, 6, 5)], 10)
        b = ([ev(0, 3, 1), ev(1, 6, 5)], 10)
        c = ([ev(0, 3, 1), ev(1, 6, 9)], 12)
        # shared to stmt 6, then {a,b} share 4 more, c runs 6 more
        assert _trie_cost([a, b, c], 0, 0) == 6 + 4 + 6

    def test_error_events_split(self):
        a = ([(0, 3, ("err", "zero-division"))], 4)
        b = ([ev(0, 3, 1)], 10)
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
            trace = [ev(i, i + 1, v) for i, v in enumerate(vals)]
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
            members.append((trace, len(trace) + 1 + extra))
        assert _trie_cost(members, 0, 0) == reference_trie_cost(members)


def reference_trie_cost(members):
    """`_trie_cost(members, 0, 0)` as it was written before streams ending
    in a split were charged as one: it grouped them by full trace."""
    cost = 0
    work = [(members, 0, 0)]
    while work:
        members, depth, base = work.pop()
        while True:
            if len(members) == 1:
                cost += members[0][1] - base
                break
            groups = {}
            for trace, total in members:
                key = ("end",) if len(trace) <= depth else _event_key(trace[depth])
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
                        sig = tuple(_event_key(e) for e in trace)
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
        c = analysis.counts("traditional")
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
# baseline's `program_stmts` included.
REPORT_PINS = {
    "caesar_cypher": "761f52b763f09f99379fcaeff5d6ee67eeb4be9b88881f8119f0ed45b5b260f5",
    "entropy": "7b8d77405a7055768096be9136dbb78ad0a025e4beaeca766fd61a91d9ec93af",
    "euler": "1dabdba58e8b1a6cf3e8da2da52a09c109e4c9e85680287c71069a1b0ec3a6f3",
    "newton": "3bfdfb5b694566398d7f1f8d14671c6d3395fac654153a38af35c182d19c99eb",
    "prime": "4fb63dd9664597396ac0c886a52f19bea7b284d911d4885d849cdb73278d6e98",
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
# events of those runs.
FUZZ_REPORT_PINS = {
    0: "355640305068f8812ab37151a8f661854f42c484d6bcca1a924bc54a244146fa",
    1: "ff83727949cf318ff00c294c9be0ecfc9f1e4e0760c82120436d2a47d18b4a62",
    2: "25604f90ad7a0efdc87effd8276fa68fb357c54740f9eaeb9ad8d57dfef50686",
    3: "f2ff044a87ecf3e74b6ffa10a2b8ab530aaae35ad6f08ad02fa27235661d460e",
    4: "df05e7587852f0f5f44c3f6741c807c1223add171e9ce93eace08c198a09926e",
    5: "de1c6cb119cf165ffcc780151b27d8d810b9dbb8ff53babf514fac362790cb44",
    6: "1e9c14c150c7af02a70bff461977b9d35de4cca4979b8775960751e2a9484e01",
    7: "3a40cdf5c6d5dd624ecd224f477ddfecd8659e6d068e2127a2aa7f5a5b829077",
    8: "bc94dd2c8abb57269a438f24bfe68e2e65e650487ce483b77b51257b041568a7",
    9: "cd5a1bfc70044557adbd745eb405fb4361899ebc84cf019c1158831e498e994e",
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
