"""Taint engine: the worked division example, divergence and merge-back,
no-fork re-execution, memo behaviour, and verdict agreement across the
four engine variants."""

import copy
import itertools
from types import SimpleNamespace

import pytest

from mutlab.cli import CORPUS_DIR, CORPUS_PROGRAMS
import mutlab.engine as engine_mod
from mutlab.engine import (
    EngineConfig, InfraStats, TaintEngine, _MemoRun, run_test,
)
from mutlab.lang import PlainRun, compile_program, parse_program
from mutlab.lang.interp import IBranch, IJump, run_entry
from mutlab.lang.errors import (
    MiniAssertionError, MiniRuntimeError, MiniSyntaxError, RunEnded,
    StepBudgetExceeded,
)
from mutlab.fuzz import fuzz_program
from mutlab.memo import MemoStats, make_call_key
from mutlab.mutate import (
    discover_mutation_points, enumerate_mutants, generate_meta_mutant,
)
from mutlab.strategies import (
    STRATEGY_NAMES, AnalysisConfig, analyze_program, check_consistency,
)
from mutlab.taints import apply_binary, entries

ALL_CONFIGS = [EngineConfig(fork=f, memo=m)
               for f, m in itertools.product([False, True], repeat=2)]
CONFIG_IDS = [f"fork={c.fork}-memo={c.memo}" for c in ALL_CONFIGS]


def prepare(src):
    ast = parse_program(src)
    points = discover_mutation_points(ast)
    mutants = enumerate_mutants(points)
    meta = generate_meta_mutant(ast, points, mutants)
    program = compile_program(meta)
    point_of = {m.mid: m.point_id for m in mutants}
    return program, [m.mid for m in mutants], point_of, mutants


def run_all(src, test):
    program, mids, point_of, _ = prepare(src)
    return {(cfg.fork, cfg.memo): run_test(program, test, mids, point_of, cfg)
            for cfg in ALL_CONFIGS}


def test_division_running_example():
    # a = 2; a / 2 where the operator mutations are + (M2) and * (M3):
    # the taint map carries {M0: 1.0, M2: 4, M3: 4} in one execution
    c = apply_binary(2, "/", {2: "+", 3: "*"}, 2)
    assert entries(c) == {0: 1.0, 2: 4, 3: 4}
    assert isinstance(entries(c)[0], float)


PARTITIONED = """\
def get_counts():
    return 3

def process(i):
    c = get_counts()
    if i < 0:
        c = time_consuming(c)
    return c

def time_consuming(c):
    j = 0
    while j < 10:
        j = j + 1
    return c + 1

def partitioned_process(i):
    return process(i)

def test_process():
    assert partitioned_process(1) == 3
"""


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=CONFIG_IDS)
def test_partitioned_process(cfg):
    # mutants that flip `i < 0` diverge into the expensive branch and are
    # killed; the mainline never enters it
    program, mids, point_of, mutants = prepare(PARTITIONED)
    report = run_test(program, "test_process", mids, point_of, cfg)
    assert report.valid
    assert report.pending_end == 0
    flips = [m.mid for m in mutants
             if m.point_id == point_of_op(mutants, "<") and
             m.replacement_op in (">", ">=", "!=")]
    # i=1: `1 < 0` is False; `>`, `>=`, `!=` are True -> diverge, c becomes 4
    for mid in flips:
        assert report.verdicts[mid] == ("killed", "assertion"), mid
    if cfg.fork:
        assert len(report.divergences) >= len(flips)


def point_of_op(mutants, op):
    for m in mutants:
        if m.original_op == op:
            return m.point_id
    raise AssertionError(op)


def test_variants_agree_and_merge_back():
    reports = run_all(PARTITIONED, "test_process")
    ref = reports[(False, False)]
    for key, rep in reports.items():
        assert rep.verdicts == ref.verdicts, key
        assert rep.pending_end == 0, key


DIVISION = """\
def f(a):
    return a / 2

def test_f():
    assert f(2) == 1.0
"""


def test_data_taints_without_divergence():
    # pure data-flow mutants are decided inside the single execution:
    # no snapshots needed even with fork enabled
    reports = run_all(DIVISION, "test_f")
    for key, rep in reports.items():
        assert rep.valid and not rep.divergences, key
    ref = reports[(True, True)]
    # a/2=1.0 survives only ==; every arithmetic replacement changes the value
    killed = [mid for mid, v in ref.verdicts.items() if v[0] == "killed"]
    assert len(killed) >= 10


ERROR_KILL = """\
def f(a, b):
    return a // b

def test_f():
    assert f(7, 2) == 3
"""


def test_per_mutant_runtime_error_is_a_kill():
    program, mids, point_of, mutants = prepare(ERROR_KILL)
    rep = run_test(program, "test_f", mids, point_of, EngineConfig())
    # `//` -> `%` gives 1 (assertion); `//` -> `<<` gives 28 (assertion);
    # mutants of `==` that compare 3 to 3 differently also die; at least
    # one mutant must die by exception (e.g. 7 % 0 never occurs here, but
    # overflow/shift guards can fire for large ops) -- just check causes
    # are drawn from the known set
    causes = {v[1] for v in rep.verdicts.values() if v[0] == "killed"}
    assert causes <= {"assertion", "exception", "timeout"}
    assert rep.verdicts != {}


NOT_COVERED = """\
def f(x):
    if x > 0:
        return x + 1
    return x - 1

def test_f():
    assert f(5) == 6
"""


def test_uncovered_mutants_reported():
    # the `x - 1` arm never executes under the test; its mutants are
    # not_covered in every variant
    reports = run_all(NOT_COVERED, "test_f")
    program, mids, point_of, mutants = prepare(NOT_COVERED)
    minus_point = [m.point_id for m in mutants if m.original_op == "-"][0]
    minus_mids = [m.mid for m in mutants if m.point_id == minus_point]
    for key, rep in reports.items():
        for mid in minus_mids:
            assert rep.verdicts[mid] == ("not_covered",), (key, mid)


def test_invalid_test_detected():
    src = "def f():\n    return 1\n\ndef test_f():\n    assert f() == 2\n"
    program, mids, point_of, _ = prepare(src)
    rep = run_test(program, "test_f", mids, point_of, EngineConfig())
    assert not rep.valid


MEMO_SHARING = """\
def work(n):
    s = 0
    i = 0
    while i < n:
        s = s + i
        i = i + 1
    return s

def f(a):
    z = 0
    if a > 0:
        z = 1
    x = work(6)
    y = 0
    if z == 1:
        y = work(6)
    return x + y + a

def test_f():
    assert f(1) == 31
"""


def test_memo_reduces_statements_not_verdicts():
    reports = run_all(MEMO_SHARING, "test_f")
    for (fork, _), rep in reports.items():
        assert rep.verdicts == reports[(False, False)].verdicts
    for fork in (False, True):
        with_memo = reports[(fork, True)]
        without = reports[(fork, False)]
        assert with_memo.program_stmts <= without.program_stmts
        assert with_memo.memo_stats["hits"] > 0


CHILD_STORE = """\
def g(x):
    return x + 1

def f(a):
    r = 0
    if a > 0:
        r = g(5)
    return r

def k(b):
    y = 0
    if g(b) > 1:
        y = 1
    else:
        y = g(5)
    return y

def test_t():
    z = 0
    if 1 < 2:
        z = 1
    assert f(0) + k(1) + z < 6
"""


def test_child_records_every_variant_it_runs():
    # the children of `a > 0` call g(5) with the original `+` and store the
    # result; mutants of that `+` later diverge at `g(b) > 1` and call g(5)
    # themselves. Only reach(g), which holds the `+` variants, keeps those
    # mutants from reusing 6.
    reports = run_all(CHILD_STORE, "test_t")
    for fork in (False, True):
        assert reports[(fork, True)].memo_stats["hits"] > 0
        assert (reports[(fork, True)].verdicts
                == reports[(fork, False)].verdicts), fork


OPEN_FRAME_RECURSION = """\
def h(a):
    return a + 3

def c(x):
    if h(x) > 8:
        return p(x)
    return x

def p(x):
    return c(x) + 1

def test_t():
    q = 0
    if 1 < 2:
        q = 1
    z = 10 // 5
    r = p(z)
    w = h(3) - 4
    s = p(w)
    assert r + s + q == 7
"""


def test_open_caller_frame_vetoes_recursive_reuse():
    # `10 - 5` (M32) makes the first call p(5) for M32, which stores p(5) -> 6.
    # `a * 3` (M2) makes the second call p(5) for M2 and diverges at
    # `h(x) > 8` inside c, whose child calls p(5) again while M2's p(5) is
    # still open. That call must not reuse 6: M2's site is in h, which p
    # calls through c, so M2 is in reach(p), and M2 recurses until it times
    # out, as it does without memoization.
    reports = run_all(OPEN_FRAME_RECURSION, "test_t")
    for fork in (False, True):
        assert reports[(fork, True)].memo_stats["hits"] > 0
        assert (reports[(fork, True)].verdicts
                == reports[(fork, False)].verdicts), fork
        assert reports[(fork, True)].verdicts[2] == ("killed", "timeout")


# The original takes the `n > 2` else-branch everywhere (n = 2); the `>=`
# mutant of each guard diverges into code that only it reaches, where it
# meets a non-bool assert, a non-bool condition, an index error, a helper
# called twice with the same argument (the memo serves the second call)
# and a loop that never ends.
DIVERGED_ONLY = """\
def nonbool_assert(n):
    if n > 2:
        flag = 1
    else:
        flag = n > 0
    assert flag
    return 0

def nonbool_cond(n):
    if n > 2:
        c = n
    else:
        c = n > 0
    if c:
        return 1
    return 0

def index_error(xs, n):
    if n > 2:
        return xs[n + 1]
    return xs[0]

def sq(x):
    return x * x

def memo_served(n):
    if n > 2:
        return sq(n) + sq(n)
    return n

def spin(n):
    i = 0
    if n > 2:
        while n > 0:
            i = i + 1
    return i

def test_nonbool_assert():
    assert nonbool_assert(2) == 0

def test_nonbool_cond():
    assert nonbool_cond(2) == 1

def test_index_error():
    assert index_error([5, 6, 7], 2) == 5

def test_memo_served():
    assert memo_served(2) == 2

def test_spin():
    assert spin(2) == 0
"""


def test_diverged_only_paths_agree_across_strategies():
    ast = parse_program(DIVERGED_ONLY)
    analysis = analyze_program(ast, AnalysisConfig())
    assert analysis.valid
    assert check_consistency(analysis) == []
    guard = {}  # function name -> line of its `if n > 2:`
    for line, text in enumerate(DIVERGED_ONLY.splitlines(), 1):
        if text.startswith("def "):
            fn_name = text[4:text.index("(")]
        elif text.strip() == "if n > 2:":
            guard[fn_name] = line
    expected = {"nonbool_assert": ("killed", "exception"),
                "nonbool_cond": ("killed", "exception"),
                "index_error": ("killed", "exception"),
                "memo_served": ("killed", "assertion"),
                "spin": ("killed", "timeout")}
    for fn_name, verdict in expected.items():
        [mid] = [m.mid for m in analysis.mutants
                 if m.loc.line == guard[fn_name] and m.original_op == ">"
                 and m.replacement_op == ">="]
        for name, run in analysis.runs.items():
            assert run.verdicts[mid] == verdict, (fn_name, name)
    for name in ("exec-taints", "exec-taints-nf"):
        memo = analysis.runs[name].memo_stats["test_memo_served"]
        assert memo["hits"] > 0, name


# `3 * 2` -> `3 + 2` (M16) makes the root call h(x) on {M0: 6, M16: 5}, and
# its result is stored under M16's view: h(5) -> 6. M5 (`+` -> `<<` in h)
# is in reach(h), so the mutation cache refuses it h's keys. M5 then diverges
# at `h(2) > 3` (4 > 3); its diverged run must not be served h(5) -> 6,
# which it would compute as 5 << 1 = 10, and `y < 8` kills it.
MEMO_MUTATED_KEY = """\
def h(a):
    return a + 1

def test_m():
    q = 0
    if 1 < 2:
        q = 1
    x = 3 * 2
    r = h(x)
    y = 0
    if h(2) > 3:
        y = h(5)
    assert y < 8
"""


def test_memo_respects_mutation_in_unexecuted_call_key():
    analysis = analyze_program(parse_program(MEMO_MUTATED_KEY))
    [m5] = [m for m in analysis.mutants if m.mid == 5]
    assert (m5.original_op, m5.replacement_op) == ("+", "<<")
    for name, run in analysis.runs.items():
        assert run.verdicts[5] == ("killed", "assertion"), name
    assert check_consistency(analysis) == []


# Mutants of `i + 1` such as `i * 1` keep i at 0: the loop returns to the
# same state every iteration, and every iteration calls h.
CYCLE_WITH_CALL = """\
def h(x):
    return x + 0

def test_c():
    i = 0
    s = 0
    while i < 3:
        s = h(s)
        i = i + 1
    assert s == 0
"""


def test_cycling_loop_with_a_call_runs_to_budget_under_memo(monkeypatch):
    # a memo hit returns what running the call would, so (pc, env) alone
    # decides a frame's future: a memo run's cycle is cut short as a plain
    # run's is, with the same verdict, and all seven strategies agree
    fired = []
    run_to_budget = PlainRun.run_to_budget

    def counting(run, *args):
        fired.append(type(run).__name__)
        run_to_budget(run, *args)

    monkeypatch.setattr(PlainRun, "run_to_budget", counting)
    ast = parse_program(CYCLE_WITH_CALL)
    for name in STRATEGY_NAMES:
        fired.clear()
        analysis = analyze_program(ast, AnalysisConfig(strategies=[name]))
        [times_one] = [m.mid for m in analysis.mutants if m.loc.line == 9
                       and m.replacement_op == "*"]
        assert analysis.runs[name].verdicts[times_one] == \
            ("killed", "timeout"), name
        assert fired, name
        assert ("_MemoRun" in fired) == (name in ("exec-taints",
                                                  "exec-taints-nf")), name
    assert check_consistency(analyze_program(ast)) == []


# Memo hits, infra_ops and statements of the memo variants on
# CYCLE_WITH_CALL, pinned as they read before diverged mutants shared one
# child runner: no corpus or fuzz pin has a memo child that cycles through a
# call. A cut-short cycle does not count the lookups it skips (the `FOUND:`
# line of CHANGES.md on `CYCLE_WITH_CALL`); counting them per period would
# move these pins on purpose.
CYCLE_PINS = {"exec-taints": (199, 314, 1633),
              "exec-taints-nf": (201, 302, 1654)}


def test_cycling_loop_with_a_call_counts_are_pinned():
    analysis = analyze_program(parse_program(CYCLE_WITH_CALL),
                               AnalysisConfig(strategies=sorted(CYCLE_PINS)))
    for name, pin in CYCLE_PINS.items():
        run = analysis.runs[name]
        hits = sum(stats["hits"] for stats in run.memo_stats.values())
        assert (hits, run.infra_ops, run.program_stmts) == pin, name


# One frame, g's, queues in mutant order M1 (`n - 6`: k = 0, the loop never
# moves, timeout), M3 (`n / 6`: k = 1.0, `5 // 0.0` raises), M7 (`n | 6`:
# k = 6, returns) and f's own mutants, which diverge at `y == 36` and call
# f(12), an entry the root stored: reach(f) vetoes them.
CHILD_SEQUENCE = """\
def g(n):
    k = n + 6
    if k < 10:
        i = 0
        while i < 6:
            i = i + k
        return 5 // (k - 1)
    y = f(k)
    if y == 36:
        return y
    return f(k)

def f(x):
    return x * 3

def test_t():
    assert g(6) > 0
"""


def _child_verdict(run, fn, env, pc) -> str:
    try:
        PlainRun.run_fn(run, fn, env, pc)
    except MiniAssertionError:
        return "assertion"
    except MiniRuntimeError:
        return "exception"
    except StepBudgetExceeded:
        return "timeout"
    return "survived"


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=CONFIG_IDS)
def test_children_share_no_state(monkeypatch, cfg):
    """Every diverged mutant runs on the engine's one child runner exactly
    as on a fresh runner given the same (fn, env, pc) and memo state: same
    statements, same verdict, and no memo hit for a vetoed mutant. A stale
    `select`, `point`, `kernel` or `stmts` on the shared runner breaks it."""
    program, mids, point_of, mutants = prepare(CHILD_SEQUENCE)
    assert [(m.mid, m.replacement_op) for m in mutants
            if m.mid in (1, 3, 7)] == [(1, "-"), (3, "/"), (7, "|")]
    vetoed = program.reach["f"]
    frames, verdicts = [], []
    merge_back = TaintEngine._merge_back

    def recording(self, frame, rv):
        queued = [(mid, dict(env), pc) for mid, env, pc in
                  sorted(frame.diverged, key=lambda d: d[0])]
        frames.append((frame.fn, queued, self.child_budget,
                       copy.deepcopy(self.memo)))
        out = merge_back(self, frame, rv)
        verdicts.extend(self.kills.get(mid, "survived")
                        for mid, _, _ in queued)
        return out

    monkeypatch.setattr(TaintEngine, "_merge_back", recording)
    report = run_test(program, "test_t", mids, point_of, cfg)
    [g_queue] = [[mid for mid, _, _ in q] for fn, q, _, _ in frames
                 if fn.name == "g"]
    # in mutant order: timeout, raise, return, then the vetoed mutants
    assert {1, 3, 7} | vetoed <= set(g_queue) and 7 < min(vetoed)
    fresh_stmts, fresh_verdicts, hits = [], [], 0
    for fn, queued, budget, memo in frames:
        twin = SimpleNamespace(program=program, child_budget=budget,
                               memo=memo, infra=InfraStats())
        for mid, env, pc in queued:
            run = (_MemoRun(twin, mid) if cfg.memo else
                   PlainRun(program, select=mid, budget=budget))
            before = memo.stats.hits
            fresh_verdicts.append(_child_verdict(run, fn, env, pc))
            fresh_stmts.append(run.stmts)
            assert mid not in vetoed or memo.stats.hits == before, mid
            hits += memo.stats.hits - before
    assert report.context_stmts[1:] == fresh_stmts
    assert verdicts == fresh_verdicts
    assert [verdicts[g_queue.index(m)] for m in (1, 3, 7)] == [
        "timeout", "exception", "survived"]
    # the root looks nothing up: every hit is a child's
    assert report.memo_stats["hits"] == hits
    assert hits > 0 if cfg.memo else hits == 0


# g's `if` has no `else` and ends the function: a false mutant goes to the
# implicit return at pc len(code). h's `if` has no `else` and ends the
# `while` body: a false mutant goes to the loop's back edge.
TAIL_BRANCHES = """\
def g(x):
    if x > 3:
        return 1

def h(n):
    i = 0
    s = 0
    while i < n:
        i = i + 1
        if i > 2:
            s = s + i
    return s

def test_g():
    assert g(5) == 1

def test_h():
    assert h(4) == 7
"""

# Every strategy's verdicts in mutant order (a: killed:assertion,
# t: killed:timeout, s: survived) and program_stmts, taken while a
# function's code still ended in an uncounted return instruction.
TAIL_VERDICTS = "asaasasaaattttttttttaaaaaaaaaaassaaaasasaasas"
TAIL_STMTS = {"traditional": 2396, "split-stream": 2091, "modulo-state": 1032,
              "exec-taints-nf-nm": 2059, "exec-taints-nf": 2059,
              "exec-taints-nm": 1999, "exec-taints": 1999}


def test_forks_resume_at_the_implicit_return_and_the_back_edge(monkeypatch):
    program, mids, point_of, _ = prepare(TAIL_BRANCHES)
    g, h = program.functions["g"].code, program.functions["h"].code
    assert type(g[0]) is IBranch and g[0].false_pc == len(g)
    [back] = [pc for pc, s in enumerate(h) if type(s) is IJump and s.back]
    [inner] = [s for s in h if type(s) is IBranch and s.loc.line == 10]
    assert inner.false_pc == back
    starts = set()
    merge_back = TaintEngine._merge_back

    def recording(self, frame, rv):
        starts.update((frame.fn.name, pc) for _, _, pc in frame.diverged)
        return merge_back(self, frame, rv)

    monkeypatch.setattr(TaintEngine, "_merge_back", recording)
    for test in ("test_g", "test_h"):
        run_test(program, test, mids, point_of, EngineConfig(memo=False))
    assert {("g", len(g)), ("h", back)} <= starts
    analysis = analyze_program(parse_program(TAIL_BRANCHES))
    letter = {("killed", "assertion"): "a", ("killed", "timeout"): "t",
              ("survived",): "s"}
    for name, run in analysis.runs.items():
        assert "".join(letter[run.verdicts[m]] for m in mids) == \
            TAIL_VERDICTS, name
        assert run.program_stmts == TAIL_STMTS[name], name
    assert check_consistency(analysis) == []


# The mutants of `n > 1` (M26, M28, M29) diverge in outer and stay pending,
# so the root stores f(0) -> 1 and f(4) -> 8. A mutant of `n + 2`, outside
# reach(f) (e.g. `n - 2`, M31), hands f a tainted argument and diverges at
# `a > 3` inside f; without fork it re-runs the whole call f(0) as its own
# frame. The memo serves calls a diverged run makes, never that frame: the
# six lookups are the outer children's calls of f, all hits.
MEMO_BOUNDARY = """\
def f(a):
    if a > 3:
        return a * 2
    return a + 1

def outer(n):
    p = 0
    if n > 1:
        p = 1
    q = f(0)
    x = n + 2
    y = f(x)
    return y + p

def test_boundary():
    assert outer(2) == 9
"""


def test_memo_never_serves_a_diverged_frame():
    program, mids, point_of, _ = prepare(MEMO_BOUNDARY)
    assert not program.reach["f"] & {31, 33, 34, *range(36, 41)}
    report = run_test(program, "test_boundary", mids, point_of,
                      EngineConfig(fork=False, memo=True))
    assert {mid for loc, mid, _, _ in report.divergences if loc.line == 2} >= {
        31, 33, 34, *range(36, 41)}
    survived = {2, 5, *range(16, 26), 27, 30, 32, 47, 48, 53, 55}
    assert report.verdicts == {
        m: ("survived",) if m in survived else ("killed", "assertion")
        for m in mids}
    assert report.infra == InfraStats(taint_ops=125, memo_lookups=6,
                                      memo_stores=35)
    assert report.memo_stats == {"hits": 6, "misses": 0, "stores": 6,
                                 "clears": 1}


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=CONFIG_IDS)
def test_every_mutant_has_exactly_one_verdict(cfg):
    program, mids, point_of, _ = prepare(MEMO_SHARING)
    rep = run_test(program, "test_f", mids, point_of, cfg)
    assert sorted(rep.verdicts) == sorted(mids)
    assert all(v[0] in ("killed", "survived", "not_covered")
               for v in rep.verdicts.values())


# Statements and memo hits/misses/stores/clears (summed over the tests) of
# the two memo variants on each corpus program. Pinned: a change to how the
# mutation cache is kept must not change when a call is shared. The clears
# were re-taken when the cache became static reach sets, because a clear
# now counts only when it drops an entry.
MEMO_PINS = {
    "caesar_cypher": {"exec-taints": (900, (233, 17, 43, 2)),
                      "exec-taints-nf": (2365, (423, 17, 43, 2))},
    "euler": {"exec-taints": (4938, (1056, 136, 316, 2)),
              "exec-taints-nf": (9228, (2184, 188, 368, 2))},
    "prime": {"exec-taints": (4232, (24, 4, 43, 1)),
              "exec-taints-nf": (10321, (291, 21, 60, 1))},
    "entropy": {"exec-taints": (4688, (98, 0, 11, 3)),
                "exec-taints-nf": (6802, (218, 0, 11, 3))},
    "newton": {"exec-taints": (2128, (0, 0, 0, 0)),
               "exec-taints-nf": (5760, (0, 0, 0, 0))},
}


# infra_ops of the four engine variants on each corpus program. Taint ops
# are counted on the root mainline only: diverged mutants run concretized.
# The memo variants add their lookups and stores; reach sets are built with
# the program and charged nothing.
INFRA_PINS = {
    "caesar_cypher": {"exec-taints": 6668, "exec-taints-nf": 6573,
                      "exec-taints-nm": 5135, "exec-taints-nf-nm": 4850},
    "euler": {"exec-taints": 15214, "exec-taints-nf": 15294,
              "exec-taints-nm": 12646, "exec-taints-nf-nm": 11494},
    "prime": {"exec-taints": 7164, "exec-taints-nf": 6626,
              "exec-taints-nm": 6592, "exec-taints-nf-nm": 5753},
    "entropy": {"exec-taints": 3117, "exec-taints-nf": 3084,
                "exec-taints-nm": 2939, "exec-taints-nf-nm": 2786},
    "newton": {"exec-taints": 5987, "exec-taints-nf": 5959,
               "exec-taints-nm": 5987, "exec-taints-nf-nm": 5959},
}


@pytest.mark.parametrize("name", sorted(MEMO_PINS))
def test_memo_semantics_pinned_on_corpus(name):
    src = (CORPUS_DIR / f"{name}.ml0").read_text()
    analysis = analyze_program(parse_program(src), AnalysisConfig(
        strategies=sorted(INFRA_PINS[name])))
    infra = {s: analysis.runs[s].infra_ops for s in INFRA_PINS[name]}
    assert infra == INFRA_PINS[name]
    for strategy, (stmts, memo) in MEMO_PINS[name].items():
        run = analysis.runs[strategy]
        sums = tuple(sum(stats[k] for stats in run.memo_stats.values())
                     for k in ("hits", "misses", "stores", "clears"))
        assert (run.program_stmts, sums) == (stmts, memo), strategy


ROOT_CHECK_SOURCES = {
    **{name: (CORPUS_DIR / f"{name}.ml0").read_text()
       for name in CORPUS_PROGRAMS},
    **{f"fuzz {seed}": fuzz_program(seed) for seed in range(20)},
}


@pytest.mark.parametrize("name", list(ROOT_CHECK_SOURCES))
def test_root_runs_exactly_the_originals_statements(name):
    """The root's mainline is the original's run: under every engine
    variant it counts the statements a plain run of the original counts.
    One more would pass the root's budget and end it as an invalid test;
    one fewer shows here."""
    src = ROOT_CHECK_SOURCES[name]
    program, mids, point_of, _ = prepare(src)
    for test in parse_program(src).tests:
        original = run_entry(program, test, [])
        assert original.status == "pass", test
        for cfg in ALL_CONFIGS:
            rep = run_test(program, test, mids, point_of, cfg)
            assert rep.valid, (test, cfg)
            assert rep.context_stmts[0] == original.stmts, (test, cfg)


VETO = """\
def f(x):
    return x + 1

def g(x):
    return f(x) * f(x + 2)

def k(x):
    return x - 3

def test_g():
    assert g(1) == 8
    assert k(5) == 2
"""


def test_a_vetoed_memo_call_builds_no_key(monkeypatch):
    """A memo run of a mutant in reach(f) keys no call of f; its lookups
    count as misses and its stores as stores, as when it built the keys
    that the memo then refused."""
    program, mids, _, _ = prepare(VETO)
    keyed = []
    monkeypatch.setattr(engine_mod, "make_call_key",
                        lambda name, args: keyed.append(name)
                        or make_call_key(name, args))
    engine = TaintEngine(program, mids, EngineConfig(), budget=1000)
    # M1 mutates f's `+`, so g and f refuse it; M31 and M32 mutate k's `-`
    assert 1 in program.reach["f"] and 1 in program.reach["g"]
    assert not {31, 32} & program.reach["g"]
    runs = [(1, 0, [], (3, 3), (0, 3, 0)),
            (31, 8, ["g", "f", "f"], (6, 6), (0, 6, 3)),
            (32, 8, ["g"], (7, 6), (1, 6, 3)),
            (1, 0, [], (10, 9), (1, 9, 3))]
    for mid, value, keys, infra, memo in runs:
        del keyed[:]
        assert _MemoRun(engine, mid).call("g", [1]) == value
        assert keyed == keys
        assert engine.infra == InfraStats(memo_lookups=infra[0],
                                          memo_stores=infra[1])
        assert engine.memo.stats == MemoStats(*memo)


def test_each_run_ending_names_its_status_and_cause():
    assert [(c.status, c.cause) for c in
            (MiniRuntimeError, MiniAssertionError, StepBudgetExceeded)] == [
        ("error", "exception"), ("assert", "assertion"),
        ("timeout", "timeout")]
    assert not issubclass(MiniSyntaxError, RunEnded)  # it ends no run
    timeout = StepBudgetExceeded()
    assert (timeout.kind, timeout.loc) == (None, None)
    assert MiniAssertionError(None).kind is None


def ending_program(tail: str) -> str:
    """A program whose `n > 0` mutants that decide False for n = 1 leave
    the mainline and end in `tail`."""
    return ("def f(n):\n    if n > 0:\n        return 1\n" + tail
            + "    return 0\n\ndef test_f():\n    assert f(1) == 1\n")


@pytest.mark.parametrize("ending, tail", [
    (MiniAssertionError, "    assert n > 5\n"),
    (MiniRuntimeError, "    n = 1 // (n - 1)\n"),
    (StepBudgetExceeded, "    while n > 0:\n        n = n + 1\n"),
], ids=["assert", "zero-division", "runaway loop"])
def test_run_entry_and_the_engine_child_read_the_ending(ending, tail):
    """A mutant that diverges into `tail` ends the same way in an isolated
    run (`run_entry`'s Outcome) and in the engine's child (its kill)."""
    program, mids, point_of, mutants = prepare(ending_program(tail))
    rep = run_test(program, "test_f", mids, point_of, EngineConfig())
    diverged = {mid for _, mid, _, _ in rep.divergences}
    assert diverged
    budget = engine_mod.budget_for(program.originals["test_f"].stmts, 10)
    for mid in sorted(diverged):
        assert rep.verdicts[mid] == ("killed", ending.cause)
        out = run_entry(program, "test_f", [], select=mid, budget=budget)
        assert (out.status, out.cause) == (ending.status, ending.cause)
        assert (out.kind is None) == (ending is not MiniRuntimeError)


def root_charge(expr: str) -> int:
    """The taint ops the root charges to evaluate `expr` once, with every
    variable untainted."""
    program, mids, _, _ = prepare(f"def f(x, s):\n    return {expr}\n")
    engine = TaintEngine(program, mids, EngineConfig(), budget=100)
    tree = program.functions["f"].code[0].value  # the Return's
    engine.eval(tree, {"x": 2, "s": (1, 2)})
    return engine.infra.taint_ops


def test_pointwise_charge_floor_at_the_root():
    # a unary operator costs one taint op even untainted; a builtin, a
    # list or an index costs one per tainted id, none here
    assert [root_charge(e) for e in ("-x", "not True", "len(s)", "[x, x]",
                                     "s[0]")] == [1, 1, 0, 0, 0]
