"""The taint-aware interpreter.

The root context executes the meta-mutant mainline carrying all live
mutants as value taints. Control-flow divergence is detected where a
branch or loop condition is decided (`exec_cond`). A diverging mutant
leaves the mainline and is queued on the frame where it diverged: in fork
mode with its concretized environment and the divergent branch target, in
no-fork mode with its view of the call's arguments, to re-execute the whole
body. At that frame's return each queued mutant runs alone on the plain
interpreter (`PlainRun` selecting its own variant, with the child step
budget, `budget_for`), and its return value is merged back as its
execution taint on the mainline return value. Only the root ever holds
taints, so only the root needs the taint-aware evaluator. The root's own
budget is the original's statement count (`run_test`).

The root binds each call with `interp.bind_call`, the plain interpreter's
rules. Its errors get no location added: an error on the mainline only
means the root left the original's passing run, and `run_test` reads no
more of it than that it was raised.

A mutant dies once, by its first cause, always a run ending's `cause`
(`lang.errors`): `exception` for a root error per mutant (a rule's
`on_kill`, `_kill_exc`), `assertion` for an assert it fails, and its own
ending's for a child run. Any ending on the mainline invalidates the test.

With memo on (`EngineConfig.memo`), diverged runs consult the memo before
executing a program call and every call fills it, guarded by the mutation
cache: the program's static reach sets (`CompiledProgram.reach`), handed
to it once. `memo` says which calls build keys and how.

A root frame is one call of `run_code(fn, args)`, the only way into it:
`run_test` enters the test's and `eval` each program call's, so a `.ml0`
call level costs two Python frames, `run_code` and `eval`, as on
`PlainRun`. It runs the function's code (`CompiledFn.code`) up to a
`Return` or pc len(code), walking each expression as a tree, then merges
its diverged mutants back, and pays per live mutant, not per node or fork:
  - `eval` reads a `Var` or `Literal` operand of a binary node inline, and
    `run_code` follows a jump before it counts a statement;
  - an untainted condition decides at once; a tainted one is one id-ordered
    pass over its taint map, then one plain copy per diverging mutant of
    the frame's env in fork mode, of the call's arguments without
    (`taints.concretize_env`), and one (loc, mutant, its decision,
    mainline's) tuple per divergence;
  - diverged mutants run on the engine's one child runner, reset to each,
    and a frame's survivors fold into one copy of its return value's map;
  - `run_test` reads the test's original `Outcome` from
    `CompiledProgram.originals` and runs it only when no caller has.

The root runs once per test in an analysis of several engine variants. The
root's path (its statements, taint ops, kills, coverage, divergences and
live set) is a function of how each of its children ends: fork or
re-execution and memo or none change only how a child runs and what it
costs. So the first variant that runs a test runs the root live and keeps
a record of it (`RootRecord`, in `CompiledProgram.roots`), and each later
one replays the record (`TaintEngine.replay`): it runs the recorded
children on its own child runner and memo, from its own views of each
divergence's env or arguments, and takes the root's result from the
record when every child ends as the recorded one did. Where a child ends
otherwise, as where a forked child meets its budget later than a
re-executed one, the variant drops the replay and runs its own root live.
The live merge-back and the replay run children one way,
`_run_children`, and build a divergence's plain views one way, `_queue`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial

from .lang.errors import (
    MiniAssertionError, MiniRuntimeError, RunEnded, StepBudgetExceeded,
)
from .lang.interp import (
    CompiledFn, CompiledProgram, IBranch, IJump, PlainRun, bind_call,
    budget_for, run_entry,
)
from .lang.nodes import (
    Assert, Assign, BinOp, BoolOp, Call, Compare, Expr, Index, ListLit,
    Literal, ORIGINAL, Return, TaintChoice, UnaryOp, Var,
)
from .lang import values
from .lang.values import canon_key, plain_eq
from .memo import MemoState, make_call_key
from . import taints
from .taints import Tainted, value_of


@dataclass
class EngineConfig:
    fork: bool = True
    memo: bool = True
    budget_mult: int = 10


@dataclass
class InfraStats:
    taint_ops: int = 0
    snapshots: int = 0
    mcache_writes: int = 0     # always 0: reach sets come with the program
    memo_lookups: int = 0
    memo_stores: int = 0

    def total(self) -> int:
        return (self.taint_ops + self.snapshots + self.memo_lookups
                + self.memo_stores)


@dataclass
class _Frame:
    fn: CompiledFn
    env: dict
    args: list
    diverged: list = field(default_factory=list)   # (mid, plain env, start pc)


@dataclass
class RootRecord:
    """One test's taint root, run live by the first engine variant that
    runs the test, for every later one to replay (`TaintEngine.replay`).
    `requests` lists, in the root's order, what the root asked of its
    variant:
      - a divergence: ("diverge", fn, a shallow copy of the frame's env,
        the call's args, the diverging mutants in id order, the condition's
        taint map, the pcs a true and a false decision go to);
      - a merge-back: ("merge", fn, each child's ending in the order it
        ran, (mid, its cause, None) or (mid, None, its return value));
      - a memo store: ("store", name, args, the return value's taint map,
        its live ids);
      - a point where the memo clears: ("clear",).
    `result` is the root's (valid, stmts, kills, covered points,
    divergences, taint ops, pending)."""
    mutant_ids: list
    requests: list
    result: tuple


@dataclass
class TestReport:
    test: str
    valid: bool
    verdicts: dict  # mid -> ('killed', cause) | ('survived',) | ('not_covered',)
    program_stmts: int
    context_stmts: list
    infra: InfraStats
    memo_stats: dict
    divergences: list   # (loc, mutant, its decision, mainline's) each
    pending_end: int = 0


class _MemoRun(PlainRun):
    """A diverged mutant's run that shares calls through the memo: `run_fn`,
    which every call enters, serves a call from it when the mutation cache
    allows and otherwise runs and stores it. A hit returns what running the
    call would, so a loop back at an earlier state is cut short as in a
    plain run."""

    def __init__(self, engine: TaintEngine, mid: int):
        super().__init__(engine.program, select=mid, budget=engine.child_budget)
        self.memo = engine.memo
        self.infra = engine.infra

    def run_fn(self, fn: CompiledFn, env: dict):
        memo = self.memo
        self.infra.memo_lookups += 1
        if self.select in memo.mutation_cache[fn.name]:
            # the memo refuses this mutant every key of fn: no key, and
            # the lookup it would refuse counts as a miss
            key = None
            memo.stats.misses += 1
        else:
            # a call's env is new and in parameter order (the parser
            # rejects duplicate parameters), so its values are the
            # call's arguments
            key = make_call_key(fn.name, env.values())
            hit, cached = memo.lookup(key, self.select)
            if hit:
                return cached
        rv = PlainRun.run_fn(self, fn, env)
        self.infra.memo_stores += 1
        if key is not None:
            memo.store(key, self.select, rv)
        return rv


class TaintEngine:
    """Executes one test of a meta-mutant under one strategy config."""

    def __init__(self, program: CompiledProgram, mutant_ids: list[int],
                 cfg: EngineConfig, budget: int, record: list | None = None):
        self.program = program
        self.record = record       # a RootRecord's requests, kept when live
        self.cfg = cfg
        self.budget = budget       # the root's: the original's statements
        self.child_budget = budget_for(budget, cfg.budget_mult)
        self.stmts = 0             # statements the root executed
        self.active: set[int] = set(mutant_ids)
        self.kills: dict[int, str] = {}  # mid -> cause
        self.pending = 0           # diverged mutants not yet merged back
        self.memo = MemoState()
        if cfg.memo:
            for name, mutants in program.reach.items():
                self.memo.record_mutation_encounter(name, mutants)
        self.infra = InfraStats()
        # children never nest: one runner, reset per diverged mutant
        self.child = (_MemoRun(self, ORIGINAL) if cfg.memo else
                      PlainRun(program, budget=self.child_budget))
        self.divergences: list[tuple] = []
        self.covered_points: set[int] = set()
        self.context_stmts: list[int] = []

    # --- kill ledger ---

    def kill(self, m: int, cause: str):
        if m not in self.kills:
            self.kills[m] = cause
            self.active.discard(m)

    def _kill_exc(self, m: int, kind: str):
        self.kill(m, MiniRuntimeError.cause)

    # --- calls ---

    def _run_children(self, fn: CompiledFn, queue: list) -> list:
        """Run each (mid, plain env, start pc) of `queue` alone, in order,
        on the engine's one child runner, from its pc of `fn`, and return
        their endings: (mid, its cause, None) or (mid, None, its return
        value). Each starts in `PlainRun.run_fn`, so a memo run's hook
        serves the calls it makes, never the frame it diverged in."""
        run, mutants, endings = self.child, self.program.mutants, []
        for mid, env, pc in queue:
            run.select = mid
            run.point, run.kernel = mutants[mid]
            run.stmts = 0
            try:
                endings.append((mid, None, PlainRun.run_fn(run, fn, env, pc)))
            except RunEnded as err:
                endings.append((mid, err.cause, None))
            finally:
                self.context_stmts.append(run.stmts)
        return endings

    def _merge_back(self, frame: _Frame, rv):
        """Run this frame's diverged mutants alone, in mutant order, and
        fold the survivors' return values into one copy of the mainline
        return value's taint map."""
        diverged = frame.diverged
        if not diverged:
            return rv
        if len(diverged) > 1:
            diverged.sort(key=lambda d: d[0])
        endings = self._run_children(frame.fn, diverged)
        if self.record is not None:
            self.record.append(("merge", frame.fn, endings))
        merged = []
        for mid, cause, value in endings:
            if cause is None:
                self.active.add(mid)
                merged.append((mid, value))
            else:
                self.kill(mid, cause)
        self.pending -= len(diverged)
        return taints.with_taints(rv, merged)

    def _queue(self, queue: list, fn: CompiledFn, env: dict, args: list,
               diverge: list, decisions: dict, nxt: int, alt: int):
        """Append to `queue` a (mid, plain env, start pc) triple per mutant
        of `diverge`, from one plain copy per mutant of `env` in fork mode,
        to resume where its decision goes (`nxt` when true, `alt` when
        false), and of the call's arguments without, to re-execute the
        whole body."""
        fork, append = self.cfg.fork, queue.append
        view = env if fork else dict(zip(fn.params, args))
        for mid, copy in zip(diverge, taints.concretize_env(view, diverge)):
            append((mid, copy, (nxt if decisions[mid] else alt) if fork else 0))

    def _memo_store(self, name: str, args: list, rv_map: dict, live: list):
        """Store the call's value for every live mutant, in the order of the
        return value's taint map; only those the memo does not refuse
        (outside reach(name)) get a key, built from each argument entry
        canonicalised once."""
        self.infra.memo_stores += len(live)
        vetoed = self.memo.mutation_cache[name]
        kept = [mid for mid in live if mid not in vetoed]
        if not kept:
            return
        base = [canon_key(value_of(a)) for a in args]
        tainted = [(i, a.taints) for i, a in enumerate(args)
                   if type(a) is Tainted]
        for mid in kept:
            own = (() if mid == ORIGINAL else
                   [(i, t[mid]) for i, t in tainted if mid in t])
            canon = base[:] if own else base
            for i, v in own:
                canon[i] = canon_key(v)
            self.memo.store((name, tuple(canon)), mid, rv_map[mid])

    def replay(self, record: RootRecord) -> bool:
        """Replay `record`'s root on this engine: build this variant's
        views at each divergence, run each merge-back's children on this
        engine's child runner and, with memo on, replay the root's stores
        and clears. True, with the root's result taken from the record,
        when every child ends as the recorded one did (the same cause, or
        return values equal by `plain_eq`), so that every root decision
        repeats; False at the first merge-back where one does not."""
        memo, queued = self.cfg.memo, {}
        for request in record.requests:
            kind = request[0]
            if kind == "diverge":
                views = []
                self._queue(views, *request[1:])
                for view in views:
                    queued[view[0]] = view
            elif kind == "merge":
                _, fn, endings = request
                got = self._run_children(
                    fn, [queued.pop(mid) for mid, _, _ in endings])
                for (_, cause, value), (_, c, v) in zip(endings, got):
                    if c != cause or cause is None and not plain_eq(v, value):
                        return False
            elif not memo:
                continue
            elif kind == "store":
                self._memo_store(*request[1:])
            else:
                self.memo.clear_if_all_merged()
        (_, self.stmts, self.kills, self.covered_points, divergences,
         self.infra.taint_ops, self.pending) = record.result
        self.divergences = list(divergences)
        if self.cfg.fork:  # one snapshot per diverging mutant
            self.infra.snapshots = len(divergences)
        return True

    # --- execution ---

    def run_code(self, fn: CompiledFn, args: list):
        """The root's frame of a call of `fn` on `args`: run `fn`'s code
        until a `Return` or pc len(code), merge the frame's diverged
        mutants back, store the call in the memo and clear the memo once no
        mutant is pending."""
        frame = _Frame(fn, dict(zip(fn.params, args)), args)
        code, env = fn.code, frame.env
        pc, end, rv = 0, len(code), None  # None: the implicit return
        while pc < end:
            s = code[pc]
            kind = type(s)
            if kind is IJump:  # never counted
                pc = s.target
                continue
            self.stmts += 1
            if self.stmts > self.budget:
                raise StepBudgetExceeded()
            if kind is Assign:
                env[s.name] = self.eval(s.value, env)
                pc += 1
            elif kind is IBranch:
                pc = self.exec_cond(frame, s, pc, self.eval(s.cond, env))
            elif kind is Return:
                if s.value is not None:
                    rv = self.eval(s.value, env)
                break
            elif kind is Assert:
                self.exec_assert(s, env)
                pc += 1
            else:  # ExprStmt
                self.eval(s.value, env)
                pc += 1
        rv = self._merge_back(frame, rv)
        memo, record = self.cfg.memo, self.record
        if self.pending:
            if memo or record is not None:
                rv_map = rv.taints if type(rv) is Tainted else {ORIGINAL: rv}
                live = [mid for mid in rv_map
                        if mid == ORIGINAL or mid in self.active]
                if record is not None:
                    record.append(("store", fn.name, args, rv_map, live))
                if memo:
                    self._memo_store(fn.name, args, rv_map, live)
        else:
            if record is not None:
                record.append(("clear",))
            if memo:
                self.memo.clear_if_all_merged()
        return rv

    def exec_cond(self, frame: _Frame, br: IBranch, pc: int, cond) -> int:
        if type(cond) is bool:  # untainted: nothing can diverge
            return pc + 1 if cond else br.false_pc
        mainline, diverge = taints.partition_condition(
            cond, restrict=self.active, on_kill=self._kill_exc)
        if diverge:  # in id order
            self.active.difference_update(diverge)
            self.pending += len(diverge)
            if self.cfg.fork:
                self.infra.snapshots += len(diverge)
            t, loc, divergences = cond.taints, br.loc, self.divergences
            for mid in diverge:
                divergences.append((loc, mid, t[mid], mainline))
            fn, env, args = frame.fn, frame.env, frame.args
            self._queue(frame.diverged, fn, env, args, diverge, t, pc + 1,
                        br.false_pc)
            if self.record is not None:
                self.record.append(("diverge", fn, dict(env), args, diverge,
                                    t, pc + 1, br.false_pc))
        return pc + 1 if mainline else br.false_pc

    def exec_assert(self, s: Assert, env: dict):
        # every bool entry left differs from the mainline (see `taints.make`)
        mainline, failed = taints.partition_condition(
            self.eval(s.test, env), restrict=self.active,
            on_kill=self._kill_exc)
        if not mainline:
            raise MiniAssertionError(s.loc)
        for mid in failed:
            self.kill(mid, MiniAssertionError.cause)

    # --- expression evaluation ---

    def eval(self, e: Expr, env: dict):
        kind = type(e)
        if kind is Var:
            try:
                return env[e.name]
            except KeyError:
                raise MiniRuntimeError("name", f"undefined variable {e.name!r}",
                                       e.loc) from None
        if kind is Literal:
            return e.value
        if (kind is TaintChoice or kind is BinOp or kind is Compare
                or kind is BoolOp):
            # a defined `Var` or a `Literal` operand is read inline; an
            # undefined one raises in `eval`, at its own location
            x, y = e.left, e.right
            a = (env[x.name] if type(x) is Var and x.name in env
                 else x.value if type(x) is Literal else self.eval(x, env))
            b = (env[y.name] if type(y) is Var and y.name in env
                 else y.value if type(y) is Literal else self.eval(y, env))
            if kind is TaintChoice:
                self.covered_points.add(e.point_id)
                op, variants = e.variants[ORIGINAL], e.variants
            else:
                op, variants = e.op, {}
            return taints.apply_binary(a, op, variants, b, restrict=self.active,
                                       on_kill=self._kill_exc, stats=self.infra)
        floor = 0  # every other node is pointwise; a unary one costs >= 1
        if kind is Call:
            args = [self.eval(a, env) for a in e.args]
            callee = bind_call(self.program.functions, e.name, len(args))
            if type(callee) is CompiledFn:
                return self.run_code(callee, args)
        elif kind is UnaryOp:
            callee, floor = partial(values.unary_op, e.op), 1
            args = [self.eval(e.operand, env)]
        elif kind is ListLit:
            callee, args = (lambda *v: v), [self.eval(a, env) for a in e.items]
        elif kind is Index:
            callee = values.index_value
            args = [self.eval(e.base, env), self.eval(e.index, env)]
        else:
            raise TypeError(f"cannot evaluate {e!r}")
        return taints.apply_pointwise(callee, args, floor=floor,
                                      restrict=self.active,
                                      on_kill=self._kill_exc, stats=self.infra)


def run_test(program: CompiledProgram, test: str, mutant_ids: list[int],
             point_of_mutant: dict[int, int], cfg: EngineConfig) -> TestReport:
    """Execute one test under the taint engine and classify every mutant.
    The test's original run is the one recorded in `program.originals`;
    the first engine run of a test that has none runs and records it. The
    root's budget is the original's statements, which the mainline runs
    exactly: one more is a root defect, an invalid test. With
    `program.roots` a dict, the first engine run of the test keeps its
    root's record there and a later one with the same mutant ids replays
    it, running the root live only where a child ends otherwise."""
    pre = program.originals.get(test)
    if pre is None:
        pre = program.originals[test] = run_entry(program, test, [])
    if pre.status != "pass":
        return TestReport(test, False, {}, pre.stmts, [pre.stmts],
                          InfraStats(), {}, [])

    roots = program.roots
    record = None if roots is None else roots.get(test)
    if record is not None and record.mutant_ids == mutant_ids:
        eng = TaintEngine(program, mutant_ids, cfg, pre.stmts)
        if eng.replay(record):
            return _report(test, mutant_ids, point_of_mutant, eng,
                           record.result[0])
    # live: the first engine run of a test keeps its root's record
    requests = [] if roots is not None and record is None else None
    eng = TaintEngine(program, mutant_ids, cfg, pre.stmts, requests)
    try:
        eng.run_code(program.functions[test], [])
        valid = True
    except RunEnded:
        valid = False  # mainline must match the passing original run
    if requests is not None:
        roots[test] = RootRecord(list(mutant_ids), requests, (
            valid, eng.stmts, eng.kills, eng.covered_points, eng.divergences,
            eng.infra.taint_ops, eng.pending))
    return _report(test, mutant_ids, point_of_mutant, eng, valid)


def _report(test: str, mutant_ids: list[int], point_of_mutant: dict[int, int],
            eng: TaintEngine, valid: bool) -> TestReport:
    """The test's report from its engine's kills, coverage and counts."""
    verdicts = {}
    for mid in mutant_ids:
        if mid in eng.kills:
            verdicts[mid] = ("killed", eng.kills[mid])
        elif point_of_mutant[mid] in eng.covered_points:
            verdicts[mid] = ("survived",)
        else:
            verdicts[mid] = ("not_covered",)

    context_stmts = [eng.stmts] + eng.context_stmts
    return TestReport(
        test=test,
        valid=valid,
        verdicts=verdicts,
        program_stmts=sum(context_stmts),
        context_stmts=context_stmts,
        infra=eng.infra,
        memo_stats=asdict(eng.memo.stats),
        divergences=eng.divergences,
        pending_end=eng.pending,
    )
