"""The taint-aware interpreter.

The root context executes the meta-mutant mainline carrying all live
mutants as value taints. Control-flow divergence is detected at wrapped
branch/loop conditions. A diverging mutant leaves the mainline and is
queued on the frame where it diverged: in fork mode with its concretized
environment and the divergent branch target, in no-fork mode with its view
of the call's arguments, to re-execute the whole body. At that frame's
return each queued mutant runs alone on the plain interpreter (`PlainRun`
selecting its own variant, with the child step budget), and its return
value is merged back as its execution taint on the mainline return value.
Only the root ever holds taints, so only the root needs the taint-aware
evaluator.

Memoization, when enabled, is consulted by diverged runs before executing
a wrapped call and filled by every call, guarded by the mutation cache.
Every executed choice site notes its site id (with its variants) in the
innermost open call's frame; the call writes its mutation-cache records
when it returns (see `memo`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang.errors import MiniAssertionError, MiniRuntimeError, StepBudgetExceeded
from .lang.interp import (
    CompiledFn, CompiledProgram, IAssert, IAssign, IBranch, IExpr, IJump,
    IReturn, PlainRun, run_entry,
)
from .lang.nodes import (
    BinOp, BoolOp, Call, Compare, Expr, Index, ListLit, Literal, Loc,
    TaintChoice, TaintedCond, UnaryOp, Var,
)
from .lang import values
from .lang.values import BUILTINS, call_builtin
from .memo import MemoState, make_call_key, mutant_call_keys
from . import taints
from .taints import ORIGINAL, taint_get, taint_keys, value_of


@dataclass
class EngineConfig:
    fork: bool = True
    memo: bool = True
    budget_mult: int = 10


@dataclass
class InfraStats:
    taint_ops: int = 0
    snapshots: int = 0
    mcache_writes: int = 0     # new (mutant, call key) records, written at return
    memo_lookups: int = 0
    memo_stores: int = 0

    def total(self) -> int:
        return (self.taint_ops + self.snapshots + self.mcache_writes
                + self.memo_lookups + self.memo_stores)


@dataclass
class DivergenceEvent:
    loc: Loc
    mutant: int
    mutant_decision: bool
    mainline_decision: bool


@dataclass
class _Frame:
    fn: CompiledFn
    env: dict
    args: list
    diverged: list = field(default_factory=list)   # (mid, plain env, start pc)


@dataclass
class TestReport:
    test: str
    valid: bool
    verdicts: dict  # mid -> ('killed', cause) | ('survived',) | ('not_covered',)
    program_stmts: int
    context_stmts: list
    infra: InfraStats
    memo_stats: dict
    divergences: list
    pending_end: int = 0


class _MemoRun(PlainRun):
    """A diverged mutant's run that shares wrapped calls through the memo:
    a call is served from it when the mutation cache allows, and otherwise
    runs in its own memo frame and is stored."""

    def __init__(self, engine: TaintEngine, mid: int):
        super().__init__(engine.program, select=mid, budget=engine.child_budget)
        self.memo = engine.memo
        self.infra = engine.infra

    def call_fn(self, fn: CompiledFn, args: list):
        key = make_call_key(fn.name, args)
        self.infra.memo_lookups += 1
        hit, cached = self.memo.lookup(key, self.select)
        if hit:
            return cached
        self.memo.enter(fn.name, args)
        try:
            rv = self.run_fn(fn, dict(zip(fn.params, args)))
        finally:
            self.infra.mcache_writes += self.memo.leave()
        self.infra.memo_stores += 1
        self.memo.store(key, self.select, rv)
        return rv

    def at_choice(self, e: TaintChoice):
        self.memo.note(e.point_id, e.variants)


class TaintEngine:
    """Executes one test of a meta-mutant under one strategy config."""

    def __init__(self, program: CompiledProgram, mutant_ids: list[int],
                 cfg: EngineConfig, child_budget: int, budget: int):
        self.program = program
        self.cfg = cfg
        self.child_budget = child_budget
        self.budget = budget       # the root's step budget
        self.stmts = 0             # statements the root executed
        self.active: set[int] = set(mutant_ids)
        self.kills: dict[int, tuple] = {}
        self.pending = 0           # diverged mutants not yet merged back
        self.memo = MemoState(enabled=cfg.memo)
        self.infra = InfraStats()
        self.divergences: list[DivergenceEvent] = []
        self.covered_points: set[int] = set()
        self.context_stmts: list[int] = []

    # --- kill ledger ---

    def kill(self, m: int, cause: str, detail: str | None = None):
        if m in self.kills:
            return
        self.kills[m] = (cause, detail)
        self.active.discard(m)

    def _kill_exc(self, m: int, kind: str):
        self.kill(m, "exception", kind)

    # --- calls ---

    def call_function(self, name: str, args: list, loc: Loc):
        if name in self.program.functions:
            return self.call_wrapped(name, args)
        if name in BUILTINS:
            return self._pointwise(lambda *vs: call_builtin(name, list(vs)),
                                   args, loc)
        raise MiniRuntimeError("name", f"unknown function {name!r}", loc)

    def call_wrapped(self, name: str, args: list):
        fn = self.program.functions[name]
        if len(args) != len(fn.params):
            raise MiniRuntimeError(
                "arity", f"{name}() expected {len(fn.params)} arguments, got {len(args)}")
        if self.cfg.memo:
            self.memo.enter(name, args)
        frame = _Frame(fn, dict(zip(fn.params, args)), args)
        try:
            rv = self.run_code(frame)
            rv = self._merge_back(frame, rv)
        finally:
            if self.cfg.memo:
                self.infra.mcache_writes += self.memo.leave()
        self._memo_store(name, args, rv)
        if self.cfg.memo and self.pending == 0:
            self.memo.clear_if_all_merged()
        return rv

    def _merge_back(self, frame: _Frame, rv):
        """Run this frame's diverged mutants alone, in mutant order, and
        merge each return value onto the mainline return value's taint map."""
        for mid, env, pc in sorted(frame.diverged, key=lambda d: d[0]):
            run = (_MemoRun(self, mid) if self.cfg.memo else
                   PlainRun(self.program, select=mid, budget=self.child_budget))
            try:
                value = run.run_fn(frame.fn, env, pc)
            except MiniAssertionError:
                self.kill(mid, "assertion")
            except MiniRuntimeError as err:
                self.kill(mid, "exception", err.kind)
            except StepBudgetExceeded:
                self.kill(mid, "timeout")
            else:
                self.active.add(mid)
                rv = taints.with_taint(rv, mid, value)
            finally:
                self.context_stmts.append(run.stmts)
                self.pending -= 1
        return rv

    def _memo_store(self, name: str, args: list, rv):
        if not self.cfg.memo or self.pending == 0:
            return
        rv_map = taints.entries(rv)
        live = [mid for mid in rv_map if mid == ORIGINAL or mid in self.active]
        for mid, key in mutant_call_keys(name, args, live).items():
            self.infra.memo_stores += 1
            self.memo.store(key, mid, rv_map[mid])

    # --- execution ---

    def run_code(self, frame: _Frame):
        pc = 0
        code = frame.fn.code
        env = frame.env
        while True:
            instr = code[pc]
            if instr.counted:
                self.stmts += 1
                if self.stmts > self.budget:
                    raise StepBudgetExceeded()
            if isinstance(instr, IAssign):
                env[instr.name] = self.eval(instr.expr, env)
                pc += 1
            elif isinstance(instr, IBranch):
                cond = self.eval(instr.cond, env)
                pc = self.exec_cond(frame, instr, cond)
            elif isinstance(instr, IJump):
                pc = instr.target
            elif isinstance(instr, IAssert):
                self.exec_assert(instr, env)
                pc += 1
            elif isinstance(instr, IExpr):
                self.eval(instr.expr, env)
                pc += 1
            elif isinstance(instr, IReturn):
                if instr.expr is None:
                    return None
                return self.eval(instr.expr, env)
            else:
                raise TypeError(f"bad instruction {instr!r}")

    def exec_cond(self, frame: _Frame, instr: IBranch, cond) -> int:
        mainline, _, diverge = taints.partition_condition(
            cond, restrict=self.active, on_kill=self._kill_exc)
        for mid in sorted(diverge):
            decision = taint_get(cond, mid)
            self.divergences.append(
                DivergenceEvent(instr.loc, mid, decision, mainline))
            self.active.discard(mid)
            self.pending += 1
            if self.cfg.fork:
                target = instr.true_pc if decision else instr.false_pc
                frame.diverged.append(
                    (mid, taints.concretize_env(frame.env, mid), target))
                self.infra.snapshots += 1
            else:
                args_m = [taint_get(a, mid) for a in frame.args]
                frame.diverged.append(
                    (mid, dict(zip(frame.fn.params, args_m)), 0))
        return instr.true_pc if mainline else instr.false_pc

    def exec_assert(self, instr: IAssert, env: dict):
        v = self.eval(instr.expr, env)
        mainline = value_of(v)
        if not isinstance(mainline, bool):
            raise MiniRuntimeError("type", "assert expression must be a bool",
                                   instr.loc)
        if not mainline:
            raise MiniAssertionError(instr.loc)
        for mid in sorted(taint_keys(v) & self.active):
            mv = taint_get(v, mid)
            if not isinstance(mv, bool):
                self.kill(mid, "exception", "type")
            elif not mv:
                self.kill(mid, "assertion")

    # --- expression evaluation ---

    def eval(self, e: Expr, env: dict):
        if isinstance(e, Literal):
            return e.value
        if isinstance(e, Var):
            if e.name not in env:
                raise MiniRuntimeError("name", f"undefined variable {e.name!r}", e.loc)
            return env[e.name]
        if isinstance(e, TaintedCond):
            return self.eval(e.cond, env)
        if isinstance(e, TaintChoice):
            return self.exec_taint_choice(e, env)
        if isinstance(e, (BinOp, Compare, BoolOp)):
            a = self.eval(e.left, env)
            b = self.eval(e.right, env)
            try:
                return taints.apply_binary(a, e.op, {}, b, restrict=self.active,
                                           on_kill=self._kill_exc, stats=self.infra)
            except MiniRuntimeError as err:
                err.loc = err.loc or e.loc
                raise
        if isinstance(e, UnaryOp):
            a = self.eval(e.operand, env)
            try:
                return taints.apply_unary(e.op, a, restrict=self.active,
                                          on_kill=self._kill_exc, stats=self.infra)
            except MiniRuntimeError as err:
                err.loc = err.loc or e.loc
                raise
        if isinstance(e, Call):
            args = [self.eval(a, env) for a in e.args]
            try:
                return self.call_function(e.name, args, e.loc)
            except MiniRuntimeError as err:
                err.loc = err.loc or e.loc
                raise
        if isinstance(e, ListLit):
            items = [self.eval(a, env) for a in e.items]
            return self._pointwise(lambda *vs: tuple(vs), items, e.loc)
        if isinstance(e, Index):
            base = self.eval(e.base, env)
            idx = self.eval(e.index, env)
            return self._pointwise(values.index_value, [base, idx], e.loc)
        raise TypeError(f"cannot evaluate {e!r}")

    def exec_taint_choice(self, e: TaintChoice, env: dict):
        a = self.eval(e.left, env)
        b = self.eval(e.right, env)
        self.covered_points.add(e.point_id)
        if self.cfg.memo:
            self.memo.note(e.point_id, e.variants)
        try:
            return taints.apply_binary(a, e.variants[ORIGINAL], e.variants, b,
                                       restrict=self.active,
                                       on_kill=self._kill_exc, stats=self.infra)
        except MiniRuntimeError as err:
            err.loc = err.loc or e.loc
            raise

    def _pointwise(self, fn, args: list, loc: Loc):
        """Apply a plain n-ary operation per taint entry (builtins, list
        construction, indexing). Taints on list elements are lifted to the
        list value itself."""
        out = {}
        try:
            out[ORIGINAL] = fn(*[value_of(a) for a in args])
        except MiniRuntimeError as err:
            err.loc = err.loc or loc
            raise
        ids = taints.active_taints(args) & self.active
        for m in sorted(ids):
            try:
                out[m] = fn(*[taint_get(a, m) for a in args])
            except MiniRuntimeError as err:
                self._kill_exc(m, err.kind)
        if ids:
            self.infra.taint_ops += len(ids)
        return taints.make(out)


HARD_BUDGET = 2_000_000  # statement cap for an unbudgeted original run


def budget_for(original_stmts: int, mult: int) -> int:
    """Step budget of every mutant execution, from the original's stmts."""
    return max(mult * original_stmts, 100)


def run_test(program: CompiledProgram, test: str, mutant_ids: list[int],
             point_of_mutant: dict[int, int], cfg: EngineConfig) -> TestReport:
    """Execute one test under the taint engine and classify every mutant."""
    pre = run_entry(program, test, [], select=ORIGINAL, budget=HARD_BUDGET)
    if pre.status != "pass":
        return TestReport(test, False, {}, pre.stmts, [pre.stmts],
                          InfraStats(), {}, [])
    child_budget = budget_for(pre.stmts, cfg.budget_mult)

    eng = TaintEngine(program, mutant_ids, cfg, child_budget,
                      budget=cfg.budget_mult * pre.stmts + HARD_BUDGET)
    try:
        eng.call_wrapped(test, [])
        valid = True
    except (MiniAssertionError, MiniRuntimeError, StepBudgetExceeded):
        valid = False  # mainline must match the passing original run

    verdicts = {}
    for mid in mutant_ids:
        if mid in eng.kills:
            cause, detail = eng.kills[mid]
            verdicts[mid] = ("killed", cause)
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
        memo_stats=eng.memo.stats.as_dict(),
        divergences=eng.divergences,
        pending_end=eng.pending,
    )
