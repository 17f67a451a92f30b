"""The taint-aware interpreter.

One root context executes the meta-mutant mainline carrying all live
mutants as value taints. Control-flow divergence is detected at wrapped
branch/loop conditions; a diverging mutant either gets a child context
(an in-process snapshot of the current frame, resumed at the divergent
branch) or is parked as wounded for re-execution. Both are resolved at the
return of the function in which the divergence happened, and the diverged
mutant's return value is merged back as its execution taint on the
mainline return value.

Children and re-executions run with a concretized plain environment and
their own statement counters and step budgets; they never diverge again
(they carry no foreign taints). Memoization, when enabled, is consulted by
non-mainline contexts before executing a wrapped call and filled by every
context, guarded by the mutation cache. Every executed choice site notes
its variant ids in the innermost open call's encounter set; the call
writes its mutation-cache records when it returns (see `memo`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang.errors import MiniAssertionError, MiniRuntimeError, StepBudgetExceeded
from .lang.interp import (
    CompiledFn, CompiledProgram, IAssert, IAssign, IBranch, IExpr, IJump,
    IReturn, run_entry,
)
from .lang.nodes import (
    BinOp, BoolOp, Call, Compare, Expr, Index, ListLit, Literal, Loc,
    TaintChoice, TaintedCond, UnaryOp, Var,
)
from .lang import values
from .lang.values import BUILTINS, call_builtin
from .memo import MemoState, make_call_key, mutant_call_key
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
class Ctx:
    """One control-flow stream: the root mainline or a concretized child."""
    mainline_id: int
    budget: int | None
    stmts: int = 0

    @property
    def is_root(self) -> bool:
        return self.mainline_id == ORIGINAL

    def tick(self):
        self.stmts += 1
        if self.budget is not None and self.stmts > self.budget:
            raise StepBudgetExceeded()


@dataclass
class _Frame:
    fn: CompiledFn
    env: dict
    children: list = field(default_factory=list)   # (mid, env, pc) snapshots
    wounded: list = field(default_factory=list)    # mutant ids


class _ChildKill(Exception):
    def __init__(self, cause: str, detail: str | None = None):
        self.cause = cause
        self.detail = detail


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


class TaintEngine:
    """Executes one test of a meta-mutant under one strategy config."""

    def __init__(self, program: CompiledProgram, mutant_ids: list[int],
                 cfg: EngineConfig, child_budget: int | None):
        self.program = program
        self.cfg = cfg
        self.child_budget = child_budget
        self.active: set[int] = set(mutant_ids)
        self.kills: dict[int, tuple] = {}
        self.parked: set[int] = set()
        self.pending = 0
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

    def call_function(self, ctx: Ctx, name: str, args: list, loc: Loc):
        if name in self.program.functions:
            return self.call_wrapped(ctx, name, args)
        if name in BUILTINS:
            return self._pointwise(ctx, lambda *vs: call_builtin(name, list(vs)),
                                   args, loc)
        raise MiniRuntimeError("name", f"unknown function {name!r}", loc)

    def call_wrapped(self, ctx: Ctx, name: str, args: list,
                     memo_self: bool = True):
        fn = self.program.functions[name]
        if len(args) != len(fn.params):
            raise MiniRuntimeError(
                "arity", f"{name}() expected {len(fn.params)} arguments, got {len(args)}")

        # non-mainline contexts may reuse a memoized result for the whole call
        if (self.cfg.memo and memo_self and not ctx.is_root):
            key = make_call_key(name, args)
            self.infra.memo_lookups += 1
            hit, cached = self.memo.lookup(key, ctx.mainline_id)
            if hit:
                return cached

        if self.cfg.memo:
            self.memo.enter(name, args)
        frame = _Frame(fn, dict(zip(fn.params, args)))
        try:
            rv = self.run_code(ctx, frame, 0)
            rv = self._merge_back(ctx, frame, name, args, rv)
        finally:
            if self.cfg.memo:
                self.infra.mcache_writes += self.memo.leave()
        self._memo_store(ctx, name, args, rv)
        if self.cfg.memo and self.pending == 0:
            self.memo.clear_if_all_merged()
        return rv

    def _merge_back(self, ctx: Ctx, frame: _Frame, name: str, args: list, rv):
        """Run this frame's suspended children (fork mode) or re-execute its
        wounded mutants (no-fork mode), merging each return value onto the
        mainline return value's taint map."""
        if frame.children:
            for mid, env, pc in sorted(frame.children, key=lambda c: c[0]):
                outcome = self._run_child(frame.fn, env, pc, mid)
                rv = self._absorb(rv, mid, outcome)
            frame.children.clear()
        if frame.wounded:
            for mid in sorted(frame.wounded):
                args_m = [taint_get(a, mid) for a in args]
                outcome = self._rerun(frame.fn, args_m, mid)
                rv = self._absorb(rv, mid, outcome)
            frame.wounded.clear()
        return rv

    def _absorb(self, rv, mid: int, outcome):
        self.pending -= 1
        status, payload = outcome
        if status == "ret":
            self.active.add(mid)
            self.parked.discard(mid)
            return taints.with_taint(rv, mid, payload)
        self.kill(mid, *payload)
        self.parked.discard(mid)
        return rv

    def _run_child(self, fn: CompiledFn, env: dict, pc: int, mid: int):
        cctx = Ctx(mid, self.child_budget)
        frame = _Frame(fn, env)
        try:
            value = self.run_code(cctx, frame, pc)
            return ("ret", value)
        except _ChildKill as k:
            return ("kill", (k.cause, k.detail))
        except MiniAssertionError:
            return ("kill", ("assertion", None))
        except MiniRuntimeError as err:
            return ("kill", ("exception", err.kind))
        except StepBudgetExceeded:
            return ("kill", ("timeout", None))
        finally:
            self.context_stmts.append(cctx.stmts)

    def _rerun(self, fn: CompiledFn, args_m: list, mid: int):
        """Wounded re-execution: the whole function body with the mutant as
        mainline. Choice sites pick the mutant's own variant where present,
        so a mutated body and an unmutated body both come out right."""
        cctx = Ctx(mid, self.child_budget)
        frame = _Frame(fn, dict(zip(fn.params, args_m)))
        try:
            value = self.run_code(cctx, frame, 0)
            return ("ret", value)
        except _ChildKill as k:
            return ("kill", (k.cause, k.detail))
        except MiniAssertionError:
            return ("kill", ("assertion", None))
        except MiniRuntimeError as err:
            return ("kill", ("exception", err.kind))
        except StepBudgetExceeded:
            return ("kill", ("timeout", None))
        finally:
            self.context_stmts.append(cctx.stmts)

    def _memo_store(self, ctx: Ctx, name: str, args: list, rv):
        if not self.cfg.memo or self.pending == 0:
            return
        if ctx.is_root:
            for mid, mv in taints.entries(rv).items():
                if mid != ORIGINAL and mid not in self.active:
                    continue
                key = mutant_call_key(name, args, mid)
                self.infra.memo_stores += 1
                self.memo.store(key, mid, mv)
        else:
            key = make_call_key(name, args)
            self.infra.memo_stores += 1
            self.memo.store(key, ctx.mainline_id, rv)

    # --- execution ---

    def run_code(self, ctx: Ctx, frame: _Frame, pc: int):
        code = frame.fn.code
        env = frame.env
        while True:
            instr = code[pc]
            if instr.counted:
                ctx.tick()
            if isinstance(instr, IAssign):
                env[instr.name] = self.eval(ctx, instr.expr, env)
                pc += 1
            elif isinstance(instr, IBranch):
                cond = self.eval(ctx, instr.cond, env)
                pc = self.exec_cond(ctx, frame, instr, cond)
            elif isinstance(instr, IJump):
                pc = instr.target
            elif isinstance(instr, IAssert):
                self.exec_assert(ctx, instr, env)
                pc += 1
            elif isinstance(instr, IExpr):
                self.eval(ctx, instr.expr, env)
                pc += 1
            elif isinstance(instr, IReturn):
                if instr.expr is None:
                    return None
                return self.eval(ctx, instr.expr, env)
            else:
                raise TypeError(f"bad instruction {instr!r}")

    def exec_cond(self, ctx: Ctx, frame: _Frame, instr: IBranch, cond) -> int:
        if not ctx.is_root:
            mainline = value_of(cond)
            values.require_bool(mainline, "condition")
            return instr.true_pc if mainline else instr.false_pc
        mainline, _follow, diverge = taints.partition_condition(
            cond, restrict=self.active, on_kill=self._kill_exc)
        for mid in sorted(diverge):
            decision = taint_get(cond, mid)
            self.divergences.append(
                DivergenceEvent(instr.loc, mid, decision, mainline))
            self.active.discard(mid)
            self.parked.add(mid)
            self.pending += 1
            if self.cfg.fork:
                target = instr.true_pc if decision else instr.false_pc
                frame.children.append(
                    (mid, taints.concretize_env(frame.env, mid), target))
                self.infra.snapshots += 1
            else:
                frame.wounded.append(mid)
        return instr.true_pc if mainline else instr.false_pc

    def exec_assert(self, ctx: Ctx, instr: IAssert, env: dict):
        v = self.eval(ctx, instr.expr, env)
        mainline = value_of(v)
        if not isinstance(mainline, bool):
            raise MiniRuntimeError("type", "assert expression must be a bool",
                                   instr.loc)
        if not ctx.is_root:
            if not mainline:
                raise MiniAssertionError(instr.loc)
            return
        if not mainline:
            raise MiniAssertionError(instr.loc)
        for mid in sorted(taint_keys(v) & self.active):
            mv = taint_get(v, mid)
            if not isinstance(mv, bool):
                self.kill(mid, "exception", "type")
            elif not mv:
                self.kill(mid, "assertion")

    # --- expression evaluation ---

    def eval(self, ctx: Ctx, e: Expr, env: dict):
        if isinstance(e, Literal):
            return e.value
        if isinstance(e, Var):
            if e.name not in env:
                raise MiniRuntimeError("name", f"undefined variable {e.name!r}", e.loc)
            return env[e.name]
        if isinstance(e, TaintedCond):
            return self.eval(ctx, e.cond, env)
        if isinstance(e, TaintChoice):
            return self.exec_taint_choice(ctx, e, env)
        if isinstance(e, (BinOp, Compare, BoolOp)):
            a = self.eval(ctx, e.left, env)
            b = self.eval(ctx, e.right, env)
            try:
                return taints.apply_binary(a, e.op, {}, b, restrict=self.active,
                                           on_kill=self._kill_exc, stats=self.infra)
            except MiniRuntimeError as err:
                err.loc = err.loc or e.loc
                raise
        if isinstance(e, UnaryOp):
            a = self.eval(ctx, e.operand, env)
            try:
                return taints.apply_unary(e.op, a, restrict=self.active,
                                          on_kill=self._kill_exc, stats=self.infra)
            except MiniRuntimeError as err:
                err.loc = err.loc or e.loc
                raise
        if isinstance(e, Call):
            args = [self.eval(ctx, a, env) for a in e.args]
            try:
                return self.call_function(ctx, e.name, args, e.loc)
            except MiniRuntimeError as err:
                err.loc = err.loc or e.loc
                raise
        if isinstance(e, ListLit):
            items = [self.eval(ctx, a, env) for a in e.items]
            return self._pointwise(ctx, lambda *vs: tuple(vs), items, e.loc)
        if isinstance(e, Index):
            base = self.eval(ctx, e.base, env)
            idx = self.eval(ctx, e.index, env)
            return self._pointwise(ctx, values.index_value, [base, idx], e.loc)
        raise TypeError(f"cannot evaluate {e!r}")

    def exec_taint_choice(self, ctx: Ctx, e: TaintChoice, env: dict):
        a = self.eval(ctx, e.left, env)
        b = self.eval(ctx, e.right, env)
        if ctx.is_root:
            self.covered_points.add(e.point_id)
        if self.cfg.memo:
            self.memo.note(e.variants)
        if not ctx.is_root:
            op = e.variants.get(ctx.mainline_id, e.variants[ORIGINAL])
            fn = values.compare_op if e.kind == "cmp" else values.binary_op
            try:
                return fn(op, value_of(a), value_of(b))
            except MiniRuntimeError as err:
                err.loc = err.loc or e.loc
                raise
        op_mut = {m: op for m, op in e.variants.items()
                  if m != ORIGINAL and m in self.active}
        try:
            return taints.apply_binary(a, e.variants[ORIGINAL], op_mut, b,
                                       restrict=self.active,
                                       on_kill=self._kill_exc, stats=self.infra)
        except MiniRuntimeError as err:
            err.loc = err.loc or e.loc
            raise

    def _pointwise(self, ctx: Ctx, fn, args: list, loc: Loc):
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


def run_test(program: CompiledProgram, test: str, mutant_ids: list[int],
             point_of_mutant: dict[int, int], cfg: EngineConfig) -> TestReport:
    """Execute one test under the taint engine and classify every mutant."""
    pre = run_entry(program, test, [], select=ORIGINAL, budget=HARD_BUDGET)
    if pre.status != "pass":
        return TestReport(test, False, {}, pre.stmts, [pre.stmts],
                          InfraStats(), {}, [])
    child_budget = max(cfg.budget_mult * pre.stmts, 100)

    eng = TaintEngine(program, mutant_ids, cfg, child_budget)
    root = Ctx(ORIGINAL, budget=cfg.budget_mult * pre.stmts + HARD_BUDGET)
    try:
        eng.call_wrapped(root, test, [])
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

    context_stmts = [root.stmts] + eng.context_stmts
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
