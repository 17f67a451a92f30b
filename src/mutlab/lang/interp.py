"""Flat-instruction compiler and the plain (untainted) evaluator.

Function bodies compile to instruction lists with explicit branch targets,
so an execution position is just (function, pc). Each instruction's
expression is compiled once per program into a closure `ev(run, env)`
(`compile_expr`); a choice site's closure holds one operator function per
variant and picks the one for `run.select`. The plain evaluator runs one
variant of the program (the original, or a single mutant selected by id
when executing a meta-mutant) and counts one statement per executed
statement node; each branch/loop condition evaluation counts once.

It runs the original and isolated mutant runs, and also every mutant the
taint engine sees diverge: `run_fn` starts at any pc of a function, so a
forked mutant resumes at its branch target on its concretized environment.
Each call site binds its callee when the program is compiled
(`bind_call`): a program function is called through `call_fn`, the one
hook subclasses override, and a builtin's function directly, so a `.ml0`
call level costs three Python frames (`run_fn`, the site's closure,
`call_fn`). `call` looks a name up only for `run_entry`. A choice site
has no hook, since it is the hottest closure: it adds its point id to
`run.covered_points` itself, and a `Var`-`Literal` or `Var`-`Var` site
(most of them) reads its operands inline, so it makes no Python call but
its operator's. `CompiledProgram.reach` maps each function to the mutants
whose choice sites a call of it may run, for the memo (see `memo`).

A while loop's back edge is its own instruction (`ILoop`). After 8, then 9,
10, ... back edges a frame checks its state (pc, env) against the last
checkpoint: runs are deterministic, so a bit-identical state repeats
forever, and a budgeted run ends there as running to its budget would.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import MiniAssertionError, MiniRuntimeError, StepBudgetExceeded
from .nodes import (
    Assert, Assign, Ast, BinOp, BoolOp, Call, Compare, Expr, ExprStmt,
    FunctionDef, If, Index, ListLit, Literal, Loc, Return, Stmt, TaintChoice,
    UnaryOp, Var, While,
)
from . import values
from .values import BUILTINS, OPERATORS, plain_eq


# --- instructions ---

@dataclass
class Instr:
    loc: Loc
    counted: bool = field(default=True, init=False)
    # the instruction's expression compiled once: ev(run, env) -> value
    ev: Callable = field(default=None, init=False, repr=False, compare=False)


@dataclass
class IAssign(Instr):
    name: str
    expr: Expr


@dataclass
class IExpr(Instr):
    expr: Expr


@dataclass
class IAssert(Instr):
    expr: Expr


@dataclass
class IReturn(Instr):
    expr: Expr | None


@dataclass
class IBranch(Instr):
    cond: Expr
    true_pc: int = -1
    false_pc: int = -1


@dataclass
class IJump(Instr):
    target: int = -1

    def __post_init__(self):
        self.counted = False


@dataclass
class ILoop(IJump):
    """A while loop's back edge: a jump to the loop's condition."""


@dataclass
class CompiledFn:
    name: str
    params: list[str]
    code: list[Instr]


@dataclass
class CompiledProgram:
    functions: dict[str, CompiledFn]
    # function name -> reach(f): the non-original mutant ids of the choice
    # sites in f and in every function a call in f binds to, transitively
    reach: dict[str, frozenset] = field(default_factory=dict)


def compile_fn(fn: FunctionDef, program: CompiledProgram) -> list[Instr]:
    """The instruction list of `fn`'s body."""
    code: list[Instr] = []

    def emit(instr: Instr, expr: Expr | None = None) -> int:
        instr.ev = _unit if expr is None else compile_expr(expr, program)
        code.append(instr)
        return len(code) - 1

    def compile_block(body: list[Stmt]) -> None:
        for s in body:
            if isinstance(s, Assign):
                emit(IAssign(s.loc, s.name, s.value), s.value)
            elif isinstance(s, Return):
                emit(IReturn(s.loc, s.value), s.value)
            elif isinstance(s, Assert):
                emit(IAssert(s.loc, s.test), s.test)
            elif isinstance(s, ExprStmt):
                emit(IExpr(s.loc, s.value), s.value)
            elif isinstance(s, If):
                br = IBranch(s.loc, s.cond)
                emit(br, s.cond)
                br.true_pc = len(code)
                compile_block(s.then_body)
                jend = IJump(s.loc)
                emit(jend)
                br.false_pc = len(code)
                compile_block(s.else_body)
                jend.target = len(code)
            elif isinstance(s, While):
                top = len(code)
                br = IBranch(s.loc, s.cond)
                emit(br, s.cond)
                br.true_pc = len(code)
                compile_block(s.body)
                emit(ILoop(s.loc, target=top))
                br.false_pc = len(code)
            else:
                raise TypeError(f"cannot compile {s!r}")

    compile_block(fn.body)
    emit(IReturn(fn.loc, None))
    code[-1].counted = False  # implicit return is not a statement
    return code


def compile_program(ast: Ast) -> CompiledProgram:
    """Every `CompiledFn` exists before any body is compiled, so that each
    call site binds its callee (`bind_call`); the reach sets follow the
    same bindings."""
    functions = {f.name: CompiledFn(f.name, list(f.params), [])
                 for f in ast.functions}
    program = CompiledProgram(functions)
    for f in ast.functions:
        functions[f.name].code = compile_fn(f, program)
    edges = {name: _edges(fn, functions) for name, fn in functions.items()}
    for name in functions:
        mutants, seen, todo = set(), {name}, [name]
        while todo:
            own, callees = edges[todo.pop()]
            mutants |= own
            todo += callees - seen
            seen |= callees
        mutants.discard(0)  # the original
        program.reach[name] = frozenset(mutants)
    return program


def _edges(fn: CompiledFn, functions: dict) -> tuple[set, set]:
    """The variant ids of `fn`'s choice sites, and the names of the program
    functions its call sites bind to. A call that `bind_call` turns into an
    error runs no callee."""
    mutants, callees = set(), set()
    todo = [i.cond if type(i) is IBranch else i.expr for i in fn.code
            if not isinstance(i, IJump)]
    while todo:
        e = todo.pop()
        if e is None or isinstance(e, (Var, Literal)):  # most nodes
            continue
        if isinstance(e, (BinOp, Compare, BoolOp, TaintChoice)):
            todo += e.left, e.right
            if isinstance(e, TaintChoice):
                mutants.update(e.variants)
        elif isinstance(e, Call):
            todo += e.args
            callee = bind_call(functions, e.name, len(e.args))
            if type(callee) is CompiledFn:
                callees.add(callee.name)
        elif isinstance(e, ListLit):
            todo += e.items
        elif isinstance(e, Index):
            todo += e.base, e.index
        elif isinstance(e, UnaryOp):
            todo.append(e.operand)
    return mutants, callees


# --- expression compiler ---

def _unit(run, env):
    return None


def _undefined(name: str, loc: Loc) -> MiniRuntimeError:
    return MiniRuntimeError("name", f"undefined variable {name!r}", loc)


def compile_expr(e: Expr, program: CompiledProgram) -> Callable:
    """Compile an expression of `program` into a closure `ev(run, env)` that
    evaluates it on the PlainRun `run`. A runtime error keeps the innermost
    location."""
    loc = e.loc
    if isinstance(e, Literal):
        value = e.value
        return lambda run, env: value
    if isinstance(e, Var):
        name = e.name

        def ev(run, env):
            try:
                return env[name]
            except KeyError:
                raise _undefined(name, loc) from None
        return ev
    if isinstance(e, TaintChoice):
        fns = {m: OPERATORS[op] for m, op in e.variants.items()}
        orig, point, lhs, rhs = fns[0], e.point_id, e.left, e.right
        if type(lhs) is Var and type(rhs) in (Var, Literal):
            # most sites: read the leaf operands inline, with the errors of
            # their closures (a subclass of Var or Literal is not inlined)
            lname, rname = lhs.name, getattr(rhs, "name", None)
            value = getattr(rhs, "value", None)

            def ev(run, env):
                try:
                    a = env[lname]
                    b = value if rname is None else env[rname]
                except KeyError:
                    bad = rhs if lname in env else lhs
                    raise _undefined(bad.name, bad.loc) from None
                fn = fns.get(run.select, orig)
                run.covered_points.add(point)
                events = run.events
                try:
                    v = fn(a, b)
                except MiniRuntimeError as err:
                    if events is not None:
                        events += point, run.stmts - 1, "err", err.kind
                    err.loc = err.loc or loc
                    raise
                if events is not None:
                    events += point, run.stmts - 1, "val", v
                return v
            return ev
        left, right = compile_expr(lhs, program), compile_expr(rhs, program)

        def ev(run, env):
            a = left(run, env)
            b = right(run, env)
            fn = fns.get(run.select, orig)
            run.covered_points.add(point)
            events = run.events
            try:
                v = fn(a, b)
            except MiniRuntimeError as err:
                if events is not None:
                    events += point, run.stmts - 1, "err", err.kind
                err.loc = err.loc or loc
                raise
            if events is not None:
                events += point, run.stmts - 1, "val", v
            return v
        return ev
    if isinstance(e, (BinOp, Compare, BoolOp)):
        return _located(OPERATORS[e.op], loc, compile_expr(e.left, program),
                        compile_expr(e.right, program))
    if isinstance(e, Index):
        return _located(values.index_value, loc, compile_expr(e.base, program),
                        compile_expr(e.index, program))
    if isinstance(e, UnaryOp):
        op, operand = e.op, compile_expr(e.operand, program)

        def ev(run, env):
            a = operand(run, env)
            try:
                return values.unary_op(op, a)
            except MiniRuntimeError as err:
                err.loc = err.loc or loc
                raise
        return ev
    if isinstance(e, Call):
        return _compile_call(e, [compile_expr(a, program) for a in e.args],
                             program.functions)
    if isinstance(e, ListLit):
        items = [compile_expr(a, program) for a in e.items]
        return lambda run, env: tuple([a(run, env) for a in items])
    raise TypeError(f"cannot compile {e!r}")


def bind_call(functions: dict, name: str, nargs: int):
    """What a call of `name` with `nargs` arguments runs: the program
    function's `CompiledFn`, the builtin's Python function, or, when the
    call is illegal, the (kind, message) of the `MiniRuntimeError` it
    raises. A program function hides a builtin of the same name."""
    fn = functions.get(name)
    if fn is not None:
        if nargs == len(fn.params):
            return fn
        return "arity", f"{name}() expected {len(fn.params)} arguments, got {nargs}"
    if name not in BUILTINS:
        return "name", f"unknown function {name!r}"
    builtin, lo, hi = BUILTINS[name]
    if nargs < lo or (hi is not None and nargs > hi):
        return "arity", f"{name}() got {nargs} arguments"
    return builtin


def _compile_call(e: Call, args: list, functions: dict) -> Callable:
    """A call site bound to its callee when the program is compiled. It
    evaluates the arguments, then calls `run.call_fn` for a program function
    (the hook of a memo run) or the builtin's function, or raises the
    illegal call's error, with `e.loc` on errors that have no location yet.
    Most calls pass one argument, or two to a program function: those sites
    read them without a list comprehension."""
    loc, callee = e.loc, bind_call(functions, e.name, len(args))
    kind = type(callee)
    if kind is CompiledFn and len(args) == 1:
        arg, = args

        def ev(run, env):
            v = arg(run, env)
            try:
                return run.call_fn(callee, [v])
            except MiniRuntimeError as err:
                err.loc = err.loc or loc
                raise
        return ev
    if kind is CompiledFn and len(args) == 2:
        arg1, arg2 = args

        def ev(run, env):
            v1 = arg1(run, env)
            v2 = arg2(run, env)
            try:
                return run.call_fn(callee, [v1, v2])
            except MiniRuntimeError as err:
                err.loc = err.loc or loc
                raise
        return ev
    if kind is not tuple and len(args) == 1:
        arg, = args

        def ev(run, env):
            v = arg(run, env)
            try:
                return callee(v)
            except MiniRuntimeError as err:
                err.loc = err.loc or loc
                raise
        return ev

    def ev(run, env):
        vals = [a(run, env) for a in args]
        try:
            if kind is CompiledFn:
                return run.call_fn(callee, vals)
            if kind is tuple:
                raise MiniRuntimeError(*callee)
            return callee(*vals)
        except MiniRuntimeError as err:
            err.loc = err.loc or loc
            raise
    return ev


def _located(fn, loc: Loc, left, right):
    """Evaluate both operands, then `fn(a, b)` with `loc` on its errors."""
    def ev(run, env):
        a = left(run, env)
        b = right(run, env)
        try:
            return fn(a, b)
        except MiniRuntimeError as err:
            err.loc = err.loc or loc
            raise
    return ev


# --- plain evaluation ---

@dataclass
class Outcome:
    """Result of one plain run of a test or entry function."""
    status: str           # 'pass' | 'assert' | 'error' | 'timeout'
    kind: str | None      # runtime-error kind when status == 'error'
    loc: Loc | None
    stmts: int
    covered_points: set[int]
    events: list          # per site event: point_id, stmts_before, kind, value
    value: object = None


FIRST_GAP = 8  # back edges of a frame before its first loop checkpoint


class PlainRun:
    """Executes one variant: at every TaintChoice the operator for
    `select` is applied when present, otherwise the original."""

    def __init__(self, program: CompiledProgram, select: int = 0,
                 budget: int | None = None, record_events: bool = False):
        self.program = program
        self.select = select
        self.budget = budget
        self.stmts = 0
        self.covered_points: set[int] = set()
        self.events: list | None = [] if record_events else None

    def call(self, name: str, args: list):
        """Call a function by name: `run_entry`'s way in. A compiled call
        site binds its callee once instead (`bind_call`)."""
        callee = bind_call(self.program.functions, name, len(args))
        if isinstance(callee, CompiledFn):
            return self.call_fn(callee, args)
        if isinstance(callee, tuple):
            raise MiniRuntimeError(*callee)
        return callee(*args)

    def call_fn(self, fn: CompiledFn, args: list):
        """A call of a program function with arity-checked args."""
        return self.run_fn(fn, dict(zip(fn.params, args)))

    def shared_epoch(self):
        """Changes whenever state a call may read beyond its arguments may
        have changed; a plain run has none."""
        return 0

    def run_fn(self, fn: CompiledFn, env: dict, pc: int = 0):
        code = fn.code
        limit = math.inf if self.budget is None else self.budget
        edges, checkpoint = FIRST_GAP, None
        while True:
            instr = code[pc]
            if instr.counted:
                self.stmts += 1
                if self.stmts > limit:
                    raise StepBudgetExceeded()
            kind = type(instr)
            if kind is IAssign:
                env[instr.name] = instr.ev(self, env)
                pc += 1
            elif kind is IBranch:
                cond = instr.ev(self, env)
                if cond is not True and cond is not False:
                    values.require_bool(cond, "condition")
                pc = instr.true_pc if cond else instr.false_pc
            elif kind is ILoop:
                pc = instr.target
                edges -= 1
                if not edges:
                    checkpoint, edges = self.at_checkpoint(pc, env, checkpoint)
            elif kind is IReturn:
                return instr.ev(self, env)
            elif kind is IJump:
                pc = instr.target
            elif kind is IAssert:
                test = instr.ev(self, env)
                if test is not True:
                    values.require_bool(test, "assert expression")
                    raise MiniAssertionError(instr.loc)
                pc += 1
            elif kind is IExpr:
                instr.ev(self, env)
                pc += 1
            else:
                raise TypeError(f"bad instruction {instr!r}")

    def at_checkpoint(self, pc: int, env: dict, last):
        """A frame is at a loop head, `gap` back edges after its `last`
        checkpoint (None before the first). A budgeted run whose state
        (pc, env) is bit-identical to the checkpoint's, with the same shared
        epoch, repeats forever and ends here (`run_to_budget`). Returns the
        new checkpoint and the back edges to the next, one more than before.
        A run without a budget never ends early, so it keeps no checkpoint."""
        if self.budget is None:
            return None, FIRST_GAP
        epoch = self.shared_epoch()
        if last is None:
            gap = FIRST_GAP
        else:
            at, env0, stmts0, mark, epoch0, gap = last
            # == rules out most states fast; plain_eq checks type and bits
            if (at == pc and env0 == env and epoch0 == epoch
                    and all(plain_eq(v, env[k]) for k, v in env0.items())):
                self.run_to_budget(stmts0, mark)
            gap += 1
        mark = 0 if self.events is None else len(self.events)
        return (pc, dict(env), self.stmts, mark, epoch, gap), gap

    def run_to_budget(self, stmts0: int, mark: int):
        """The run repeats every `self.stmts - stmts0` statements from here
        on, so only its budget ends it: record the remaining cycles' events
        (each event from slot `mark` on, copies too, copied a period later),
        charge `budget + 1` statements and time out, as running on would."""
        events, budget = self.events, self.budget
        if events is not None and len(events) > mark:
            period = self.stmts - stmts0
            for i in itertools.count(mark, 4):
                at = events[i + 1] + period
                if at >= budget:
                    break
                events += events[i], at, events[i + 2], events[i + 3]
        self.stmts = budget + 1
        raise StepBudgetExceeded()


def run_entry(program: CompiledProgram, entry: str, args: list,
              select: int = 0, budget: int | None = None,
              record_events: bool = False) -> Outcome:
    """Run one entry function to an Outcome, catching mini-language errors."""
    run = PlainRun(program, select=select, budget=budget, record_events=record_events)
    events = run.events if record_events else []
    try:
        value = run.call(entry, args)
        return Outcome("pass", None, None, run.stmts, run.covered_points, events, value)
    except MiniAssertionError as err:
        return Outcome("assert", None, err.loc, run.stmts, run.covered_points, events)
    except MiniRuntimeError as err:
        return Outcome("error", err.kind, err.loc, run.stmts, run.covered_points, events)
    except StepBudgetExceeded:
        return Outcome("timeout", None, None, run.stmts, run.covered_points, events)


def eval_plain(ast: Ast, entry: str, env: dict | None = None,
               budget: int | None = None) -> Outcome:
    """Reference evaluator over a plain AST: binds `env` to the entry
    function's parameters and reports the outcome and statement count."""
    program = compile_program(ast)
    fn = program.functions[entry]
    env = env or {}
    missing = [p for p in fn.params if p not in env]
    if missing:
        raise MiniRuntimeError("arity", f"missing bindings for {missing}")
    args = [env[p] for p in fn.params]
    return run_entry(program, entry, args, budget=budget)
