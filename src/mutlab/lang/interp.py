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
Subclasses hook into a program-function call (`call_fn`, reached through
`call`) and into a choice site once its operands are evaluated
(`at_choice`); the compiled closures call both hooks.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import MiniAssertionError, MiniRuntimeError, StepBudgetExceeded
from .nodes import (
    Assert, Assign, Ast, BinOp, BoolOp, Call, Compare, Expr, ExprStmt,
    FunctionDef, If, Index, ListLit, Literal, Loc, Return, Stmt, TaintChoice,
    TaintedCond, UnaryOp, Var, While,
)
from . import values
from .values import BUILTINS, OPERATORS


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
class CompiledFn:
    name: str
    params: list[str]
    code: list[Instr]


@dataclass
class CompiledProgram:
    functions: dict[str, CompiledFn]


def compile_fn(fn: FunctionDef) -> CompiledFn:
    code: list[Instr] = []

    def emit(instr: Instr, expr: Expr | None = None) -> int:
        instr.ev = _unit if expr is None else compile_expr(expr)
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
                if s.else_body:
                    jend = IJump(s.loc)
                    emit(jend)
                    br.false_pc = len(code)
                    compile_block(s.else_body)
                    jend.target = len(code)
                else:
                    jend = IJump(s.loc)
                    emit(jend)
                    br.false_pc = len(code)
                    jend.target = len(code)
            elif isinstance(s, While):
                top = len(code)
                br = IBranch(s.loc, s.cond)
                emit(br, s.cond)
                br.true_pc = len(code)
                compile_block(s.body)
                emit(IJump(s.loc, target=top))
                br.false_pc = len(code)
            else:
                raise TypeError(f"cannot compile {s!r}")

    compile_block(fn.body)
    emit(IReturn(fn.loc, None))
    code[-1].counted = False  # implicit return is not a statement
    return CompiledFn(fn.name, list(fn.params), code)


def compile_program(ast: Ast) -> CompiledProgram:
    return CompiledProgram({f.name: compile_fn(f) for f in ast.functions})


# --- expression compiler ---

def _unit(run, env):
    return None


def compile_expr(e: Expr) -> Callable:
    """Compile an expression into a closure `ev(run, env)` that evaluates
    it on the PlainRun `run`. A runtime error keeps the innermost location."""
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
                raise MiniRuntimeError(
                    "name", f"undefined variable {name!r}", loc) from None
        return ev
    if isinstance(e, TaintedCond):
        return compile_expr(e.cond)
    if isinstance(e, TaintChoice):
        left, right = compile_expr(e.left), compile_expr(e.right)
        fns = {m: OPERATORS[op] for m, op in e.variants.items()}
        orig, point = fns[0], e.point_id

        def ev(run, env):
            a = left(run, env)
            b = right(run, env)
            fn = fns.get(run.select, orig)
            run.at_choice(e)
            events = run.events
            try:
                v = fn(a, b)
            except MiniRuntimeError as err:
                if events is not None:
                    events.append((point, run.stmts - 1, ("err", err.kind)))
                err.loc = err.loc or loc
                raise
            if events is not None:
                events.append((point, run.stmts - 1, ("val", v)))
            return v
        return ev
    if isinstance(e, (BinOp, Compare, BoolOp)):
        return _located(OPERATORS[e.op], loc, compile_expr(e.left),
                        compile_expr(e.right))
    if isinstance(e, Index):
        return _located(values.index_value, loc, compile_expr(e.base),
                        compile_expr(e.index))
    if isinstance(e, UnaryOp):
        op, operand = e.op, compile_expr(e.operand)

        def ev(run, env):
            a = operand(run, env)
            try:
                return values.unary_op(op, a)
            except MiniRuntimeError as err:
                err.loc = err.loc or loc
                raise
        return ev
    if isinstance(e, Call):
        name, args = e.name, [compile_expr(a) for a in e.args]

        def ev(run, env):
            vals = [a(run, env) for a in args]
            try:
                return run.call(name, vals)
            except MiniRuntimeError as err:
                err.loc = err.loc or loc
                raise
        return ev
    if isinstance(e, ListLit):
        items = [compile_expr(a) for a in e.items]
        return lambda run, env: tuple([a(run, env) for a in items])
    raise TypeError(f"cannot compile {e!r}")


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
    events: list          # (point_id, stmts_before_stmt, outcome_tag)
    value: object = None


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
        if name in self.program.functions:
            fn = self.program.functions[name]
            if len(args) != len(fn.params):
                raise MiniRuntimeError(
                    "arity", f"{name}() expected {len(fn.params)} arguments, got {len(args)}")
            return self.call_fn(fn, args)
        if name in BUILTINS:
            return values.call_builtin(name, args)
        raise MiniRuntimeError("name", f"unknown function {name!r}")

    def call_fn(self, fn: CompiledFn, args: list):
        """A call of a program function with arity-checked args."""
        return self.run_fn(fn, dict(zip(fn.params, args)))

    def at_choice(self, e: TaintChoice):
        """A choice site's operands are evaluated; its operator is next."""
        self.covered_points.add(e.point_id)

    def run_fn(self, fn: CompiledFn, env: dict, pc: int = 0):
        code = fn.code
        limit = math.inf if self.budget is None else self.budget
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
            elif kind is IReturn:
                return instr.ev(self, env)
            else:
                raise TypeError(f"bad instruction {instr!r}")


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
