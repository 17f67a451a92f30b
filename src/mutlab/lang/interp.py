"""Flat-instruction compiler and the plain (untainted) evaluator.

Function bodies compile to instruction lists with explicit branch targets,
so an execution position is just (function, pc). The plain evaluator runs
one variant of the program (the original, or a single mutant selected by
id when executing a meta-mutant) and counts one statement per executed
statement node; each branch/loop condition evaluation counts once.

It runs the original and isolated mutant runs, and also every mutant the
taint engine sees diverge: `run_fn` starts at any pc of a function, so a
forked mutant resumes at its branch target on its concretized environment.
Subclasses hook into a program-function call (`call_fn`) and into a choice
site once its operands are evaluated (`at_choice`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MiniAssertionError, MiniRuntimeError, StepBudgetExceeded
from .nodes import (
    Assert, Assign, Ast, BinOp, BoolOp, Call, Compare, Expr, ExprStmt,
    FunctionDef, If, Index, ListLit, Literal, Loc, Return, Stmt, TaintChoice,
    TaintedCond, UnaryOp, Var, While,
)
from . import values
from .values import BUILTINS


# --- instructions ---

@dataclass
class Instr:
    loc: Loc
    counted: bool = field(default=True, init=False)


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
    is_test: bool


@dataclass
class CompiledProgram:
    functions: dict[str, CompiledFn]
    ast: Ast


def compile_fn(fn: FunctionDef) -> CompiledFn:
    code: list[Instr] = []

    def emit(instr: Instr) -> int:
        code.append(instr)
        return len(code) - 1

    def compile_block(body: list[Stmt]) -> None:
        for s in body:
            if isinstance(s, Assign):
                emit(IAssign(s.loc, s.name, s.value))
            elif isinstance(s, Return):
                emit(IReturn(s.loc, s.value))
            elif isinstance(s, Assert):
                emit(IAssert(s.loc, s.test))
            elif isinstance(s, ExprStmt):
                emit(IExpr(s.loc, s.value))
            elif isinstance(s, If):
                br = IBranch(s.loc, s.cond)
                emit(br)
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
                emit(br)
                br.true_pc = len(code)
                compile_block(s.body)
                emit(IJump(s.loc, target=top))
                br.false_pc = len(code)
            else:
                raise TypeError(f"cannot compile {s!r}")

    compile_block(fn.body)
    code.append(IReturn(fn.loc, None))
    code[-1].counted = False  # implicit return is not a statement
    return CompiledFn(fn.name, list(fn.params), code, fn.is_test)


def compile_program(ast: Ast) -> CompiledProgram:
    return CompiledProgram({f.name: compile_fn(f) for f in ast.functions}, ast)


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
        self.events: list = [] if record_events else None
        self._record = record_events

    def _tick(self):
        self.stmts += 1
        if self.budget is not None and self.stmts > self.budget:
            raise StepBudgetExceeded()

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
        while True:
            instr = code[pc]
            if instr.counted:
                self._tick()
            if isinstance(instr, IAssign):
                env[instr.name] = self.eval(instr.expr, env)
                pc += 1
            elif isinstance(instr, IBranch):
                cond = self.eval(instr.cond, env)
                values.require_bool(cond, "condition")
                pc = instr.true_pc if cond else instr.false_pc
            elif isinstance(instr, IJump):
                pc = instr.target
            elif isinstance(instr, IAssert):
                test = self.eval(instr.expr, env)
                values.require_bool(test, "assert expression")
                if not test:
                    raise MiniAssertionError(instr.loc)
                pc += 1
            elif isinstance(instr, IExpr):
                self.eval(instr.expr, env)
                pc += 1
            elif isinstance(instr, IReturn):
                return self.eval(instr.expr, env) if instr.expr is not None else None
            else:
                raise TypeError(f"bad instruction {instr!r}")

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
            a = self.eval(e.left, env)
            b = self.eval(e.right, env)
            op = e.variants.get(self.select, e.variants[0])
            self.at_choice(e)
            apply = values.compare_op if e.kind == "cmp" else values.binary_op
            try:
                v = apply(op, a, b)
            except MiniRuntimeError as err:
                if self._record:
                    self.events.append((e.point_id, self.stmts - 1, ("err", err.kind)))
                err.loc = err.loc or e.loc
                raise
            if self._record:
                self.events.append((e.point_id, self.stmts - 1, ("val", v)))
            return v
        if isinstance(e, BinOp):
            a = self.eval(e.left, env)
            b = self.eval(e.right, env)
            return self._locate(values.binary_op, e.op, a, b, loc=e.loc)
        if isinstance(e, Compare):
            a = self.eval(e.left, env)
            b = self.eval(e.right, env)
            return self._locate(values.compare_op, e.op, a, b, loc=e.loc)
        if isinstance(e, BoolOp):
            a = self.eval(e.left, env)
            b = self.eval(e.right, env)
            return self._locate(values.bool_op, e.op, a, b, loc=e.loc)
        if isinstance(e, UnaryOp):
            a = self.eval(e.operand, env)
            return self._locate(values.unary_op, e.op, a, loc=e.loc)
        if isinstance(e, Call):
            args = [self.eval(a, env) for a in e.args]
            try:
                return self.call(e.name, args)
            except MiniRuntimeError as err:
                err.loc = err.loc or e.loc
                raise
        if isinstance(e, ListLit):
            return tuple(self.eval(a, env) for a in e.items)
        if isinstance(e, Index):
            base = self.eval(e.base, env)
            idx = self.eval(e.index, env)
            return self._locate(values.index_value, base, idx, loc=e.loc)
        raise TypeError(f"cannot evaluate {e!r}")

    @staticmethod
    def _locate(fn, *args, loc: Loc):
        try:
            return fn(*args)
        except MiniRuntimeError as err:
            err.loc = err.loc or loc
            raise


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
