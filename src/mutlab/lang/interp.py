"""The compiler and the plain (untainted) evaluator.

A function's code is its body's own simple statements (`Assign`,
`ExprStmt`, `Assert`, `Return`) in order, with two control records:
`IBranch`, whose true condition falls through to pc + 1, and `IJump`,
whose `back` marks a while loop's back edge. An execution position is
(function, pc), and reaching pc len(code) is the implicit return, which
counts no statement; the taint engine's root walks this code itself. The
plain evaluator runs one variant of the program (the original, or a single
mutant selected by id when executing a meta-mutant) and counts one
statement per executed statement node; each branch/loop condition
evaluation counts once.

Dispatch is threaded code: every pc is compiled once per program into a
step `step(run, env) -> next` (`compile_steps`), and `run_fn` is the loop
`pc = steps[pc](run, env)`. A step counts its statement, checks the
budget, evaluates its expression and stores, branches, asserts or returns.
`next` is a pc, `RETURN` or `BACK - t` for a loop's back edge to pc `t`,
so the checkpoint countdown stays in the frame; a step never lands on a
jump, it goes to the jump's target. Every pc has a step, so a forked
mutant resumes at its branch target on its concretized environment.

Every binary node (a choice site, `and`/`or`, `Index`, `BinOp` or
`Compare`) is one closure body, `_binary`, which reads `Var` and `Literal`
operands inline; a choice site also picks its operator and records its
event. A run resolves its mutant once: `CompiledProgram.mutants` gives
the selected mutant's (point id, kernel), so a site compares `run.point`
with its own point and makes no lookup. A statement whose top-level
expression is binary runs as that body itself, so `x = a + 1`, `x = s[i]`
or `if a and b:` makes two Python calls, the step and the operator. A
top-level bare `Var`, `Literal` or call bound to a program function is
evaluated inside its step (`_value_step`); any other expression is a
closure `ev(run, env)` (`compile_expr`). Call sites bind their callee when
the program is compiled (`bind_call`). A site bound to a program function
builds the callee's environment in place and calls `run.run_fn`, the one
hook subclasses override, so a `.ml0` call level costs two Python frames
(`run_fn` and the statement's step); one bound to a builtin of one
argument calls it with no list; any other evaluates a list of arguments.
`CompiledProgram.reach` maps each function to the mutants whose choice
sites a call of it may run, for the memo.

A run's coverage is the point slots of its site events, built only where
it is read (`Outcome.covered_points`): every site execution records
exactly one event.

After 8, then 9, 10, ... back edges a frame checks its state (pc, env)
against the last checkpoint: runs are deterministic, and a memo hit
returns what the call would (see `memo`), so a bit-identical state repeats
forever, and a budgeted run ends there as running to its budget would.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from .errors import MiniAssertionError, MiniRuntimeError, StepBudgetExceeded
from .nodes import (
    Assert, Assign, Ast, BinOp, BoolOp, Call, Compare, Expr, ExprStmt,
    FunctionDef, If, Index, ListLit, Literal, Loc, Return, Stmt, TaintChoice,
    UnaryOp, Var, While,
)
from . import values
from .values import BUILTINS, OPERATORS, plain_eq


# --- control records ---

@dataclass
class IBranch:
    """An `if` or `while` condition: true falls through to pc + 1, false
    goes to `false_pc`."""
    loc: Loc
    cond: Expr
    false_pc: int = -1


@dataclass
class IJump:
    """An uncounted jump; `back` marks a while loop's back edge."""
    loc: Loc
    target: int = -1
    back: bool = False


@dataclass
class CompiledFn:
    name: str
    params: list[str]
    # the body's own `Assign`, `ExprStmt`, `Assert` and `Return` nodes and
    # its control records; reaching pc len(code) is the implicit return
    code: list[Stmt | IBranch | IJump]
    # one step per pc of `code`, and `_return_none` at len(code)
    steps: list[Callable] = field(default_factory=list, repr=False,
                                  compare=False)


@dataclass
class CompiledProgram:
    functions: dict[str, CompiledFn]
    # function name -> reach(f): the non-original mutant ids of the choice
    # sites in f and in every function a call in f binds to, transitively
    reach: dict[str, frozenset] = field(default_factory=dict)
    # mutant id -> (point id, kernel): the choice site of each non-original
    # variant and its operator function
    mutants: dict[int, tuple] = field(default_factory=dict)
    # test name -> the Outcome of the test's original run, recorded by the
    # first caller that runs it (`strategies.analyze_program`, else
    # `engine.run_test`) so that every later one reads it
    originals: dict[str, Outcome] = field(default_factory=dict, repr=False,
                                          compare=False)
    # while a function compiles: the variant ids of its choice sites and
    # the names of the program functions its call sites bind to
    found: tuple[set, set] = field(default_factory=lambda: (set(), set()),
                                   repr=False, compare=False)


def compile_fn(fn: FunctionDef) -> list[Stmt | IBranch | IJump]:
    """The code of `fn`'s body."""
    code: list[Stmt | IBranch | IJump] = []
    emit = code.append

    def compile_block(body: list[Stmt]) -> None:
        for s in body:
            if isinstance(s, If):
                br = IBranch(s.loc, s.cond)
                emit(br)
                compile_block(s.then_body)
                jend = IJump(s.loc)
                emit(jend)
                br.false_pc = len(code)
                compile_block(s.else_body)
                jend.target = len(code)
            elif isinstance(s, While):
                top = len(code)
                br = IBranch(s.loc, s.cond)
                emit(br)
                compile_block(s.body)
                emit(IJump(s.loc, top, back=True))
                br.false_pc = len(code)
            elif isinstance(s, (Assign, ExprStmt, Assert, Return)):
                emit(s)
            else:
                raise TypeError(f"cannot compile {s!r}")

    compile_block(fn.body)
    return code


def compile_program(ast: Ast) -> CompiledProgram:
    """Every `CompiledFn` exists before any body is compiled, so that each
    call site binds its callee (`bind_call`); the reach sets follow the
    same bindings, as compiling each function finds them. A call that
    `bind_call` turns into an error runs no callee."""
    functions = {f.name: CompiledFn(f.name, list(f.params), compile_fn(f))
                 for f in ast.functions}
    program = CompiledProgram(functions)
    edges = {}
    for name, fn in functions.items():
        program.found = edges[name] = set(), set()
        fn.steps = compile_steps(fn.code, program)
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


# --- expression compiler ---

def _constant(value) -> Callable:
    return lambda run, env: value


def _undefined(name: str, loc: Loc) -> MiniRuntimeError:
    return MiniRuntimeError("name", f"undefined variable {name!r}", loc)


def _kernels(e: TaintChoice, program: CompiledProgram) -> Callable:
    """The operator function of the site's original. `program.found` records
    the site's variants and `program.mutants` each mutant's (point id,
    operator function)."""
    program.found[0].update(e.variants)
    for mid, token in e.variants.items():
        if mid:
            program.mutants[mid] = e.point_id, OPERATORS[token]
    return OPERATORS[e.variants[0]]


def _operand(e: Expr, program: CompiledProgram) -> tuple:
    """How a binary node reads an operand: (name, None, None) for a `Var`,
    (None, value, None) for a `Literal`, otherwise (None, None, its
    closure). A subclass of `Var` or `Literal` takes a closure."""
    if type(e) is Var:
        return e.name, None, None
    if type(e) is Literal:
        return None, e.value, None
    return None, None, compile_expr(e, program)


def compile_expr(e: Expr, program: CompiledProgram) -> Callable:
    """Compile an expression of `program` into a closure `ev(run, env)` that
    evaluates it on the PlainRun `run`. A runtime error keeps the innermost
    location."""
    loc = e.loc
    if isinstance(e, Literal):
        return _constant(e.value)
    if isinstance(e, Var):
        name = e.name

        def ev(run, env):
            try:
                return env[name]
            except KeyError:
                raise _undefined(name, loc) from None
        return ev
    if isinstance(e, BINARY):
        return _binary(e, program)
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
                             program)
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


def _compile_call(e: Call, args: list, program: CompiledProgram) -> Callable:
    """A call site bound to its callee when the program is compiled, with
    `e.loc` on errors that have no location yet. Three kinds of site: a
    program function's builds the callee's environment from (parameter,
    argument closure) pairs, as `_value_step` does, and calls `run.run_fn`
    on it (the hook of a memo run); a one-argument builtin's calls it on
    its one argument with no list; any other evaluates its arguments into
    a list, then calls the builtin or raises the illegal call's error."""
    loc, callee = e.loc, bind_call(program.functions, e.name, len(args))
    kind = type(callee)
    if kind is CompiledFn:
        program.found[1].add(callee.name)
        pairs = list(zip(callee.params, args))

        def ev(run, env):
            new = {}
            for p, a in pairs:
                new[p] = a(run, env)
            try:
                return run.run_fn(callee, new)
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
            if kind is tuple:
                raise MiniRuntimeError(*callee)
            return callee(*vals)
        except MiniRuntimeError as err:
            err.loc = err.loc or loc
            raise
    return ev


# --- statement steps ---

RETURN = -1  # a step's result when its frame returns `run.rv`
BACK = -2    # a step's result `BACK - t`: a loop's back edge to pc `t`


def _return_none(run, env):
    run.rv = None
    return RETURN


def compile_steps(code: list[Stmt | IBranch | IJump],
                  program: CompiledProgram) -> list[Callable]:
    """One step per pc of `code`, then `_return_none` at len(code):
    `step(run, env)` counts the statement, checks the budget, evaluates the
    expression, then stores, branches, returns or asserts, and returns the
    next pc, `RETURN` or a back edge's `BACK - t`. A top-level binary node
    is the step itself (`_binary`); a `Var`, `Literal` or call bound to a
    program function is evaluated in the step, any other expression
    through its closure (`_value_step`). A jump's step only goes to its
    target, and no other step returns a jump's pc."""
    # dest[pc]: the result that moves control to pc (a jump's target lies
    # ahead, a back edge's behind)
    dest = list(range(len(code) + 1))
    for pc in range(len(code) - 1, -1, -1):
        s = code[pc]
        if type(s) is IJump:
            dest[pc] = BACK - s.target if s.back else dest[s.target]
    steps = []
    for pc, s in enumerate(code):
        kind = type(s)
        if kind is IJump:
            steps.append(_constant(dest[pc]))
            continue
        if kind is IBranch:
            e, alt = s.cond, dest[s.false_pc]
        else:
            e, alt = (s.test if kind is Assert else s.value), None
        make = _binary if isinstance(e, BINARY) else _value_step
        steps.append(make(e, program, kind, getattr(s, "name", None),
                          dest[pc + 1], alt, s.loc))
    steps.append(_return_none)
    return steps


# A Python call copies every name a closure holds, so a closure holds only
# what it reads. A step's `nxt` is where control goes after the statement,
# or on a true condition, `alt` where a false one goes; `loc` is its own.

BINARY = (TaintChoice, BinOp, Compare, BoolOp, Index)


def _binary(e: Expr, program: CompiledProgram, kind: type | None = None,
            name: str | None = None, nxt: int | None = None,
            alt: int | None = None, loc: Loc | None = None) -> Callable:
    """The closure of the binary node `e`: a choice site, `and`/`or`, an
    `Index`, or a `BinOp`/`Compare` of a plain AST. It reads a `Var` or
    `Literal` operand inline (`_operand`) and applies the operator with
    `e.loc` on its errors; only a choice site selects a kernel (the run's
    own at the run's point) and records its event. With no `kind` it is
    the expression's closure `ev(run, env)`, with one the step of a
    statement of that kind whose top-level expression is `e`."""
    point = None
    if isinstance(e, TaintChoice):
        op, point = _kernels(e, program), e.point_id
    else:
        op = values.index_value if isinstance(e, Index) else OPERATORS[e.op]
    lhs, rhs = (e.base, e.index) if isinstance(e, Index) else (e.left, e.right)
    lname, lvalue, left = _operand(lhs, program)
    rname, rvalue, right = _operand(rhs, program)
    at = e.loc, lhs.loc, rhs.loc, loc  # read on errors only: one cell, not 4

    def ev(run, env):
        if kind is not None:
            n = run.stmts + 1
            run.stmts = n
            if n > run.limit:
                raise StepBudgetExceeded()
        if lname is not None:
            try:
                a = env[lname]
            except KeyError:
                raise _undefined(lname, at[1]) from None
        else:
            a = lvalue if left is None else left(run, env)
        if rname is not None:
            try:
                b = env[rname]
            except KeyError:
                raise _undefined(rname, at[2]) from None
        else:
            b = rvalue if right is None else right(run, env)
        if point is None:
            fn, events = op, None
        else:
            fn = run.kernel if run.point == point else op
            events = run.events
        try:
            v = fn(a, b)
        except MiniRuntimeError as err:
            if events is not None:
                events += point, run.stmts - 1, "err", err.kind
            err.loc = err.loc or at[0]
            raise
        if events is not None:
            events += point, run.stmts - 1, "val", v
        if name is not None:
            env[name] = v
            return nxt
        if kind is None:
            return v
        if kind is IBranch:
            if v is True:
                return nxt
            if v is False:
                return alt
            values.require_bool(v, "condition", at[3])
        if kind is Return:
            run.rv = v
            return RETURN
        if kind is Assert and v is not True:
            values.require_bool(v, "assert expression", at[3])
            raise MiniAssertionError(at[3])
        return nxt
    return ev


def _value_step(e: Expr | None, program: CompiledProgram, kind: type,
                name: str | None, nxt: int, alt: int | None,
                loc: Loc) -> Callable:
    """A step whose top-level expression is not a binary node: a `Var`, a
    `Literal` (or none), a call bound to a program function, or any other
    expression through its closure."""
    vname = callee = ev = value = None
    if type(e) is Var:
        vname = e.name
    elif type(e) is Literal:
        value = e.value
    elif type(e) is Call and type(callee := bind_call(
            program.functions, e.name, len(e.args))) is CompiledFn:
        program.found[1].add(callee.name)
        args = [(p, compile_expr(a, program))
                for p, a in zip(callee.params, e.args)]
    elif e is not None:
        callee, ev = None, compile_expr(e, program)

    def step(run, env):
        n = run.stmts + 1
        run.stmts = n
        if n > run.limit:
            raise StepBudgetExceeded()
        if vname is not None:
            try:
                v = env[vname]
            except KeyError:
                raise _undefined(vname, e.loc) from None
        elif callee is not None:
            new = {}
            for p, a in args:
                new[p] = a(run, env)
            try:
                v = run.run_fn(callee, new)
            except MiniRuntimeError as err:
                err.loc = err.loc or e.loc
                raise
        elif ev is not None:
            v = ev(run, env)
        else:
            v = value
        if name is not None:
            env[name] = v
            return nxt
        if kind is IBranch:
            if v is True:
                return nxt
            if v is False:
                return alt
            values.require_bool(v, "condition", loc)
        if kind is Return:
            run.rv = v
            return RETURN
        if kind is Assert and v is not True:
            values.require_bool(v, "assert expression", loc)
            raise MiniAssertionError(loc)
        return nxt
    return step


# --- plain evaluation ---

@dataclass
class Outcome:
    """Result of one plain run of a test or entry function."""
    status: str           # 'pass' | 'assert' | 'error' | 'timeout'
    kind: str | None      # runtime-error kind when status == 'error'
    loc: Loc | None
    stmts: int
    events: list          # per site event: point_id, stmts_before, kind, value
    value: object = None

    @cached_property
    def covered_points(self) -> set[int]:
        """The point slots of `events`, built when first read: a run that
        records no events reports no coverage."""
        return set(self.events[::4])


FIRST_GAP = 8  # back edges of a frame before its first loop checkpoint


class PlainRun:
    """Executes one variant: the choice site of mutant `select` applies its
    operator (`kernel` at `point`, both None for the original), every
    other site the original's.

    A frame is `run_fn` running its function's steps from any pc. The steps
    keep the run's state: they count `stmts` (a statement past `limit`,
    the budget, raises `StepBudgetExceeded`), append to `events` when it
    is a list, and leave a returned value in `rv`. `run_fn` itself counts
    the frame's back edges and calls `at_checkpoint` on schedule. Every
    call of a program function enters `run_fn` with the callee's new
    environment; subclasses override `run_fn` as a call hook, and nothing
    else."""

    def __init__(self, program: CompiledProgram, select: int = 0,
                 budget: int | None = None, record_events: bool = False):
        self.program = program
        self.select = select
        self.point, self.kernel = program.mutants.get(select, (None, None))
        self.budget = budget
        self.limit = math.inf if budget is None else budget
        self.stmts = 0
        self.events: list | None = [] if record_events else None
        self.rv = None

    def call(self, name: str, args: list):
        """Call a function by name: `run_entry`'s way in. A compiled call
        site binds its callee once instead (`bind_call`)."""
        callee = bind_call(self.program.functions, name, len(args))
        if isinstance(callee, CompiledFn):
            return self.run_fn(callee, dict(zip(callee.params, args)))
        if isinstance(callee, tuple):
            raise MiniRuntimeError(*callee)
        return callee(*args)

    def run_fn(self, fn: CompiledFn, env: dict, pc: int = 0):
        steps = fn.steps
        edges, checkpoint = FIRST_GAP, None
        while True:
            while pc >= 0:
                pc = steps[pc](self, env)
            if pc == RETURN:
                return self.rv
            pc = BACK - pc
            edges -= 1
            if not edges:
                checkpoint, edges = self.at_checkpoint(pc, env, checkpoint)

    def at_checkpoint(self, pc: int, env: dict, last):
        """A frame is at a loop head, `gap` back edges after its `last`
        checkpoint (None before the first). A budgeted run whose state
        (pc, env) is bit-identical to the checkpoint's repeats forever and
        ends here (`run_to_budget`). Returns the new checkpoint and the back
        edges to the next, one more than before. A run without a budget
        never ends early, so it keeps no checkpoint."""
        if self.budget is None:
            return None, FIRST_GAP
        if last is None:
            gap = FIRST_GAP
        else:
            at, env0, stmts0, mark, gap = last
            # == rules out most states fast; plain_eq checks type and bits
            if (at == pc and env0 == env
                    and all(plain_eq(v, env[k]) for k, v in env0.items())):
                self.run_to_budget(stmts0, mark)
            gap += 1
        mark = 0 if self.events is None else len(self.events)
        return (pc, dict(env), self.stmts, mark, gap), gap

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
    value = kind = loc = None
    try:
        value = run.call(entry, args)
        status = "pass"
    except MiniAssertionError as err:
        status, loc = "assert", err.loc
    except MiniRuntimeError as err:
        status, kind, loc = "error", err.kind, err.loc
    except StepBudgetExceeded:
        status = "timeout"
    return Outcome(status, kind, loc, run.stmts,
                   run.events if record_events else [], value)
