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
`Compare`) is one closure body, `_binary`; a choice site also picks its
operator and records its event. A run resolves its mutant once:
`CompiledProgram.mutants` gives the selected mutant's (point id, kernel),
so a site compares `run.point` with its own point and makes no lookup: the
run's own site records into `run.events`, any other into `run.every`.
The other nodes are one closure body too, `_nonbinary`: a call bound to a
program function, a unary operator, any other call, and a bare `Var` or
`Literal`. Both read `Var` and `Literal` operands inline. A call of a
Python function with other than one argument has one operand, the tuple of
its arguments, and applies `_spread`, which spreads it into the call. A
statement runs as the body of its top-level expression, so `x = a + 1`,
`x = s[i]`, `x = -a` or `x = len(s)` makes two Python calls, the step and
the operator or builtin. Call sites bind their callee when the program is
compiled (`bind_call`); a call bound to a program function builds the
callee's environment in place and calls `run.run_fn`, the one hook
subclasses override, so a `.ml0` call level costs two Python frames
(`run_fn` and the statement's step). Nested, a body is its node's closure
`ev(run, env)` (`compile_expr`); a list and a leaf that no body reads
inline have closures of their own.
`CompiledProgram.reach` maps each function to the mutants whose choice
sites a call of it may run, for the memo.

A run's coverage is the point slots of its site events, built only where
it is read (`Outcome.covered_points`). On the original's run every site
execution records exactly one event; a mutant's run records one for each
execution of its own site and none for the others, so its coverage is at
most its own point.

After 8, then 9, 10, ... back edges a frame checks its state (pc, env)
against the last checkpoint: runs are deterministic, and a memo hit
returns what the call would (see `memo`), so a bit-identical state repeats
forever, and the run ends there as running to its budget would.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

from .errors import (
    MiniAssertionError, MiniRuntimeError, RunEnded, StepBudgetExceeded,
)
from .nodes import (
    Assert, Assign, Ast, BinOp, BoolOp, Call, Compare, Expr, ExprStmt,
    FunctionDef, If, Index, ListLit, Literal, Loc, ORIGINAL, Return, Stmt,
    TaintChoice, UnaryOp, Var, While,
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
    # test name -> the record of the test's taint root (`engine.RootRecord`),
    # kept by the first engine variant that runs the test so that every
    # later one replays it instead of running the root; a dict only while
    # an analysis runs two or more engine variants
    # (`strategies.analyze_program`), else None and nothing is recorded
    roots: dict | None = field(default=None, repr=False, compare=False)
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
        mutants.discard(ORIGINAL)
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
        if mid != ORIGINAL:
            program.mutants[mid] = e.point_id, OPERATORS[token]
    return OPERATORS[e.variants[ORIGINAL]]


def _operand(e: Expr, program: CompiledProgram) -> tuple:
    """How a node reads an operand inline: (name, None, None) for a `Var`,
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
    if isinstance(e, (UnaryOp, Call)):
        return _nonbinary(e, program)
    if isinstance(e, ListLit):
        items = [compile_expr(a, program) for a in e.items]
        return lambda run, env: tuple([a(run, env) for a in items])
    raise TypeError(f"cannot compile {e!r}")


def _illegal(kind: str, message: str, *args):
    """An illegal call's callee: it raises the call's error."""
    raise MiniRuntimeError(kind, message)


def bind_call(functions: dict, name: str, nargs: int) -> CompiledFn | Callable:
    """What a call of `name` with `nargs` arguments runs: the program
    function's `CompiledFn`, else a Python function of the arguments. That
    is the builtin's, or, when the call is illegal, `_illegal` bound to the
    kind and message of the `MiniRuntimeError` it raises once its arguments
    are evaluated. A program function hides a builtin of the same name."""
    fn = functions.get(name)
    if fn is not None:
        if nargs == len(fn.params):
            return fn
        return partial(_illegal, "arity", f"{name}() expected "
                       f"{len(fn.params)} arguments, got {nargs}")
    if name not in BUILTINS:
        return partial(_illegal, "name", f"unknown function {name!r}")
    builtin, lo, hi = BUILTINS[name]
    if nargs < lo or (hi is not None and nargs > hi):
        return partial(_illegal, "arity", f"{name}() got {nargs} arguments")
    return builtin


def _spread(callee: Callable, args: tuple):
    """A call of a Python function on the argument tuple of its site."""
    return callee(*args)


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
    next pc, `RETURN` or a back edge's `BACK - t`. The closure body of the
    top-level expression is the step itself (`_binary` or `_nonbinary`). A
    jump's step only goes to its target, and no other step returns a jump's
    pc."""
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
        make = _binary if isinstance(e, BINARY) else _nonbinary
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
            if n > run.budget:
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
        elif run.point == point:
            fn, events = run.kernel, run.events
        else:
            fn, events = op, run.every
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


def _nonbinary(e: Expr | None, program: CompiledProgram,
               kind: type | None = None, name: str | None = None,
               nxt: int | None = None, alt: int | None = None,
               loc: Loc | None = None) -> Callable:
    """The closure of `e`, a node that is not binary, or of no expression
    (a bare `return`). A call bound to a program function builds the
    callee's environment in place and enters `run.run_fn`. A unary
    operator or any other call (a builtin's, or an illegal call's,
    `bind_call`) reads its operand inline (`_operand`) and applies its
    function, with `e.loc` on the function's errors: a call of one argument
    reads the argument, a call of any other number the tuple of its
    arguments, built by the closure of their list, which `_spread` spreads
    into the callee. A `Var` or `Literal` is read as such an operand is.
    With no `kind` it is the closure `ev(run, env)` of a `UnaryOp` or a
    `Call`; with a `kind` it is the step of a statement of that kind whose
    top-level expression is `e`, and reads a list through its closure."""
    # `fn` is the callee of a program call, whose (parameter, argument
    # closure) pairs are `args`, or the function applied to `operand`
    fn = args = vname = value = ev = None
    operand = e
    if isinstance(e, UnaryOp):
        fn, operand = partial(values.unary_op, e.op), e.operand
    elif isinstance(e, Call):
        fn = bind_call(program.functions, e.name, len(e.args))
        if type(fn) is CompiledFn:
            program.found[1].add(fn.name)
            args = [(p, compile_expr(a, program))
                    for p, a in zip(fn.params, e.args)]
            operand = None
        elif len(e.args) == 1:
            operand, = e.args
        else:
            fn, operand = partial(_spread, fn), ListLit(e.loc, e.args)
    if operand is not None:
        vname, value, ev = _operand(operand, program)
    # read on errors only: one cell, not three
    at = getattr(e, "loc", None), getattr(operand, "loc", None), loc

    def step(run, env):
        if kind is not None:
            n = run.stmts + 1
            run.stmts = n
            if n > run.budget:
                raise StepBudgetExceeded()
        if args is not None:
            new = {}
            for p, a in args:
                new[p] = a(run, env)
            try:
                v = run.run_fn(fn, new)
            except MiniRuntimeError as err:
                err.loc = err.loc or at[0]
                raise
        else:
            if vname is not None:
                try:
                    v = env[vname]
                except KeyError:
                    raise _undefined(vname, at[1]) from None
            else:
                v = value if ev is None else ev(run, env)
            if fn is not None:
                try:
                    v = fn(v)
                except MiniRuntimeError as err:
                    err.loc = err.loc or at[0]
                    raise
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
            values.require_bool(v, "condition", at[2])
        if kind is Return:
            run.rv = v
            return RETURN
        if kind is Assert and v is not True:
            values.require_bool(v, "assert expression", at[2])
            raise MiniAssertionError(at[2])
        return nxt
    return step


# --- plain evaluation ---

@dataclass
class Outcome:
    """Result of one plain run of a test or entry function."""
    status: str           # 'pass' or the ending's `RunEnded.status`
    kind: str | None      # runtime-error kind when status == 'error'
    loc: Loc | None
    stmts: int
    # per site event: point_id, stmts_before, kind, value; a mutant's run
    # records only the events of its own site
    events: list
    value: object = None
    cause: str | None = None  # the ending's `RunEnded.cause`; None on pass

    @cached_property
    def covered_points(self) -> set[int]:
        """The point slots of `events`, built when first read: a run that
        records no events reports no coverage, and a mutant's run at most
        its own point."""
        return set(self.events[::4])


FIRST_GAP = 8  # back edges of a frame before its first loop checkpoint

# the step budget of a run whose caller sets none, such as an original's
HARD_BUDGET = 2_000_000


def budget_for(original_stmts: int, mult: int) -> int:
    """Step budget of every mutant execution, from the original's stmts."""
    return max(mult * original_stmts, 100)


class PlainRun:
    """Executes one variant: the choice site of mutant `select` applies its
    operator (`kernel` at `point`, both None for the original), every
    other site the original's.

    A frame is `run_fn` running its function's steps from any pc. The steps
    keep the run's state: they count `stmts` (a statement past `budget`
    raises `StepBudgetExceeded`), and leave a returned value in `rv`. With
    `record_events`, the run's own site appends its events to `events` and
    every other site to `every`, which is `events` on the original's run
    and None on a mutant's. `run_fn` itself counts the frame's
    back edges and calls `at_checkpoint` on schedule. Every call of a
    program function enters `run_fn` with the callee's new environment;
    subclasses override `run_fn` as a call hook, and nothing else."""

    def __init__(self, program: CompiledProgram, select: int = ORIGINAL,
                 budget: int = HARD_BUDGET, record_events: bool = False):
        self.program = program
        self.select = select
        self.point, self.kernel = program.mutants.get(select, (None, None))
        self.budget = budget
        self.stmts = 0
        self.events: list | None = [] if record_events else None
        # where the sites that are not the run's own record: only the
        # original's run records them
        self.every = self.events if select == ORIGINAL else None
        self.rv = None

    def call(self, name: str, args: list):
        """Call a function by name: `run_entry`'s way in. A compiled call
        site binds its callee once instead (`bind_call`)."""
        callee = bind_call(self.program.functions, name, len(args))
        if type(callee) is CompiledFn:
            return self.run_fn(callee, dict(zip(callee.params, args)))
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
        checkpoint (None before the first). A run whose state (pc, env) is
        bit-identical to the checkpoint's repeats forever and ends here
        (`run_to_budget`). Returns the new checkpoint and the back edges to
        the next, one more than before."""
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
              select: int = ORIGINAL, budget: int = HARD_BUDGET,
              record_events: bool = False) -> Outcome:
    """Run one entry function to an Outcome, read off its `RunEnded` if any."""
    run = PlainRun(program, select=select, budget=budget, record_events=record_events)
    events = run.events if record_events else []
    try:
        value = run.call(entry, args)
    except RunEnded as err:
        return Outcome(err.status, err.kind, err.loc, run.stmts, events,
                       cause=err.cause)
    return Outcome("pass", None, None, run.stmts, events, value)
