"""AST node definitions for the .ml0 mini-language.

Every statement node carries a (line, column) location. Augmented
assignments are desugared by the parser into `Assign` nodes whose value is
a `BinOp` on the target variable, with `is_aug` set so the printer can
restore the short form.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Loc:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# --- expressions ---

@dataclass
class Expr:
    loc: Loc


@dataclass
class Literal(Expr):
    value: object  # int | float | bool | str


@dataclass
class Var(Expr):
    name: str


@dataclass
class UnaryOp(Expr):
    op: str  # '-' or 'not'
    operand: Expr


@dataclass
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Compare(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class BoolOp(Expr):
    op: str  # 'and' | 'or'; both operands always evaluated (no short-circuit)
    left: Expr
    right: Expr


@dataclass
class Call(Expr):
    name: str
    args: list[Expr]


@dataclass
class ListLit(Expr):
    items: list[Expr]


@dataclass
class Index(Expr):
    base: Expr
    index: Expr


# --- meta-mutant expression nodes ---

@dataclass
class TaintChoice(Expr):
    """A mutated operator occurrence: the original op plus per-mutant variants.

    `variants` maps mutant id -> operator token and always contains 0 (the
    original operator). `kind` is 'bin' or 'cmp'.
    """
    kind: str
    point_id: int
    variants: dict[int, str]
    left: Expr
    right: Expr

    @property
    def original_op(self) -> str:
        return self.variants[0]


@dataclass
class TaintedCond(Expr):
    """Wraps every branch/loop condition; divergence is detected here."""
    cond: Expr


# --- statements ---

@dataclass
class Stmt:
    loc: Loc


@dataclass
class Assign(Stmt):
    name: str
    value: Expr
    aug_op: str | None = None  # set when written as an augmented assignment


@dataclass
class Return(Stmt):
    value: Expr | None


@dataclass
class Assert(Stmt):
    test: Expr


@dataclass
class ExprStmt(Stmt):
    value: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then_body: list[Stmt]
    else_body: list[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    cond: Expr
    body: list[Stmt]


@dataclass
class FunctionDef:
    name: str
    params: list[str]
    body: list[Stmt]
    loc: Loc
    wrapped: bool = False  # set on meta-mutant functions

    @property
    def is_test(self) -> bool:
        return self.name.startswith("test_")


@dataclass
class Ast:
    functions: list[FunctionDef]

    def function(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)

    @property
    def tests(self) -> list[str]:
        return [f.name for f in self.functions if f.is_test]


def walk_exprs(e: Expr):
    """Pre-order traversal of an expression tree."""
    yield e
    if isinstance(e, UnaryOp):
        yield from walk_exprs(e.operand)
    elif isinstance(e, (BinOp, Compare, BoolOp)):
        yield from walk_exprs(e.left)
        yield from walk_exprs(e.right)
    elif isinstance(e, TaintChoice):
        yield from walk_exprs(e.left)
        yield from walk_exprs(e.right)
    elif isinstance(e, TaintedCond):
        yield from walk_exprs(e.cond)
    elif isinstance(e, Call):
        for a in e.args:
            yield from walk_exprs(a)
    elif isinstance(e, ListLit):
        for a in e.items:
            yield from walk_exprs(a)
    elif isinstance(e, Index):
        yield from walk_exprs(e.base)
        yield from walk_exprs(e.index)


def walk_stmts(body: list[Stmt]):
    """Pre-order traversal of statements, recursing into blocks."""
    for s in body:
        yield s
        if isinstance(s, If):
            yield from walk_stmts(s.then_body)
            yield from walk_stmts(s.else_body)
        elif isinstance(s, While):
            yield from walk_stmts(s.body)
