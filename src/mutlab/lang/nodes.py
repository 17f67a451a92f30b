"""AST node definitions for the .ml0 mini-language.

Every statement node carries a (line, column) location. Augmented
assignments are desugared by the parser into `Assign` nodes whose value is
a `BinOp` on the target variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class Loc(NamedTuple):
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


# --- meta-mutant expression node ---

ORIGINAL = 0  # mutant id of the unmutated program


@dataclass
class TaintChoice(Expr):
    """A mutated operator occurrence: the original op plus per-mutant variants.

    `variants` maps mutant id -> operator token and always contains
    ORIGINAL (the original operator).
    """
    point_id: int
    variants: dict[int, str]
    left: Expr
    right: Expr


# --- statements ---

@dataclass
class Stmt:
    loc: Loc


@dataclass
class Assign(Stmt):
    name: str
    value: Expr


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

    @property
    def is_test(self) -> bool:
        return self.name.startswith("test_")


@dataclass
class Ast:
    functions: list[FunctionDef]

    @property
    def tests(self) -> list[str]:
        return [f.name for f in self.functions if f.is_test]

