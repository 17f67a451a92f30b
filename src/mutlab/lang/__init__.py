from .errors import (
    MiniAssertionError, MiniRuntimeError, MiniSyntaxError, StepBudgetExceeded,
)
from .interp import (
    CompiledProgram, Outcome, PlainRun, compile_program, run_entry,
)
from .nodes import (
    Assert, Assign, Ast, BinOp, BoolOp, Call, Compare, Expr, ExprStmt,
    FunctionDef, If, Index, ListLit, Literal, Loc, Return, Stmt, TaintChoice,
    UnaryOp, Var, While,
)
from .parser import parse_program

__all__ = [
    "Assert", "Assign", "Ast", "BinOp", "BoolOp", "Call", "Compare",
    "CompiledProgram", "Expr", "ExprStmt", "FunctionDef", "If", "Index",
    "ListLit", "Literal", "Loc", "MiniAssertionError", "MiniRuntimeError",
    "MiniSyntaxError", "Outcome", "PlainRun", "Return", "StepBudgetExceeded",
    "Stmt", "TaintChoice", "UnaryOp", "Var", "While", "compile_program",
    "parse_program", "run_entry",
]
