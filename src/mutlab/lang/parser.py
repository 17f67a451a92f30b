"""Recursive-descent parser producing the mini-language AST.

Grammar is newline/indent delimited. Only `def` blocks may appear at the
top level; `elif` chains are desugared into nested if/else. Augmented
assignments desugar into `x = x <op> e`.
"""

from __future__ import annotations

from .errors import MiniSyntaxError
from .lexer import Token, tokenize
from .nodes import (
    Assert, Assign, Ast, BinOp, BoolOp, Call, Compare, Expr, ExprStmt,
    FunctionDef, If, Index, ListLit, Literal, Loc, Return, Stmt, UnaryOp,
    Var, While,
)

AUG_OPS = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "//=": "//", "%=": "%"}
COMPARE_OPS = {"==", "!=", "<", "<=", ">", ">="}


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # --- token helpers ---

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, value):
            want = value or kind
            raise MiniSyntaxError(f"expected {want!r}, found {tok.value or tok.kind!r}",
                                  tok.line, tok.col)
        return self.next()

    def err(self, message: str) -> MiniSyntaxError:
        tok = self.peek()
        return MiniSyntaxError(message, tok.line, tok.col)

    # --- top level ---

    def parse_program(self) -> Ast:
        functions: list[FunctionDef] = []
        names: set[str] = set()
        while not self.at("EOF"):
            if self.at("KEYWORD", "def"):
                fn = self.parse_funcdef()
                if fn.name in names:
                    raise MiniSyntaxError(f"duplicate function {fn.name!r}",
                                          fn.loc.line, fn.loc.col)
                names.add(fn.name)
                functions.append(fn)
            else:
                raise self.err("top-level statement outside a function")
        return Ast(functions)

    def parse_funcdef(self) -> FunctionDef:
        tok = self.expect("KEYWORD", "def")
        name = self.expect("NAME").value
        self.expect("OP", "(")
        params: list[str] = []
        if not self.at("OP", ")"):
            params.append(self.expect("NAME").value)
            while self.at("OP", ","):
                self.next()
                params.append(self.expect("NAME").value)
        self.expect("OP", ")")
        if len(set(params)) != len(params):
            raise MiniSyntaxError("duplicate parameter name", tok.line, tok.col)
        self.expect("OP", ":")
        body = self.parse_block()
        return FunctionDef(name, params, body, Loc(tok.line, tok.col))

    def parse_block(self) -> list[Stmt]:
        self.expect("NEWLINE")
        self.expect("INDENT")
        body: list[Stmt] = []
        while not self.at("DEDENT"):
            body.append(self.parse_stmt())
        self.expect("DEDENT")
        return body

    # --- statements ---

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        loc = Loc(tok.line, tok.col)
        if self.at("KEYWORD", "if"):
            return self.parse_if()
        if self.at("KEYWORD", "while"):
            self.next()
            cond = self.parse_expr()
            self.expect("OP", ":")
            return While(loc, cond, self.parse_block())
        if self.at("KEYWORD", "return"):
            self.next()
            value = None if self.at("NEWLINE") else self.parse_expr()
            self.expect("NEWLINE")
            return Return(loc, value)
        if self.at("KEYWORD", "assert"):
            self.next()
            test = self.parse_expr()
            self.expect("NEWLINE")
            return Assert(loc, test)
        if self.at("KEYWORD", "def"):
            raise self.err("nested function definitions are not allowed")
        # assignment or expression statement
        if tok.kind == "NAME":
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "OP" and nxt.value == "=":
                name = self.next().value
                self.next()
                value = self.parse_expr()
                self.expect("NEWLINE")
                return Assign(loc, name, value)
            if nxt.kind == "OP" and nxt.value in AUG_OPS:
                name = self.next().value
                op = AUG_OPS[self.next().value]
                rhs = self.parse_expr()
                self.expect("NEWLINE")
                return Assign(loc, name, BinOp(loc, op, Var(loc, name), rhs))
        value = self.parse_expr()
        self.expect("NEWLINE")
        return ExprStmt(loc, value)

    def parse_if(self) -> Stmt:
        tok = self.expect("KEYWORD", "if")
        loc = Loc(tok.line, tok.col)
        cond = self.parse_expr()
        self.expect("OP", ":")
        then_body = self.parse_block()
        else_body: list[Stmt] = []
        if self.at("KEYWORD", "elif"):
            elif_tok = self.peek()
            self.tokens[self.pos] = Token("KEYWORD", "if", elif_tok.line, elif_tok.col)
            else_body = [self.parse_if()]
        elif self.at("KEYWORD", "else"):
            self.next()
            self.expect("OP", ":")
            else_body = self.parse_block()
        return If(loc, cond, then_body, else_body)

    # --- expressions (precedence climbing) ---

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.at("KEYWORD", "or"):
            tok = self.next()
            right = self.parse_and()
            left = BoolOp(Loc(tok.line, tok.col), "or", left, right)
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.at("KEYWORD", "and"):
            tok = self.next()
            right = self.parse_not()
            left = BoolOp(Loc(tok.line, tok.col), "and", left, right)
        return left

    def parse_not(self) -> Expr:
        if self.at("KEYWORD", "not"):
            tok = self.next()
            return UnaryOp(Loc(tok.line, tok.col), "not", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_bitor()
        if self.peek().kind == "OP" and self.peek().value in COMPARE_OPS:
            tok = self.next()
            right = self.parse_bitor()
            return Compare(Loc(tok.line, tok.col), tok.value, left, right)
        return left

    def _binop_level(self, ops: set[str], sub) -> Expr:
        left = sub()
        while self.peek().kind == "OP" and self.peek().value in ops:
            tok = self.next()
            right = sub()
            left = BinOp(Loc(tok.line, tok.col), tok.value, left, right)
        return left

    def parse_bitor(self) -> Expr:
        return self._binop_level({"|"}, self.parse_bitxor)

    def parse_bitxor(self) -> Expr:
        return self._binop_level({"^"}, self.parse_bitand)

    def parse_bitand(self) -> Expr:
        return self._binop_level({"&"}, self.parse_shift)

    def parse_shift(self) -> Expr:
        return self._binop_level({"<<", ">>"}, self.parse_arith)

    def parse_arith(self) -> Expr:
        return self._binop_level({"+", "-"}, self.parse_term)

    def parse_term(self) -> Expr:
        return self._binop_level({"*", "/", "//", "%"}, self.parse_unary)

    def parse_unary(self) -> Expr:
        if self.at("OP", "-"):
            tok = self.next()
            return UnaryOp(Loc(tok.line, tok.col), "-", self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_atom()
        while True:
            if self.at("OP", "("):
                if not isinstance(expr, Var):
                    raise self.err("only names can be called")
                self.next()
                args: list[Expr] = []
                if not self.at("OP", ")"):
                    args.append(self.parse_expr())
                    while self.at("OP", ","):
                        self.next()
                        args.append(self.parse_expr())
                self.expect("OP", ")")
                expr = Call(expr.loc, expr.name, args)
            elif self.at("OP", "["):
                tok = self.next()
                index = self.parse_expr()
                self.expect("OP", "]")
                expr = Index(Loc(tok.line, tok.col), expr, index)
            else:
                return expr

    def parse_atom(self) -> Expr:
        tok = self.peek()
        loc = Loc(tok.line, tok.col)
        if tok.kind == "INT":
            self.next()
            return Literal(loc, int(tok.value))
        if tok.kind == "FLOAT":
            self.next()
            return Literal(loc, float(tok.value))
        if tok.kind == "STRING":
            self.next()
            return Literal(loc, tok.value)
        if tok.kind == "KEYWORD" and tok.value in ("True", "False"):
            self.next()
            return Literal(loc, tok.value == "True")
        if tok.kind == "NAME":
            self.next()
            return Var(loc, tok.value)
        if self.at("OP", "("):
            self.next()
            expr = self.parse_expr()
            self.expect("OP", ")")
            return expr
        if self.at("OP", "["):
            self.next()
            items: list[Expr] = []
            if not self.at("OP", "]"):
                items.append(self.parse_expr())
                while self.at("OP", ","):
                    self.next()
                    items.append(self.parse_expr())
            self.expect("OP", "]")
            return ListLit(loc, items)
        raise self.err(f"unexpected token {tok.value or tok.kind!r}")


def parse_program(source: str) -> Ast:
    return Parser(tokenize(source)).parse_program()
