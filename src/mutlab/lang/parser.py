"""Recursive-descent parser producing the mini-language AST.

Grammar is newline/indent delimited. Only `def` blocks may appear at the
top level; `elif` chains are desugared into nested if/else. Augmented
assignments desugar into `x = x <op> e`. Expressions are parsed by one
precedence-climbing loop over `PRECEDENCE` with an operator stack, so only
brackets recurse. Binary operators associate to the left, `a < b < c` is
an error at the second `<`, `not` binds looser than a comparison and `-`
tighter than any binary operator. Every later pass walks the tree
recursively, so two limits keep expressions within Python's recursion
limit: at most `MAX_NESTING` brackets, call argument lists and unary
operators may be open at once, and no expression tree may be more than
`MAX_DEPTH` nodes deep (a variable or literal is 1 deep, any other node
1 more than its deepest operand, so `x + x + x` is 3 deep). The parser
keeps the depth of every operand it holds, so the check is O(1) per node.
Statements recurse too: at most `MAX_BLOCK_DEPTH` `if`, `elif` and
`while` blocks may be open at once, an `elif` being an `if` in an `else`.
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
AND_PREC = 2  # `and`, and `or` below it: the boolean operators
NOT_PREC = 3  # the prefix `not`: between `and` and the comparisons
COMPARE_PREC = 4
PRECEDENCE = {
    "or": 1, "and": AND_PREC,
    "==": COMPARE_PREC, "!=": COMPARE_PREC, "<": COMPARE_PREC,
    "<=": COMPARE_PREC, ">": COMPARE_PREC, ">=": COMPARE_PREC,
    "|": 5, "^": 6, "&": 7, "<<": 8, ">>": 8,
    "+": 9, "-": 9, "*": 10, "/": 10, "//": 10, "%": 10,
}
OPERATOR_KINDS = {"OP", "KEYWORD"}  # `and`/`or` are keywords
LITERALS = {"INT": int, "FLOAT": float, "STRING": str}
MAX_NESTING = 100  # open brackets, call argument lists and unary operators
MAX_DEPTH = 200  # nodes from an expression's root to its deepest leaf
MAX_BLOCK_DEPTH = 100  # open `if`, `elif` and `while` blocks


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses, brackets and unary operators
        self.height = 0  # tree depth of the last expression parsed
        self.blocks = 0  # open `if`, `elif` and `while` blocks

    # --- token helpers ---

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (value is None or tok.value == value)

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value or kind
            raise MiniSyntaxError(f"expected {want!r}, found {tok.value or tok.kind!r}",
                                  tok.line, tok.col)
        self.pos += 1
        return tok

    def err(self, message: str) -> MiniSyntaxError:
        tok = self.peek()
        return MiniSyntaxError(message, tok.line, tok.col)

    def enter(self, tok: Token) -> None:
        """Opens one nesting level at `tok`; `depth -= 1` closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise MiniSyntaxError(f"nesting deeper than {MAX_NESTING} levels",
                                  tok.line, tok.col)

    def deeper(self, height: int, tok: Token) -> int:
        """`height`, the depth of a node built at `tok`, if it is allowed."""
        if height > MAX_DEPTH:
            raise MiniSyntaxError(
                f"expression deeper than {MAX_DEPTH} levels", tok.line, tok.col)
        return height

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
        if tok.kind == "KEYWORD" and tok.value in ("if", "while"):
            self.blocks += 1
            if self.blocks > MAX_BLOCK_DEPTH:
                raise self.err(f"blocks nested deeper than {MAX_BLOCK_DEPTH} levels")
            self.next()
            cond = self.parse_expr()
            self.expect("OP", ":")
            body = self.parse_block()
            stmt = (While(loc, cond, body) if tok.value == "while" else
                    If(loc, cond, body, self.parse_else()))
            self.blocks -= 1
            return stmt
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

    def parse_else(self) -> list[Stmt]:
        """An `if`'s `else` block, an `elif` as an `if` inside it, or none."""
        if self.at("KEYWORD", "elif"):
            elif_tok = self.peek()
            self.tokens[self.pos] = Token("KEYWORD", "if", elif_tok.line, elif_tok.col)
            return [self.parse_stmt()]
        if self.at("KEYWORD", "else"):
            self.next()
            self.expect("OP", ":")
            return self.parse_block()
        return []

    # --- expressions ---

    def parse_expr(self) -> Expr:
        tokens = self.tokens
        operands: list[Expr] = []
        heights: list[int] = []  # the tree depth of each operand
        pending: list[tuple[int, Token]] = []  # (precedence, operator token)
        prec = 0  # of the operator before the operand; 0 at the start
        compared = False  # the operands since `and`/`or` hold a comparison
        while True:
            if prec <= AND_PREC:  # `not`s may start an operand of `and`/`or`
                while (tok := tokens[self.pos]).value == "not" \
                        and tok.kind == "KEYWORD":
                    self.enter(tok)
                    self.pos += 1
                    pending.append((NOT_PREC, tok))
            operands.append(self.parse_unary())
            heights.append(self.height)
            tok = tokens[self.pos]
            prec = PRECEDENCE.get(tok.value) if tok.kind in OPERATOR_KINDS else None
            if prec is None:
                break
            if prec == COMPARE_PREC:
                if compared:
                    break
                compared = True
            elif prec <= AND_PREC:
                compared = False
            while pending and pending[-1][0] >= prec:
                self._reduce(operands, heights, pending.pop())
            self.pos += 1
            pending.append((prec, tok))
        while pending:
            self._reduce(operands, heights, pending.pop())
        self.height = heights[0]
        return operands[0]

    def _reduce(self, operands: list[Expr], heights: list[int],
                pending: tuple[int, Token]) -> None:
        prec, tok = pending
        loc = Loc(tok.line, tok.col)
        if prec == NOT_PREC:
            self.depth -= 1
            operands[-1] = UnaryOp(loc, "not", operands[-1])
            height = heights[-1] + 1
        else:
            right = operands.pop()
            node = (Compare if prec == COMPARE_PREC else
                    BoolOp if prec <= AND_PREC else BinOp)
            operands[-1] = node(loc, tok.value, operands[-1], right)
            height = heights.pop()
            if height < heights[-1]:
                height = heights[-1]
            height += 1
        heights[-1] = height if height <= MAX_DEPTH else self.deeper(height, tok)

    def parse_unary(self) -> Expr:
        """Prefix `-`s, then an atom with its calls and indexes. Sets
        `height` to the result's tree depth."""
        tokens = self.tokens
        minus: list[Token] = []
        while (tok := tokens[self.pos]).value == "-" and tok.kind == "OP":
            self.enter(tok)
            self.pos += 1
            minus.append(tok)
        expr = self.parse_atom()
        while (tok := tokens[self.pos]).kind == "OP":
            if tok.value == "(":
                if not isinstance(expr, Var):
                    raise self.err("only names can be called")
                expr = Call(expr.loc, expr.name, self.parse_list(")"))
            elif tok.value == "[":
                height = self.height
                expr = Index(Loc(tok.line, tok.col), expr, self.parse_inner("]"))
                self.height = max(self.height, height)
            else:
                break
            self.height = self.deeper(self.height + 1, tok)
        for tok in reversed(minus):
            expr = UnaryOp(Loc(tok.line, tok.col), "-", expr)
            self.height = self.deeper(self.height + 1, tok)
        self.depth -= len(minus)
        return expr

    def parse_inner(self, close: str) -> Expr:
        """The expression from the opening bracket at the current token up
        to `close`."""
        self.enter(self.next())
        expr = self.parse_expr()
        self.expect("OP", close)
        self.depth -= 1
        return expr

    def parse_list(self, close: str) -> list[Expr]:
        """The comma-separated expressions from the opening bracket at the
        current token up to `close`; `height` is their greatest depth (0
        for none)."""
        self.enter(self.next())
        items: list[Expr] = []
        height = 0
        if not self.at("OP", close):
            items.append(self.parse_expr())
            height = self.height
            while self.at("OP", ","):
                self.next()
                items.append(self.parse_expr())
                height = max(height, self.height)
        self.expect("OP", close)
        self.depth -= 1
        self.height = height
        return items

    def parse_atom(self) -> Expr:
        tok = self.tokens[self.pos]
        loc = Loc(tok.line, tok.col)
        kind = tok.kind
        self.height = 1
        if kind == "NAME":
            self.pos += 1
            return Var(loc, tok.value)
        if kind in LITERALS:
            self.pos += 1
            try:
                return Literal(loc, LITERALS[kind](tok.value))
            except ValueError:  # an int of more digits than int() converts
                raise MiniSyntaxError(
                    f"integer literal of {len(tok.value)} digits is too long",
                    tok.line, tok.col) from None
        if kind == "KEYWORD" and tok.value in ("True", "False"):
            self.pos += 1
            return Literal(loc, tok.value == "True")
        if kind == "OP" and tok.value == "(":
            return self.parse_inner(")")
        if kind == "OP" and tok.value == "[":
            items = self.parse_list("]")
            self.height = self.deeper(self.height + 1, tok)
            return ListLit(loc, items)
        raise self.err(f"unexpected token {tok.value or tok.kind!r}")


def parse_program(source: str) -> Ast:
    return Parser(tokenize(source)).parse_program()
