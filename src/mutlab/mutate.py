"""Mutation-point discovery, mutant enumeration, and meta-mutant generation.

Every binary arithmetic or comparison operator occurrence is a mutation
point. The arithmetic class is 11-way ({+,-,*,/,%,<<,>>,|,^,&,//}); each
occurrence gets the other 10 operators as replacements. The comparison
class is 6-way; each occurrence gets the other 5. Type-incompatible
replacements (e.g. `<<` on a float) are generated anyway and die by
runtime exception.

Points are numbered in one recursive pre-order walk, the order in which
`generate_meta_mutant` rebuilds the tree. Mutant id 0 is the original; ids
1..n number (point, replacement) pairs in (point order, catalog order).
"""

from __future__ import annotations

from typing import NamedTuple

from .lang.nodes import (
    Assert, Assign, Ast, BinOp, BoolOp, Call, Compare, Expr, ExprStmt,
    FunctionDef, If, Index, ListLit, Loc, Return, Stmt, TaintChoice, UnaryOp,
    While,
)

ARITH_CATALOG = ["+", "-", "*", "/", "%", "<<", ">>", "|", "^", "&", "//"]
COMPARE_CATALOG = ["==", "!=", "<", "<=", ">", ">="]

ORIGINAL = 0  # mutant id of the unmutated program


class MutationPoint(NamedTuple):
    point_id: int
    loc: Loc
    op_class: str  # 'arithmetic' | 'comparison'
    original_op: str
    replacements: tuple[str, ...]


class Mutant(NamedTuple):
    mid: int
    point_id: int
    loc: Loc
    original_op: str
    replacement_op: str


def _expr_points(e: Expr, out: list) -> None:
    """Appends the BinOp/Compare nodes of `e` in pre-order (operator before
    operands, matching source reading order)."""
    if isinstance(e, (BinOp, Compare)):
        out.append(e)
        _expr_points(e.left, out)
        _expr_points(e.right, out)
    elif isinstance(e, BoolOp):
        _expr_points(e.left, out)
        _expr_points(e.right, out)
    elif isinstance(e, UnaryOp):
        _expr_points(e.operand, out)
    elif isinstance(e, Index):
        _expr_points(e.base, out)
        _expr_points(e.index, out)
    elif isinstance(e, (Call, ListLit)):
        for a in e.args if isinstance(e, Call) else e.items:
            _expr_points(a, out)


def _block_points(body: list[Stmt], out: list) -> None:
    """The same for a statement list, each statement's expression before
    its blocks."""
    for s in body:
        if isinstance(s, Assert):
            _expr_points(s.test, out)
        elif isinstance(s, If):
            _expr_points(s.cond, out)
            _block_points(s.then_body, out)
            _block_points(s.else_body, out)
        elif isinstance(s, While):
            _expr_points(s.cond, out)
            _block_points(s.body, out)
        elif s.value is not None:  # Assign, Return, ExprStmt
            _expr_points(s.value, out)


def discover_mutation_points(ast: Ast) -> list[MutationPoint]:
    nodes: list[BinOp | Compare] = []
    for fn in ast.functions:
        _block_points(fn.body, nodes)
    points = []
    for node in nodes:
        if isinstance(node, Compare):
            op_class, catalog = "comparison", COMPARE_CATALOG
        else:
            op_class, catalog = "arithmetic", ARITH_CATALOG
        repls = tuple(op for op in catalog if op != node.op)
        points.append(MutationPoint(len(points), node.loc, op_class, node.op, repls))
    return points


def enumerate_mutants(points: list[MutationPoint]) -> list[Mutant]:
    mutants = []
    for p in points:
        for op in p.replacements:
            mutants.append(Mutant(len(mutants) + 1, p.point_id, p.loc,
                                  p.original_op, op))
    return mutants


def _transform_expr(e: Expr, by_point: dict[int, list[Mutant]],
                    counter: list[int]) -> Expr:
    """A new expression with every BinOp/Compare, in pre-order, replaced by
    a TaintChoice; `Literal` and `Var` leaves are shared, not copied."""
    if isinstance(e, (BinOp, Compare)):
        point_id = counter[0]
        counter[0] += 1
        variants = {ORIGINAL: e.op}
        for m in by_point.get(point_id, ()):
            variants[m.mid] = m.replacement_op
        left = _transform_expr(e.left, by_point, counter)
        return TaintChoice(e.loc, point_id, variants, left,
                           _transform_expr(e.right, by_point, counter))
    if isinstance(e, BoolOp):
        left = _transform_expr(e.left, by_point, counter)
        return BoolOp(e.loc, e.op, left,
                      _transform_expr(e.right, by_point, counter))
    if isinstance(e, UnaryOp):
        return UnaryOp(e.loc, e.op, _transform_expr(e.operand, by_point, counter))
    if isinstance(e, Index):
        base = _transform_expr(e.base, by_point, counter)
        return Index(e.loc, base, _transform_expr(e.index, by_point, counter))
    if isinstance(e, Call):
        return Call(e.loc, e.name, [_transform_expr(a, by_point, counter)
                                    for a in e.args])
    if isinstance(e, ListLit):
        return ListLit(e.loc, [_transform_expr(a, by_point, counter)
                               for a in e.items])
    return e


def _transform_block(body: list[Stmt], by_point, counter) -> list[Stmt]:
    """A new statement list with every expression transformed."""
    out = []
    for s in body:
        if isinstance(s, Assign):
            s = Assign(s.loc, s.name, _transform_expr(s.value, by_point, counter))
        elif isinstance(s, Return):
            s = Return(s.loc, None if s.value is None
                       else _transform_expr(s.value, by_point, counter))
        elif isinstance(s, Assert):
            s = Assert(s.loc, _transform_expr(s.test, by_point, counter))
        elif isinstance(s, ExprStmt):
            s = ExprStmt(s.loc, _transform_expr(s.value, by_point, counter))
        elif isinstance(s, If):
            s = If(s.loc, _transform_expr(s.cond, by_point, counter),
                   _transform_block(s.then_body, by_point, counter),
                   _transform_block(s.else_body, by_point, counter))
        elif isinstance(s, While):
            s = While(s.loc, _transform_expr(s.cond, by_point, counter),
                      _transform_block(s.body, by_point, counter))
        out.append(s)
    return out


def generate_meta_mutant(ast: Ast, points: list[MutationPoint],
                         mutants: list[Mutant] | None = None) -> Ast:
    """Returns a new AST where each mutated operator occurrence is a
    TaintChoice. Statements and compound expressions are rebuilt and the
    immutable leaves shared, so the input AST is left untouched without a
    deep copy."""
    if mutants is None:
        mutants = enumerate_mutants(points)
    by_point: dict[int, list[Mutant]] = {}
    for m in mutants:
        by_point.setdefault(m.point_id, []).append(m)
    counter = [0]
    meta = Ast([FunctionDef(fn.name, list(fn.params),
                            _transform_block(fn.body, by_point, counter), fn.loc)
                for fn in ast.functions])
    if counter[0] != len(points):
        raise RuntimeError("mutation points were not discovered from this AST")
    return meta


def mutant_catalog_lines(mutants: list[Mutant]) -> list[str]:
    """`mutants list` CLI body: one stable line per mutant."""
    return [f"M{m.mid} {m.loc} {m.original_op} -> {m.replacement_op}"
            for m in mutants]
