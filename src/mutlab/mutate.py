"""Mutation-point discovery, mutant enumeration, and meta-mutant generation.

Every binary arithmetic or comparison operator occurrence is a mutation
point. The arithmetic class is 11-way ({+,-,*,/,%,<<,>>,|,^,&,//}); each
occurrence gets the other 10 operators as replacements. The comparison
class is 6-way; each occurrence gets the other 5. Type-incompatible
replacements (e.g. `<<` on a float) are generated anyway and die by
runtime exception.

Points are numbered by the one walk that rebuilds the tree
(`_transform_block`): `discover_mutation_points` and `generate_meta_mutant`
each pass it a `site(node) -> (point id, variants)` callback, so both see
the points in the same pre-order, each operator before its operands and
each statement's expression before its blocks. Mutant id 0 is the
original; ids 1..n number (point, replacement) pairs in (point order,
the order of `values.ARITH_OPS` or `COMPARE_OPS`).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .lang.nodes import (
    Assert, Assign, Ast, BinOp, BoolOp, Call, Compare, Expr, ExprStmt,
    FunctionDef, If, Index, ListLit, Loc, ORIGINAL, Return, Stmt, TaintChoice,
    UnaryOp, While,
)
from .lang.values import ARITH_OPS, COMPARE_OPS


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


def discover_mutation_points(ast: Ast) -> list[MutationPoint]:
    """The points in the order `_transform_block` reaches them; the tree
    it builds is thrown away."""
    points: list[MutationPoint] = []

    def site(node: BinOp | Compare) -> tuple[int, dict]:
        if isinstance(node, Compare):
            op_class, catalog = "comparison", COMPARE_OPS
        else:
            op_class, catalog = "arithmetic", ARITH_OPS
        repls = tuple(op for op in catalog if op != node.op)
        points.append(MutationPoint(len(points), node.loc, op_class, node.op, repls))
        return len(points) - 1, {}

    for fn in ast.functions:
        _transform_block(fn.body, site)
    return points


def enumerate_mutants(points: list[MutationPoint]) -> list[Mutant]:
    mutants = []
    for p in points:
        for op in p.replacements:
            mutants.append(Mutant(len(mutants) + 1, p.point_id, p.loc,
                                  p.original_op, op))
    return mutants


def _transform_expr(e: Expr, site) -> Expr:
    """A new expression with every BinOp/Compare, in pre-order (operator
    before operands), replaced by a TaintChoice whose point id and variants
    `site(node)` gives; `Literal` and `Var` leaves are shared, not copied."""
    if isinstance(e, (BinOp, Compare)):
        point_id, variants = site(e)
        left = _transform_expr(e.left, site)
        return TaintChoice(e.loc, point_id, variants, left,
                           _transform_expr(e.right, site))
    if isinstance(e, BoolOp):
        left = _transform_expr(e.left, site)
        return BoolOp(e.loc, e.op, left, _transform_expr(e.right, site))
    if isinstance(e, UnaryOp):
        return UnaryOp(e.loc, e.op, _transform_expr(e.operand, site))
    if isinstance(e, Index):
        base = _transform_expr(e.base, site)
        return Index(e.loc, base, _transform_expr(e.index, site))
    if isinstance(e, Call):
        return Call(e.loc, e.name, [_transform_expr(a, site) for a in e.args])
    if isinstance(e, ListLit):
        return ListLit(e.loc, [_transform_expr(a, site) for a in e.items])
    return e


def _transform_block(body: list[Stmt], site) -> list[Stmt]:
    """A new statement list with every expression transformed, each
    statement's expression before its blocks."""
    out = []
    for s in body:
        if isinstance(s, Assign):
            s = Assign(s.loc, s.name, _transform_expr(s.value, site))
        elif isinstance(s, Return):
            s = Return(s.loc, None if s.value is None
                       else _transform_expr(s.value, site))
        elif isinstance(s, Assert):
            s = Assert(s.loc, _transform_expr(s.test, site))
        elif isinstance(s, ExprStmt):
            s = ExprStmt(s.loc, _transform_expr(s.value, site))
        elif isinstance(s, If):
            s = If(s.loc, _transform_expr(s.cond, site),
                   _transform_block(s.then_body, site),
                   _transform_block(s.else_body, site))
        elif isinstance(s, While):
            s = While(s.loc, _transform_expr(s.cond, site),
                      _transform_block(s.body, site))
        out.append(s)
    return out


def generate_meta_mutant(ast: Ast, points: list[MutationPoint],
                         mutants: list[Mutant]) -> Ast:
    """Returns a new AST where each mutated operator occurrence is a
    TaintChoice. Statements and compound expressions are rebuilt and the
    immutable leaves shared, so the input AST is left untouched without a
    deep copy."""
    by_point: dict[int, list[Mutant]] = {}
    for m in mutants:
        by_point.setdefault(m.point_id, []).append(m)
    counter = itertools.count()

    def site(node: BinOp | Compare) -> tuple[int, dict]:
        point_id = next(counter)
        variants = {ORIGINAL: node.op}
        for m in by_point.get(point_id, ()):
            variants[m.mid] = m.replacement_op
        return point_id, variants

    meta = Ast([FunctionDef(fn.name, list(fn.params),
                            _transform_block(fn.body, site), fn.loc)
                for fn in ast.functions])
    if next(counter) != len(points):
        raise RuntimeError("mutation points were not discovered from this AST")
    return meta


def mutant_catalog_lines(mutants: list[Mutant]) -> list[str]:
    """`mutants list` CLI body: one stable line per mutant."""
    return [f"M{m.mid} {m.loc} {m.original_op} -> {m.replacement_op}"
            for m in mutants]
