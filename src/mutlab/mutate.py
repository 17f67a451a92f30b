"""Mutation-point discovery, mutant enumeration, and meta-mutant generation.

Every binary arithmetic or comparison operator occurrence is a mutation
point. The arithmetic class is 11-way ({+,-,*,/,%,<<,>>,|,^,&,//}); each
occurrence gets the other 10 operators as replacements. The comparison
class is 6-way; each occurrence gets the other 5. Type-incompatible
replacements (e.g. `<<` on a float) are generated anyway and die by
runtime exception.

Mutant id 0 is the original; ids 1..n number (point, replacement) pairs in
(point order, catalog order).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .lang.nodes import (
    Assert, Assign, Ast, BinOp, Compare, Expr, ExprStmt, FunctionDef, If,
    Loc, Return, Stmt, TaintChoice, TaintedCond, While,
)

ARITH_CATALOG = ["+", "-", "*", "/", "%", "<<", ">>", "|", "^", "&", "//"]
COMPARE_CATALOG = ["==", "!=", "<", "<=", ">", ">="]

ORIGINAL = 0  # mutant id of the unmutated program


@dataclass(frozen=True)
class MutationPoint:
    point_id: int
    loc: Loc
    op_class: str  # 'arithmetic' | 'comparison'
    original_op: str
    replacements: tuple[str, ...]


@dataclass(frozen=True)
class Mutant:
    mid: int
    point_id: int
    loc: Loc
    original_op: str
    replacement_op: str


def _walk_expr_binops(e: Expr):
    """Pre-order walk yielding BinOp/Compare nodes (operator before operands,
    matching source reading order)."""
    from .lang.nodes import BoolOp, Call, Index, ListLit, UnaryOp

    if isinstance(e, (BinOp, Compare)):
        yield e
        yield from _walk_expr_binops(e.left)
        yield from _walk_expr_binops(e.right)
    elif isinstance(e, BoolOp):
        yield from _walk_expr_binops(e.left)
        yield from _walk_expr_binops(e.right)
    elif isinstance(e, UnaryOp):
        yield from _walk_expr_binops(e.operand)
    elif isinstance(e, Call):
        for a in e.args:
            yield from _walk_expr_binops(a)
    elif isinstance(e, ListLit):
        for a in e.items:
            yield from _walk_expr_binops(a)
    elif isinstance(e, Index):
        yield from _walk_expr_binops(e.base)
        yield from _walk_expr_binops(e.index)


def _stmt_exprs(s: Stmt):
    if isinstance(s, Assign):
        yield s.value
    elif isinstance(s, Return):
        if s.value is not None:
            yield s.value
    elif isinstance(s, Assert):
        yield s.test
    elif isinstance(s, ExprStmt):
        yield s.value
    elif isinstance(s, If):
        yield s.cond
    elif isinstance(s, While):
        yield s.cond


def _walk_points(ast: Ast):
    from .lang.nodes import walk_stmts

    for fn in ast.functions:
        for s in walk_stmts(fn.body):
            for e in _stmt_exprs(s):
                yield from _walk_expr_binops(e)


def discover_mutation_points(ast: Ast) -> list[MutationPoint]:
    points = []
    for node in _walk_points(ast):
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


def _transform_expr(e: Expr, points: list[MutationPoint],
                    mutants_by_point: dict[int, list[Mutant]],
                    counter: list[int]) -> Expr:
    from .lang.nodes import BoolOp, Call, Index, ListLit, UnaryOp

    if isinstance(e, (BinOp, Compare)):
        point_id = counter[0]
        counter[0] += 1
        kind = "cmp" if isinstance(e, Compare) else "bin"
        variants = {ORIGINAL: e.op}
        for m in mutants_by_point.get(point_id, []):
            variants[m.mid] = m.replacement_op
        left = _transform_expr(e.left, points, mutants_by_point, counter)
        right = _transform_expr(e.right, points, mutants_by_point, counter)
        return TaintChoice(e.loc, kind, point_id, variants, left, right)
    if isinstance(e, BoolOp):
        e.left = _transform_expr(e.left, points, mutants_by_point, counter)
        e.right = _transform_expr(e.right, points, mutants_by_point, counter)
        return e
    if isinstance(e, UnaryOp):
        e.operand = _transform_expr(e.operand, points, mutants_by_point, counter)
        return e
    if isinstance(e, Call):
        e.args = [_transform_expr(a, points, mutants_by_point, counter) for a in e.args]
        return e
    if isinstance(e, ListLit):
        e.items = [_transform_expr(a, points, mutants_by_point, counter) for a in e.items]
        return e
    if isinstance(e, Index):
        e.base = _transform_expr(e.base, points, mutants_by_point, counter)
        e.index = _transform_expr(e.index, points, mutants_by_point, counter)
        return e
    return e


def _transform_block(body: list[Stmt], points, mutants_by_point, counter) -> None:
    for s in body:
        if isinstance(s, Assign):
            s.value = _transform_expr(s.value, points, mutants_by_point, counter)
        elif isinstance(s, Return) and s.value is not None:
            s.value = _transform_expr(s.value, points, mutants_by_point, counter)
        elif isinstance(s, Assert):
            s.test = _transform_expr(s.test, points, mutants_by_point, counter)
        elif isinstance(s, ExprStmt):
            s.value = _transform_expr(s.value, points, mutants_by_point, counter)
        elif isinstance(s, If):
            cond = _transform_expr(s.cond, points, mutants_by_point, counter)
            s.cond = TaintedCond(s.loc, cond)
            _transform_block(s.then_body, points, mutants_by_point, counter)
            _transform_block(s.else_body, points, mutants_by_point, counter)
        elif isinstance(s, While):
            cond = _transform_expr(s.cond, points, mutants_by_point, counter)
            s.cond = TaintedCond(s.loc, cond)
            _transform_block(s.body, points, mutants_by_point, counter)


def generate_meta_mutant(ast: Ast, points: list[MutationPoint],
                         mutants: list[Mutant] | None = None) -> Ast:
    """Returns a deep-copied AST where each mutated operator occurrence is a
    TaintChoice, every branch/loop condition is wrapped in TaintedCond, and
    every function is marked wrapped. The input AST is left untouched."""
    if mutants is None:
        mutants = enumerate_mutants(points)
    meta = copy.deepcopy(ast)
    by_point: dict[int, list[Mutant]] = {}
    for m in mutants:
        by_point.setdefault(m.point_id, []).append(m)
    counter = [0]
    for fn in meta.functions:
        fn.wrapped = True
        _transform_block(fn.body, points, by_point, counter)
    if counter[0] != len(points):
        raise RuntimeError("mutation points were not discovered from this AST")
    return meta


def mutant_catalog_lines(points: list[MutationPoint],
                         mutants: list[Mutant]) -> list[str]:
    """`mutants list` CLI body: one stable line per mutant."""
    return [f"M{m.mid} {m.loc} {m.original_op} -> {m.replacement_op}"
            for m in mutants]
