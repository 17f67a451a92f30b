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

from dataclasses import dataclass, replace

from .lang.nodes import (
    Assert, Assign, Ast, BinOp, BoolOp, Call, Compare, Expr, ExprStmt, If,
    Index, ListLit, Loc, Return, Stmt, TaintChoice, UnaryOp, While,
    walk_exprs, walk_stmts,
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
    """BinOp/Compare nodes in pre-order (operator before operands, matching
    source reading order)."""
    for fn in ast.functions:
        for s in walk_stmts(fn.body):
            for root in _stmt_exprs(s):
                for e in walk_exprs(root):
                    if isinstance(e, (BinOp, Compare)):
                        yield e


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


def _transform_expr(e: Expr, by_point: dict[int, list[Mutant]],
                    counter: list[int]) -> Expr:
    """A new expression with every BinOp/Compare, in pre-order, replaced by
    a TaintChoice; `Literal` and `Var` leaves are shared, not copied."""
    if isinstance(e, (BinOp, Compare)):
        point_id = counter[0]
        counter[0] += 1
        variants = {ORIGINAL: e.op}
        for m in by_point.get(point_id, []):
            variants[m.mid] = m.replacement_op
        left = _transform_expr(e.left, by_point, counter)
        right = _transform_expr(e.right, by_point, counter)
        return TaintChoice(e.loc, point_id, variants, left, right)
    if isinstance(e, BoolOp):
        return replace(e, left=_transform_expr(e.left, by_point, counter),
                       right=_transform_expr(e.right, by_point, counter))
    if isinstance(e, Index):
        return replace(e, base=_transform_expr(e.base, by_point, counter),
                       index=_transform_expr(e.index, by_point, counter))
    if isinstance(e, UnaryOp):
        return replace(e, operand=_transform_expr(e.operand, by_point, counter))
    if isinstance(e, Call):
        return replace(e, args=[_transform_expr(a, by_point, counter)
                                for a in e.args])
    if isinstance(e, ListLit):
        return replace(e, items=[_transform_expr(a, by_point, counter)
                                 for a in e.items])
    return e


def _transform_block(body: list[Stmt], by_point, counter) -> list[Stmt]:
    """A new statement list with every expression transformed."""
    out = []
    for s in body:
        if isinstance(s, Assign):
            s = replace(s, value=_transform_expr(s.value, by_point, counter))
        elif isinstance(s, Return):
            s = replace(s, value=None if s.value is None
                        else _transform_expr(s.value, by_point, counter))
        elif isinstance(s, Assert):
            s = replace(s, test=_transform_expr(s.test, by_point, counter))
        elif isinstance(s, ExprStmt):
            s = replace(s, value=_transform_expr(s.value, by_point, counter))
        elif isinstance(s, If):
            s = replace(s, cond=_transform_expr(s.cond, by_point, counter),
                        then_body=_transform_block(s.then_body, by_point, counter),
                        else_body=_transform_block(s.else_body, by_point, counter))
        elif isinstance(s, While):
            s = replace(s, cond=_transform_expr(s.cond, by_point, counter),
                        body=_transform_block(s.body, by_point, counter))
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
    meta = Ast([replace(fn, params=list(fn.params),
                        body=_transform_block(fn.body, by_point, counter))
                for fn in ast.functions])
    if counter[0] != len(points):
        raise RuntimeError("mutation points were not discovered from this AST")
    return meta


def mutant_catalog_lines(mutants: list[Mutant]) -> list[str]:
    """`mutants list` CLI body: one stable line per mutant."""
    return [f"M{m.mid} {m.loc} {m.original_op} -> {m.replacement_op}"
            for m in mutants]
