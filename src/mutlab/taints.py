"""Execution-taint values and the taint transmission rules.

A tainted value is a plain value plus a map from mutant id to the value
that mutant would hold. Untainted values are represented by the plain
value itself; `Tainted` is used only when at least one non-original entry
exists. Lookup of a missing mutant id falls back to the original entry.

Per-mutant evaluation errors never abort the whole operation: the failing
mutant is reported through `on_kill` and dropped, matching the
exception-equals-strong-kill policy. An error in the original entry is
raised (it is a mainline failure).

Entries equal (bit-exact, type-sensitive) to the original value are pruned
eagerly; fallback makes this lossless.

The root's rules: `apply_binary` for a binary node (per-mutant operators),
`apply_pointwise` for a unary operator, builtin, list literal or index,
`partition_condition` for a condition, and `concretize_env` and
`with_taints` for a diverged mutant's env and its merged-back value.
"""

from __future__ import annotations

from .lang.errors import MiniRuntimeError
from .lang.nodes import ORIGINAL
from .lang.values import OPERATORS, plain_eq, require_bool


class Tainted:
    __slots__ = ("taints",)

    def __init__(self, taints: dict):
        self.taints = taints

    def __repr__(self):
        return render(self)


def value_of(v):
    """The original (mainline) value."""
    return v.taints[ORIGINAL] if isinstance(v, Tainted) else v


def taint_get(v, m: int):
    """Value of mutant m, falling back to the original entry."""
    if isinstance(v, Tainted):
        return v.taints.get(m, v.taints[ORIGINAL])
    return v


def entries(v) -> dict:
    """The full taint map (a one-entry map for untainted values)."""
    return dict(v.taints) if isinstance(v, Tainted) else {ORIGINAL: v}


def make(taints: dict):
    """Build a value from a taint map, pruning entries equal to the
    original and collapsing to a plain value when nothing remains."""
    base = taints[ORIGINAL]
    pruned = {m: v for m, v in taints.items()
              if m == ORIGINAL or not plain_eq(v, base)}
    if len(pruned) == 1:
        return base
    return Tainted(pruned)


def with_taints(v, merged: list):
    """Install each (m, mval) pair of `merged` as mutant m's entry (the
    merge-back channel), in order, on one copy of v's taint map, pruning
    an entry equal to the original; v itself when `merged` is empty."""
    if not merged:
        return v
    t = entries(v)
    base = t[ORIGINAL]
    for m, mval in merged:
        if plain_eq(mval, base):
            t.pop(m, None)
        else:
            t[m] = mval
    return Tainted(t) if len(t) > 1 else base


def render(v) -> str:
    """Debug rendering `{M0:v0, Mi:vi, ...}` sorted by id."""
    t = entries(v)
    return "{" + ", ".join(f"M{m}:{t[m]!r}" for m in sorted(t)) + "}"


def apply_binary(a, op: str, op_mutations: dict, b, *,
                 restrict: set | None = None, on_kill=None, stats=None):
    """General taint composition for a binary site.

    Result entries: the original entry is `a op b` on original values; each
    data-taint id gets the (possibly mutated-for-it) operator applied to its
    own entries (with fallback); each operator-mutation id gets its mutated
    operator applied likewise (an ORIGINAL key in `op_mutations` is
    ignored, so a choice site's whole variant map can be passed).
    `restrict`, when given, limits non-original entries to that id set.
    `on_kill(mid, kind)` reports per-mutant errors, in id order.

    Each operand's taint map is read once; an untainted operation with no
    operator mutation left returns the plain result at once. An entry equal
    to the original is pruned as it is computed, as `make` would, with
    `plain_eq` only for same-type lists, ±0.0 and nan. The charge is one
    taint op per computed id, at least one.
    """
    ta = a.taints if type(a) is Tainted else None
    tb = b.taints if type(b) is Tainted else None
    a0 = a if ta is None else ta[ORIGINAL]
    b0 = b if tb is None else tb[ORIGINAL]
    fn = OPERATORS[op]
    base = fn(a0, b0)  # mainline errors propagate
    if ta is None and tb is None and not op_mutations:
        ids = ()
    else:
        ids = set(op_mutations)
        if ta is not None:
            ids.update(ta)
        if tb is not None:
            ids.update(tb)
        ids.discard(ORIGINAL)
        if restrict is not None:
            ids &= restrict
    if stats is not None:
        stats.taint_ops += len(ids) or 1
    if not ids:
        return base
    out = {ORIGINAL: base}
    tbase = type(base)
    for m in sorted(ids):
        mop = op_mutations.get(m)
        try:
            v = (fn if mop is None else OPERATORS[mop])(
                a0 if ta is None else ta.get(m, a0),
                b0 if tb is None else tb.get(m, b0))
        except MiniRuntimeError as err:
            if on_kill is not None:
                on_kill(m, err.kind)
            continue
        if type(v) is not tbase:  # plain_eq is type-sensitive
            out[m] = v
        elif (tbase is int or tbase is bool or tbase is str
              or tbase is float and v and v == v):  # not ±0.0, not nan
            if v != base:
                out[m] = v
        elif not plain_eq(v, base):
            out[m] = v
    return Tainted(out) if len(out) > 1 else base


def apply_pointwise(fn, args: list, *, floor: int = 0,
                    restrict: set | None = None, on_kill=None, stats=None):
    """Pointwise composition of a plain n-ary operation (a unary operator,
    a builtin, list construction, indexing): the original entry is `fn` on
    the original values, raising its errors, and each id an argument
    carries gets `fn` on its own entries (with fallback), so a list of
    tainted items is tainted as a whole. `restrict` and `on_kill` act as
    in `apply_binary`; the charge is one taint op per computed id, at least
    `floor`."""
    out = {ORIGINAL: fn(*[value_of(a) for a in args])}
    ids = {m for a in args if type(a) is Tainted for m in a.taints}
    ids.discard(ORIGINAL)
    if restrict is not None:
        ids &= restrict
    for m in sorted(ids):
        try:
            out[m] = fn(*[taint_get(a, m) for a in args])
        except MiniRuntimeError as err:
            if on_kill is not None:
                on_kill(m, err.kind)
    if stats is not None:
        stats.taint_ops += max(len(ids), floor)
    return make(out)


def partition_condition(c, *, restrict: set | None = None, on_kill=None):
    """The mainline decision of a boolean condition and the mutants whose
    decision diverges from it, in id order: (mainline_decision,
    diverge_ids). An entry equal to the original is pruned (`make`,
    `apply_binary`), so every bool entry left diverges. Entries that are
    not bools are reported through on_kill, in id order, and excluded.
    """
    mainline = require_bool(value_of(c), "condition")
    diverge = []
    if type(c) is Tainted:
        t = c.taints
        for m in sorted(t):
            if m == ORIGINAL or restrict is not None and m not in restrict:
                continue
            if type(t[m]) is bool:
                diverge.append(m)
            elif on_kill is not None:
                on_kill(m, "type")
    return mainline, diverge


def concretize_env(env: dict, mutants: list) -> list[dict]:
    """Each mutant's plain view of `env`, in the order of `mutants`: one
    copy of the original's view with the mutant's own entries written over
    it, so the key order is env's."""
    plain = {k: value_of(v) for k, v in env.items()}
    tainted = [(k, v.taints) for k, v in env.items() if type(v) is Tainted]
    views = []
    for m in mutants:
        view = dict(plain)
        for k, t in tainted:
            if m in t:
                view[k] = t[m]
        views.append(view)
    return views
