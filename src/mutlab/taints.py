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
"""

from __future__ import annotations

from .lang.errors import MiniRuntimeError
from .lang.values import OPERATORS, plain_eq, unary_op

ORIGINAL = 0


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


def taint_keys(v) -> set:
    """Non-original mutant ids carried by a value."""
    if isinstance(v, Tainted):
        return {m for m in v.taints if m != ORIGINAL}
    return set()


def active_taints(vs) -> set:
    out: set = set()
    for v in vs:
        out |= taint_keys(v)
    return out


def make(taints: dict):
    """Build a value from a taint map, pruning entries equal to the
    original and collapsing to a plain value when nothing remains."""
    base = taints[ORIGINAL]
    pruned = {m: v for m, v in taints.items()
              if m == ORIGINAL or not plain_eq(v, base)}
    if len(pruned) == 1:
        return base
    return Tainted(pruned)


def with_taint(v, m: int, mval):
    """Install mval as mutant m's entry on v (merge-back channel). The
    other entries are already pruned, so only the new one is compared
    with the original."""
    t = entries(v)
    if plain_eq(mval, t[ORIGINAL]):
        t.pop(m, None)
    else:
        t[m] = mval
    return Tainted(t) if len(t) > 1 else t[ORIGINAL]


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
    operator mutation left returns the plain result at once. Entries equal
    to the original are pruned as they are computed (as `make` would), and
    the charge is one taint op per computed id, at least one.
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
        if type(v) is tbase and (tbase is int or tbase is bool or tbase is str):
            if v != base:
                out[m] = v
        elif not plain_eq(v, base):
            out[m] = v
    return Tainted(out) if len(out) > 1 else base


def apply_unary(op: str, a, *, restrict: set | None = None,
                on_kill=None, stats=None):
    """Pointwise extension of the transmission rules to unary operators."""
    out = {ORIGINAL: unary_op(op, value_of(a))}
    ids = taint_keys(a)
    if restrict is not None:
        ids &= restrict
    for m in sorted(ids):
        try:
            out[m] = unary_op(op, taint_get(a, m))
        except MiniRuntimeError as err:
            if on_kill is not None:
                on_kill(m, err.kind)
    if stats is not None:
        stats.taint_ops += max(len(ids), 1)
    return make(out)


def partition_condition(c, *, restrict: set | None = None, on_kill=None):
    """Split a boolean condition's taints into mutants that follow the
    mainline decision and mutants that diverge from it.

    Returns (mainline_decision, follow_ids, diverge_ids). Entries that are
    not bools are reported through on_kill and excluded.
    """
    mainline = value_of(c)
    if not isinstance(mainline, bool):
        raise MiniRuntimeError("type", "condition must be a bool")
    follow: set = set()
    diverge: set = set()
    ids = taint_keys(c)
    if restrict is not None:
        ids &= restrict
    for m in sorted(ids):
        mv = taint_get(c, m)
        if not isinstance(mv, bool):
            if on_kill is not None:
                on_kill(m, "type")
            continue
        (diverge if mv != mainline else follow).add(m)
    return mainline, follow, diverge


def concretize_env(env: dict, m: int) -> dict:
    return {k: taint_get(v, m) for k, v in env.items()}
