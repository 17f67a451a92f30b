"""Cross-mutant memoization: the call-keyed return-value cache plus the
mutation cache of static reach sets that vetoes sharing of calls a
mutation may run in.

Call keys are (function name, canonicalized plain argument values); floats
are keyed bit-exact. Entries are first-write-wins and the whole store is
cleared as soon as no unmerged (diverged but not yet merged-back) mutants
remain.

The mutation cache maps each function f to reach(f): the mutants of every
choice site a call of f may run, its own and those of every function it
calls, transitively (`lang.interp.compile_program` computes them once per
program). A memo-on engine hands each set to `record_mutation_encounter`
once, before it runs anything, and a lookup or store of f(K) is refused
for every mutant in reach(f). Entries never go stale, so a clear drops
entries only.

That is exact for the mutants it lets share: `.ml0` is deterministic, and
a mutant outside reach(f) runs the original's code in every call of f, so
it computes the original's f(K), the value every entry for f(K) holds.
So a hit returns what running the call would, and a memo run's loop state
(pc, env) alone decides its future, as in a plain run. README compares
this cache with the paper's.

A mutant in reach(f) builds no key of f, since `lookup` and `store`
would refuse it every key: a memo run asks the mutation cache before it
keys a call (`make_call_key`) and counts a vetoed call's lookup as a miss.
The root's stores key each live mutant outside reach(f), in the order of
the return value's taint map, from the call's argument entries, each
canonicalised once. `MemoStats` and the engine's `InfraStats` read what
they would if every key were built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang.values import canon_key

CallKey = tuple


def make_call_key(fn_name: str, args: list) -> CallKey:
    return (fn_name, tuple(map(canon_key, args)))


@dataclass
class MemoStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    clears: int = 0


@dataclass
class MemoState:
    """Memo cache + mutation cache for one analysis run."""
    entries: dict = field(default_factory=dict)          # CallKey -> plain value
    mutation_cache: dict = field(default_factory=dict)   # fn name -> mutant ids
    stats: MemoStats = field(default_factory=MemoStats)

    def record_mutation_encounter(self, fn_name: str, mutants: frozenset) -> None:
        """Refuse every mutant in `mutants`, reach(fn_name), for every key
        of `fn_name`."""
        self.mutation_cache[fn_name] = mutants

    def lookup(self, key: CallKey, m: int):
        """(hit, value): a hit requires a stored entry and a mutant whose
        mutation cannot run inside a call of the key's function."""
        if key in self.entries and m not in self.mutation_cache.get(key[0], ()):
            self.stats.hits += 1
            return True, self.entries[key]
        self.stats.misses += 1
        return False, None

    def store(self, key: CallKey, m: int, value) -> None:
        """First write wins; refused when this mutant's mutation may run
        inside a call of the key's function."""
        if key in self.entries or m in self.mutation_cache.get(key[0], ()):
            return
        self.entries[key] = value
        self.stats.stores += 1

    def clear_if_all_merged(self) -> None:
        """Drop every entry; the caller invokes this only when no diverged
        mutant awaits merge-back. Counts a clear only when there was an
        entry to drop."""
        if self.entries:
            self.entries.clear()
            self.stats.clears += 1
