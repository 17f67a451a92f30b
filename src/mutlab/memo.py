"""Cross-mutant memoization: the call-keyed return-value cache plus the
(mutant, call) mutation cache that vetoes sharing of calls whose dynamic
extent executed a mutation.

Call keys are (function name, canonicalized plain argument values); floats
are keyed bit-exact. Entries are first-write-wins and the whole store is
cleared as soon as no unmerged (diverged but not yet merged-back) mutants
remain.

Mutation-cache records are written once per frame, when it returns. Each
open frame holds the set of mutant ids whose choice sites ran in its
dynamic extent (`note`); on return (`leave`) the frame writes one record
per such mutant, keyed by the arguments as that mutant sees them, and
hands its set to its caller's frame. A lookup or store for (m, K) is also
vetoed by an open frame whose key for m is K when m is in its set or in
the set of any open frame it encloses, so the cache answers exactly as if
every encounter were recorded for every enclosing call at the moment it
happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang.values import canon_key
from .taints import ORIGINAL, Tainted, taint_get

CallKey = tuple


def make_call_key(fn_name: str, args: list) -> CallKey:
    return (fn_name, tuple(canon_key(a) for a in args))


def mutant_call_key(fn_name: str, args: list, m: int) -> CallKey:
    """The key of a call as mutant m sees its (possibly tainted) args."""
    return make_call_key(fn_name, [taint_get(a, m) for a in args])


@dataclass
class MemoStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    clears: int = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "clears": self.clears}


@dataclass
class MemoState:
    """Memo cache + mutation cache for one analysis run."""
    enabled: bool = True
    entries: dict = field(default_factory=dict)          # CallKey -> plain value
    mutation_cache: set = field(default_factory=set)     # (mid, CallKey)
    frames: list = field(default_factory=list)           # (fn name, args, {mid})
    stats: MemoStats = field(default_factory=MemoStats)

    # --- per-frame encounter sets ---

    def enter(self, fn_name: str, args: list) -> None:
        """Open a frame for a call of `fn_name` with (possibly tainted) args."""
        self.frames.append((fn_name, args, set()))

    def note(self, variants) -> None:
        """A choice site with these variant ids ran in the innermost frame."""
        seen = self.frames[-1][2]
        seen.update(variants)
        seen.discard(ORIGINAL)

    def leave(self) -> int:
        """Close the innermost frame: write its records and merge its set
        into the caller's frame. Returns the number of new records."""
        fn_name, args, seen = self.frames.pop()
        if not seen:
            return 0
        if self.frames:
            self.frames[-1][2].update(seen)
        return self.record_mutation_encounter(fn_name, args, seen)

    def record_mutation_encounter(self, fn_name: str, args: list,
                                  mutants) -> int:
        """Mark (m, call) for every mutant m whose mutation ran inside the
        call of `fn_name` with `args`, keyed by m's view of the arguments.
        Mutants no argument is tainted for share the original key. Returns
        the number of new records (infra cost)."""
        if not self.enabled or not mutants:
            return 0
        tainted = set()
        for a in args:
            if isinstance(a, Tainted):
                tainted.update(a.taints)
        base = mutant_call_key(fn_name, args, ORIGINAL)
        before = len(self.mutation_cache)
        self.mutation_cache.update(
            (m, mutant_call_key(fn_name, args, m) if m in tainted else base)
            for m in mutants)
        return len(self.mutation_cache) - before

    def _vetoed(self, key: CallKey, m: int) -> bool:
        """m's mutation ran inside a call with this key, closed or open.
        An open frame's extent includes every open frame above it, so m
        noted in any deeper frame counts for it too."""
        if (m, key) in self.mutation_cache:
            return True
        inside = False
        for fn_name, args, seen in reversed(self.frames):
            inside = inside or m in seen
            if (inside and fn_name == key[0]
                    and mutant_call_key(fn_name, args, m) == key):
                return True
        return False

    # --- memo cache ---

    def lookup(self, key: CallKey, m: int):
        """(hit, value): a hit requires a stored entry and no mutation-cache
        veto for this mutant."""
        if not self.enabled:
            return False, None
        if key in self.entries and not self._vetoed(key, m):
            self.stats.hits += 1
            return True, self.entries[key]
        self.stats.misses += 1
        return False, None

    def store(self, key: CallKey, m: int, value) -> None:
        """First write wins; vetoed when this mutant's mutation ran inside."""
        if not self.enabled:
            return
        if key in self.entries or self._vetoed(key, m):
            return
        self.entries[key] = value
        self.stats.stores += 1

    def clear_if_all_merged(self) -> None:
        """Drop every entry, record and open frame's pending set; the caller
        invokes this only when no diverged mutant awaits merge-back. Counts
        a clear only when there was something to drop."""
        if not (self.entries or self.mutation_cache
                or any(seen for _, _, seen in self.frames)):
            return
        self.entries.clear()
        self.mutation_cache.clear()
        for _, _, seen in self.frames:
            seen.clear()
        self.stats.clears += 1
