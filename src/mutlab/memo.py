"""Cross-mutant memoization: the call-keyed return-value cache plus the
(mutant, call) mutation cache that vetoes sharing of calls whose dynamic
extent executed a mutation.

Call keys are (function name, canonicalized plain argument values); floats
are keyed bit-exact. Entries are first-write-wins and the whole store is
cleared as soon as no unmerged (diverged but not yet merged-back) mutants
remain.

Mutation-cache records are written once per frame, when it returns. Each
open frame maps the id of every choice site that ran in its dynamic extent
to the site's variants (`note`: one store per executed site); on return
(`leave`) the frame expands its sites to the mutant ids they carry, writes
one record per such mutant, keyed by the arguments as that mutant sees
them, and hands its sites to its caller's frame. A lookup or store for
(m, K) is also vetoed by an open frame whose key for m is K when one of its
sites, or of any open frame it encloses, carries m, so the cache answers
exactly as if every encounter were recorded for every enclosing call at
the moment it happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang.values import canon_key
from .taints import ORIGINAL, Tainted, taint_get

CallKey = tuple


def _mutants(sites: dict) -> set:
    """The mutant ids carried by a frame's noted sites."""
    out = set().union(*sites.values())
    out.discard(ORIGINAL)
    return out


def make_call_key(fn_name: str, args: list) -> CallKey:
    return (fn_name, tuple(canon_key(a) for a in args))


def mutant_call_key(fn_name: str, args: list, m: int) -> CallKey:
    """The key of a call as mutant m sees its (possibly tainted) args."""
    return make_call_key(fn_name, [taint_get(a, m) for a in args])


def mutant_call_keys(fn_name: str, args: list, mutants) -> dict:
    """{m: mutant_call_key(fn_name, args, m)} in the order of `mutants`;
    mutants no argument is tainted for share the original key, built once."""
    tainted = set()
    for a in args:
        if isinstance(a, Tainted):
            tainted.update(a.taints)
    base = mutant_call_key(fn_name, args, ORIGINAL)
    return {m: mutant_call_key(fn_name, args, m) if m in tainted else base
            for m in mutants}


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
    entries: dict = field(default_factory=dict)          # CallKey -> plain value
    mutation_cache: set = field(default_factory=set)     # (mid, CallKey)
    frames: list = field(default_factory=list)           # (fn name, args, sites)
    stats: MemoStats = field(default_factory=MemoStats)

    # --- per-frame site notes ---

    def enter(self, fn_name: str, args: list) -> None:
        """Open a frame for a call of `fn_name` with (possibly tainted) args."""
        self.frames.append((fn_name, args, {}))

    def note(self, site: int, variants: dict) -> None:
        """The choice site `site`, with these variant ids, ran in the
        innermost frame."""
        self.frames[-1][2][site] = variants

    def leave(self) -> int:
        """Close the innermost frame: write its records and hand its sites
        to the caller's frame. Returns the number of new records."""
        fn_name, args, sites = self.frames.pop()
        if not sites:
            return 0
        if self.frames:
            self.frames[-1][2].update(sites)
        return self.record_mutation_encounter(fn_name, args, _mutants(sites))

    def record_mutation_encounter(self, fn_name: str, args: list,
                                  mutants) -> int:
        """Mark (m, call) for every mutant m whose mutation ran inside the
        call of `fn_name` with `args`, keyed by m's view of the arguments.
        Mutants no argument is tainted for share the original key. Returns
        the number of new records (infra cost)."""
        if not mutants:
            return 0
        before = len(self.mutation_cache)
        self.mutation_cache.update(
            mutant_call_keys(fn_name, args, mutants).items())
        return len(self.mutation_cache) - before

    def _vetoed(self, key: CallKey, m: int) -> bool:
        """m's mutation ran inside a call with this key, closed or open.
        An open frame's extent includes every open frame above it, so a
        site carrying m in that frame or any deeper one counts; the sites
        are searched only for an open frame whose key for m is this key.
        The original (id 0) is never vetoed."""
        if (m, key) in self.mutation_cache:
            return True
        if m == ORIGINAL:
            return False
        frames = self.frames
        for i in range(len(frames) - 1, -1, -1):
            fn_name, args, _ = frames[i]
            if (fn_name == key[0] and mutant_call_key(fn_name, args, m) == key
                    and any(m in v for _, _, sites in frames[i:]
                            for v in sites.values())):
                return True
        return False

    # --- memo cache ---

    def lookup(self, key: CallKey, m: int):
        """(hit, value): a hit requires a stored entry and no mutation-cache
        veto for this mutant."""
        if key in self.entries and not self._vetoed(key, m):
            self.stats.hits += 1
            return True, self.entries[key]
        self.stats.misses += 1
        return False, None

    def store(self, key: CallKey, m: int, value) -> None:
        """First write wins; vetoed when this mutant's mutation ran inside."""
        if key in self.entries or self._vetoed(key, m):
            return
        self.entries[key] = value
        self.stats.stores += 1

    def clear_if_all_merged(self) -> None:
        """Drop every entry, record and open frame's noted sites; the caller
        invokes this only when no diverged mutant awaits merge-back. Counts
        a clear only when there was something to drop."""
        if not (self.entries or self.mutation_cache
                or any(m != ORIGINAL for _, _, sites in self.frames
                       for v in sites.values() for m in v)):
            return
        self.entries.clear()
        self.mutation_cache.clear()
        for _, _, sites in self.frames:
            sites.clear()
        self.stats.clears += 1
