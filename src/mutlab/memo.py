"""Cross-mutant memoization: the call-keyed return-value cache plus the
(mutant, function) mutation cache that vetoes sharing of calls whose
dynamic extent executed a mutation.

Call keys are (function name, canonicalized plain argument values); floats
are keyed bit-exact. Entries are first-write-wins and the whole store is
cleared as soon as no unmerged (diverged but not yet merged-back) mutants
remain.

Mutation-cache records are written once per frame, when it returns. Each
open frame maps the id of every choice site that ran in its dynamic extent
to the site's variants (`note`: one store per executed site); on return
(`leave`) the frame writes one (mutant, function name) record for every
mutant those sites carry and hands its sites to its caller's frame. A
lookup or store of f(K) is refused for every mutant recorded for f.

That is exact because `.ml0` is deterministic. Mutant m stores f(K) only
after the call's frame has recorded every mutant whose site ran in it, m
included, so only when none of m's sites ran: the entry is the original's
f(K), run along one path, and every mutant with a site on that path is
recorded for f. Any other mutant computes the same f(K). Open frames need
no veto of their own.
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


def mutant_call_keys(fn_name: str, args: list, mutants) -> dict:
    """{m: the key of the call as mutant m sees its (possibly tainted)
    args} in the order of `mutants`; mutants no argument is tainted for
    share the original key, built once."""
    tainted = set()
    for a in args:
        if isinstance(a, Tainted):
            tainted.update(a.taints)
    base = make_call_key(fn_name, [taint_get(a, ORIGINAL) for a in args])
    return {m: make_call_key(fn_name, [taint_get(a, m) for a in args])
            if m in tainted else base for m in mutants}


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
    mutation_cache: set = field(default_factory=set)     # (mid, fn name)
    frames: list = field(default_factory=list)           # (fn name, sites)
    stats: MemoStats = field(default_factory=MemoStats)

    # --- per-frame site notes ---

    def enter(self, fn_name: str) -> None:
        """Open a frame for a call of `fn_name`."""
        self.frames.append((fn_name, {}))

    def note(self, site: int, variants: dict) -> None:
        """The choice site `site`, with these variant ids, ran in the
        innermost frame."""
        self.frames[-1][1][site] = variants

    def leave(self) -> int:
        """Close the innermost frame: write its records and hand its sites
        to the caller's frame. Returns the number of new records."""
        fn_name, sites = self.frames.pop()
        if not sites:
            return 0
        if self.frames:
            self.frames[-1][1].update(sites)
        return self.record_mutation_encounter(fn_name, _mutants(sites))

    def record_mutation_encounter(self, fn_name: str, mutants) -> int:
        """Mark (m, fn_name) for every mutant m whose mutation ran inside a
        call of `fn_name`. Returns the number of new records (infra cost)."""
        before = len(self.mutation_cache)
        self.mutation_cache.update((m, fn_name) for m in mutants)
        return len(self.mutation_cache) - before

    # --- memo cache ---

    def lookup(self, key: CallKey, m: int):
        """(hit, value): a hit requires a stored entry and no mutation-cache
        record of this mutant for the key's function."""
        if key in self.entries and (m, key[0]) not in self.mutation_cache:
            self.stats.hits += 1
            return True, self.entries[key]
        self.stats.misses += 1
        return False, None

    def store(self, key: CallKey, m: int, value) -> None:
        """First write wins; refused when this mutant's mutation ran inside
        a call of the key's function."""
        if key in self.entries or (m, key[0]) in self.mutation_cache:
            return
        self.entries[key] = value
        self.stats.stores += 1

    def clear_if_all_merged(self) -> None:
        """Drop every entry, record and open frame's noted sites; the caller
        invokes this only when no diverged mutant awaits merge-back. Counts
        a clear only when there was something to drop."""
        if not (self.entries or self.mutation_cache
                or any(m != ORIGINAL for _, sites in self.frames
                       for v in sites.values() for m in v)):
            return
        self.entries.clear()
        self.mutation_cache.clear()
        for _, sites in self.frames:
            sites.clear()
        self.stats.clears += 1
