"""The benchmark's two pinned workloads and the checks that keep them pinned.

`corpus` reads the five `corpus/*.ml0` programs of the checkout. `fuzz`
generates a fixed range of programs with the frozen grammar in
`fuzz_grammar.py`. Both inputs are fingerprinted (sha256 over the program
names and texts, in pinned order) and compared with the fingerprint written
in the workload's `why` in `BENCHMARK.json`; a mismatch stops the benchmark.
The pinned kill matrix of every program (`verdicts.json`) is the reference
the benchmark's correctness check compares each run against.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

CORPUS_PROGRAMS = ("caesar_cypher", "entropy", "euler", "newton", "prime")
FUZZ_SEEDS = range(0, 10)
WORKLOADS = ("corpus", "fuzz")

_PIN = re.compile(r"inputs sha256 ([0-9a-f]{64})")


class InputError(Exception):
    """The workload's inputs are missing or differ from the pinned ones."""


@dataclass(frozen=True)
class Program:
    name: str
    text: str


def load(workload: str) -> list[Program]:
    """The workload's programs in pinned order."""
    if workload == "corpus":
        try:
            return [Program(n, (ROOT / "corpus" / f"{n}.ml0").read_text())
                    for n in CORPUS_PROGRAMS]
        except FileNotFoundError as err:
            raise InputError(f"corpus program missing: {err.filename}")
    if workload == "fuzz":
        import fuzz_grammar
        return [Program(f"fuzz{s}", fuzz_grammar.fuzz_program(s))
                for s in FUZZ_SEEDS]
    raise InputError(f"unknown workload {workload!r}")


def fingerprint(programs: list[Program]) -> str:
    h = hashlib.sha256()
    for p in programs:
        h.update(p.name.encode() + b"\0" + p.text.encode() + b"\0")
    return h.hexdigest()


def pinned_fingerprint(workload: str) -> str:
    """The fingerprint recorded in the workload's `why` in BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except FileNotFoundError:
        raise InputError("BENCHMARK.json not found at the checkout root")
    for w in spec["workloads"]:
        if w["name"] == workload:
            m = _PIN.search(w["why"])
            if m is None:
                raise InputError(f"no input fingerprint for {workload!r} "
                                 "in BENCHMARK.json")
            return m.group(1)
    raise InputError(f"workload {workload!r} is not in BENCHMARK.json")


def load_checked(workload: str) -> list[Program]:
    programs = load(workload)
    got, want = fingerprint(programs), pinned_fingerprint(workload)
    if got != want:
        raise InputError(f"{workload} inputs changed: sha256 {got}, "
                         f"pinned {want}")
    return programs


def pinned_verdicts() -> dict[str, str]:
    """Program name -> sha256 of its pinned kill matrix."""
    return json.loads((BENCH_DIR / "verdicts.json").read_text())


def verdict_digest(verdicts: dict) -> str:
    """sha256 over one `M<id> <verdict>` line per mutant, ids ascending;
    a verdict is `killed:<cause>`, `survived` or `not_covered`."""
    lines = []
    for mid in sorted(verdicts):
        v = verdicts[mid]
        lines.append(f"M{mid} " + (f"killed:{v[1]}" if v[0] == "killed"
                                   else v[0]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
