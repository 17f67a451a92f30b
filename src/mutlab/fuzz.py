"""Deterministic grammar fuzzer for differential testing.

Each seed maps to one program: up to three helper functions of small
integer/float arithmetic, at most two loops program-wide, and one test
whose assert pins the value computed by the original. Loops use literal
bounds and a dedicated `i = i + 1` counter, so every loop-control mutant
either terminates within a bounded overshoot or never terminates — the
two cases every strategy classifies identically.

Generation retries with an internal salt until the original program
passes its own test (ruling out division-by-zero or overflow on the
mainline), so the same seed always yields the same text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .lang.errors import MiniSyntaxError
from .lang.interp import compile_program, run_entry
from .lang.parser import parse_program

ARITH_INT = ["+", "-", "*", "//", "%"]
ARITH_MIXED = ["+", "-", "*", "/"]
COMPARES = ["==", "!=", "<", "<=", ">", ">="]

MAX_FUNCS = 3
MAX_LOOPS = 2


@dataclass
class _GenState:
    rng: random.Random
    loops_left: int = MAX_LOOPS


def _literal(rng: random.Random) -> str:
    if rng.random() < 0.25:
        return rng.choice(["0.5", "1.5", "2.0", "3.0", "0.25"])
    return str(rng.randint(1, 9))


def _expr(rng: random.Random, names: list[str], depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        if names and rng.random() < 0.6:
            return rng.choice(names)
        return _literal(rng)
    op = rng.choice(ARITH_INT if rng.random() < 0.7 else ARITH_MIXED)
    left = _expr(rng, names, depth - 1)
    # keep divisor-ish operands away from an obvious zero; real zero
    # divisions still happen through variables and trigger a retry
    if op in ("//", "%", "/") and rng.random() < 0.7:
        right = str(rng.randint(2, 9))
    else:
        right = _expr(rng, names, depth - 1)
    return f"({left} {op} {right})"


def _gen_function(st: _GenState, name: str,
                  callees: dict[str, int]) -> tuple[str, int]:
    """Source text of one function that may call `callees` (name -> number
    of parameters), and its own number of parameters."""
    rng = st.rng
    params = ["a", "b"][: rng.randint(1, 2)]
    lines = [f"def {name}({', '.join(params)}):"]
    names = list(params)
    body_vars = rng.randint(1, 3)
    for k in range(body_vars):
        var = f"v{k}"
        if callees and rng.random() < 0.5:
            callee = rng.choice(list(callees))
            args = ", ".join(_expr(rng, names, 1)
                             for _ in range(callees[callee]))
            lines.append(f"    {var} = {callee}({args})")
        else:
            lines.append(f"    {var} = {_expr(rng, names, 2)}")
        names.append(var)
    if st.loops_left > 0 and rng.random() < 0.8:
        st.loops_left -= 1
        bound = rng.randint(2, 6)
        acc = "acc"
        lines.append(f"    {acc} = {_expr(rng, names, 1)}")
        lines.append("    i = 0")
        lines.append(f"    while i < {bound}:")
        lines.append(f"        {acc} = {_expr(rng, names + [acc], 2)}")
        lines.append("        i = i + 1")
        names.append(acc)
    if rng.random() < 0.4:
        cond = (f"{_expr(rng, names, 1)} {rng.choice(COMPARES)} "
                f"{_expr(rng, names, 1)}")
        lines.append(f"    if {cond}:")
        lines.append(f"        return {_expr(rng, names, 2)}")
        lines.append(f"    return {_expr(rng, names, 2)}")
    else:
        lines.append(f"    return {_expr(rng, names, 2)}")
    return "\n".join(lines), len(params)


def _candidate(seed: int, salt: int) -> str:
    rng = random.Random(f"{seed}:{salt}")
    st = _GenState(rng)
    n_funcs = rng.randint(1, MAX_FUNCS)
    chunks = []
    arities: dict[str, int] = {}
    for k in range(n_funcs):
        name = f"f{k}"
        src, arities[name] = _gen_function(st, name, arities)
        chunks.append(src)
    # the test calls the last function
    args = ", ".join(str(rng.randint(1, 9)) for _ in range(arities[name]))
    chunks.append(f"def test_fuzz():\n    r = {name}({args})\n"
                  f"    assert r == EXPECTED")
    return "\n\n".join(chunks) + "\n"


def fuzz_program(seed: int) -> str:
    """Deterministic source text for one seed; the original always passes."""
    for salt in range(1000):
        text = _candidate(seed, salt)
        probe = text.replace("assert r == EXPECTED", "return r")
        try:
            ast = parse_program(probe)
            outcome = run_entry(compile_program(ast), "test_fuzz", [])
        except MiniSyntaxError:
            continue
        if outcome.status != "pass":
            continue
        v = outcome.value
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            continue
        if isinstance(v, float):
            lit = repr(v)
            try:
                if float(lit) != v:
                    continue
            except (ValueError, OverflowError):
                continue
            expected = lit
        else:
            expected = str(v) if v >= 0 else f"(0 - {-v})"
        final = text.replace("EXPECTED", expected)
        check = run_entry(compile_program(parse_program(final)), "test_fuzz",
                          [])
        if check.status == "pass":
            return final
    raise RuntimeError(f"could not generate a passing program for seed {seed}")
