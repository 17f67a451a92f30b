"""Acceptance gate. Each test checks one release criterion and prints a
single PASS line (visible in the captured log):

1. taint-rule conformance on the worked composition examples (exact);
2. oracle equivalence: all seven strategies produce identical kill
   matrices (including kill causes) on the five corpus programs and on
   200 generated programs, in under five minutes;
3. cost monotonicity per corpus subject, zero tolerance;
4. mean exec-taints/traditional statement ratio <= 0.30 over the corpus;
5. merge-back totality: no mutant left unmerged at end of any run;
6. memo transparency: verdicts identical with memoization on/off and
   1000 sampled memo hits match a fresh re-execution of the call;
7. determinism: repeated compare runs emit byte-identical JSON.
"""

import struct
import time

import pytest

import mutlab.engine as engine_mod
from mutlab.cli import CORPUS_DIR, CORPUS_PROGRAMS, main
from mutlab.engine import EngineConfig, run_test
from mutlab.fuzz import fuzz_program
from mutlab.lang import PlainRun, compile_program, parse_program
from mutlab.memo import MemoState
from mutlab.mutate import (
    discover_mutation_points, enumerate_mutants, generate_meta_mutant,
)
from mutlab.strategies import (
    ENGINE_VARIANTS, STRATEGY_NAMES, analyze_program, check_consistency,
)
from mutlab.taints import apply_binary, entries

FUZZ_SEEDS = range(200)


def announce(line):
    print(line)
    try:
        print(line, file=__import__("sys").__stdout__)
    except Exception:
        pass


@pytest.fixture(scope="module")
def corpus():
    out = {}
    for name in CORPUS_PROGRAMS:
        src = (CORPUS_DIR / f"{name}.ml0").read_text()
        out[name] = analyze_program(parse_program(src))
        assert out[name].valid, name
    return out


def prepare(src):
    ast = parse_program(src)
    points = discover_mutation_points(ast)
    mutants = enumerate_mutants(points)
    program = compile_program(generate_meta_mutant(ast, points, mutants))
    tests = [f.name for f in ast.functions if f.is_test]
    return (program, [m.mid for m in mutants],
            {m.mid: m.point_id for m in mutants}, tests)


def test_criterion_1_taint_rule_conformance():
    r4 = apply_binary(entries_map({0: 1, 1: 2}), "+", {},
                      entries_map({0: 3, 1: 4}))
    assert entries(r4) == {0: 4, 1: 6}
    r7 = apply_binary(entries_map({0: 1, 1: 2}), "+", {},
                      entries_map({0: 3, 2: 5}))
    assert entries(r7) == {0: 4, 1: 5, 2: 6}
    ex = apply_binary(2, "/", {2: "+", 3: "*"}, 2)
    assert entries(ex) == {0: 1.0, 2: 4, 3: 4}
    announce("ACCEPTANCE 1 PASS: taint transmission rules exact")


def entries_map(d):
    from mutlab.taints import make
    return make(d)


def test_criterion_2_oracle_equivalence(corpus):
    start = time.monotonic()
    for name, analysis in corpus.items():
        problems = check_consistency(analysis)
        assert problems == [], (name, problems[:5])
    for seed in FUZZ_SEEDS:
        analysis = analyze_program(parse_program(fuzz_program(seed)))
        assert analysis.valid, seed
        problems = check_consistency(analysis)
        assert problems == [], (seed, problems[:5])
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"took {elapsed:.0f}s (limit 300s)"
    announce(f"ACCEPTANCE 2 PASS: 5 corpus + {len(FUZZ_SEEDS)} fuzz programs, "
             f"all strategies agree ({elapsed:.0f}s)")


def test_criterion_3_cost_monotonicity(corpus):
    for name, analysis in corpus.items():
        s = {n: analysis.runs[n].program_stmts for n in STRATEGY_NAMES}
        assert s["modulo-state"] <= s["split-stream"] <= s["traditional"], name
        assert s["exec-taints"] <= s["exec-taints-nm"] <= s["exec-taints-nf-nm"], name
        assert s["exec-taints"] <= s["exec-taints-nf"] <= s["exec-taints-nf-nm"], name
    announce("ACCEPTANCE 3 PASS: cost monotonic per subject (zero tolerance)")


def test_criterion_4_cost_ratio(corpus):
    ratios = []
    for name, analysis in corpus.items():
        trad = analysis.runs["traditional"].program_stmts
        full = analysis.runs["exec-taints"].program_stmts
        ratios.append(full / trad)
    mean = sum(ratios) / len(ratios)
    assert mean <= 0.30, ratios
    announce(f"ACCEPTANCE 4 PASS: mean exec-taints/traditional ratio "
             f"{mean:.3f} <= 0.30")


def test_criterion_5_merge_back_totality():
    checked = 0
    sources = [(CORPUS_DIR / f"{n}.ml0").read_text() for n in CORPUS_PROGRAMS]
    sources += [fuzz_program(s) for s in range(20)]
    for src in sources:
        program, mids, point_of, tests = prepare(src)
        for test in tests:
            for fork, memo in ENGINE_VARIANTS.values():
                rep = run_test(program, test, mids, point_of,
                               EngineConfig(fork=fork, memo=memo))
                assert rep.valid
                assert rep.pending_end == 0
                checked += 1
    announce(f"ACCEPTANCE 5 PASS: merge-back total in {checked} runs")


def _decode_key_value(k):
    tag, v = k
    if tag == "f":
        return struct.unpack("<d", v)[0]
    if tag == "l":
        return tuple(_decode_key_value(x) for x in v)
    return v


class _RecordingMemoState(MemoState):
    log: list = []

    def lookup(self, key, m):
        hit, value = super().lookup(key, m)
        if hit:
            _RecordingMemoState.log.append((key, m, value))
        return hit, value


def test_criterion_6_memo_transparency(corpus, monkeypatch):
    for name, analysis in corpus.items():
        assert (analysis.runs["exec-taints"].verdicts
                == analysis.runs["exec-taints-nm"].verdicts), name
        assert (analysis.runs["exec-taints-nf"].verdicts
                == analysis.runs["exec-taints-nf-nm"].verdicts), name

    # record memo hits across instrumented runs, then replay a sample
    monkeypatch.setattr(engine_mod, "MemoState", _RecordingMemoState)
    _RecordingMemoState.log = []
    samples = []
    sources = [(CORPUS_DIR / f"{n}.ml0").read_text() for n in CORPUS_PROGRAMS]
    sources += [fuzz_program(s) for s in range(40)]
    for src in sources:
        program, mids, point_of, tests = prepare(src)
        for test in tests:
            for fork in (False, True):
                _RecordingMemoState.log = []
                run_test(program, test, mids, point_of,
                         EngineConfig(fork=fork, memo=True))
                samples.extend((program, hit)
                               for hit in _RecordingMemoState.log)
    monkeypatch.undo()

    assert len(samples) >= 1000, f"only {len(samples)} memo hits observed"
    step = max(len(samples) // 1000, 1)
    verified = 0
    for program, (key, mid, cached) in samples[::step][:1000]:
        fn_name, arg_keys = key
        args = [_decode_key_value(k) for k in arg_keys]
        fresh = PlainRun(program, select=mid).call(fn_name, args)
        assert fresh == cached and type(fresh) is type(cached), (fn_name, mid)
        verified += 1
    announce(f"ACCEPTANCE 6 PASS: memo transparent; {verified} sampled hits "
             f"match fresh re-execution")


def test_criterion_7_determinism(tmp_path, capsys):
    prog = str(CORPUS_DIR / "caesar_cypher.ml0")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["compare", "--program", prog, "--all", "--out", str(a)]) == 0
    assert main(["compare", "--program", prog, "--all", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    announce("ACCEPTANCE 7 PASS: repeated compare runs byte-identical")
