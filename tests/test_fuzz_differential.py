"""Generated-program differential checks: determinism of generation and
strategy agreement on a sample of seeds (the full sweep runs in the
acceptance suite)."""

import hashlib

import pytest

from mutlab.fuzz import fuzz_program
from mutlab.lang import eval_plain, parse_program
from mutlab.strategies import analyze_program, check_consistency


# sha256 over `fuzz_program(s)` plus a NUL byte for seeds 0-999, taken when
# each generated function's arity was parsed back out of its signature text.
# Taking it from the generated parameters must not change one byte.
FUZZ_TEXTS_SHA256 = \
    "00c8be0a0d3edad084a584ef060059150359631d5fe259d032dcb268a6ef5569"


def test_generated_texts_pinned():
    digest = hashlib.sha256()
    for seed in range(1000):
        digest.update(fuzz_program(seed).encode() + b"\0")
    assert digest.hexdigest() == FUZZ_TEXTS_SHA256


def test_generation_is_deterministic():
    assert fuzz_program(7) == fuzz_program(7)
    assert fuzz_program(7) != fuzz_program(8)


def test_generated_program_parses_and_passes():
    src = fuzz_program(3)
    ast = parse_program(src)
    tests = [f.name for f in ast.functions if f.is_test]
    assert tests
    for t in tests:
        assert eval_plain(ast, t, {}).status == "pass"


@pytest.mark.parametrize("seed", range(10))
def test_strategies_agree_on_sampled_seeds(seed):
    analysis = analyze_program(parse_program(fuzz_program(seed)))
    assert analysis.valid
    problems = check_consistency(analysis)
    assert problems == [], problems


def test_assert_constants_round_trip():
    # the embedded expected constant reproduces the computed value exactly
    for seed in range(20):
        src = fuzz_program(seed)
        assert "assert" in src
