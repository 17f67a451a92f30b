"""CLI: exit codes, output formats, determinism, environment config."""

import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import mutlab.cli as cli
from mutlab.cli import main
from mutlab.lang.parser import (
    MAX_BLOCK_DEPTH, MAX_DEPTH, MAX_NESTING, parse_program,
)
from mutlab.lang.values import MAX_SIZE
from mutlab.mutate import discover_mutation_points, enumerate_mutants
from mutlab.report import CSV_HEADER, SCHEMA

GOOD = """\
def double(x):
    return x * 2

def test_double():
    assert double(4) == 8
"""

BAD_TEST = """\
def double(x):
    return x * 2

def test_double():
    assert double(4) == 9
"""


@pytest.fixture
def good(tmp_path):
    p = tmp_path / "good.ml0"
    p.write_text(GOOD)
    return str(p)


@pytest.fixture
def bad(tmp_path):
    p = tmp_path / "bad.ml0"
    p.write_text(BAD_TEST)
    return str(p)


class TestExitCodes:
    def test_ok(self, good, capsys):
        assert main(["analyze", "--program", good,
                     "--strategy", "traditional"]) == 0
        capsys.readouterr()

    def test_invalid_test_is_1(self, bad, capsys):
        with pytest.raises(SystemExit) as e:
            main(["analyze", "--program", bad, "--strategy", "traditional"])
        assert e.value.code == 1
        assert "invalid test" in capsys.readouterr().err

    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["analyze", "--strategy", "traditional"])
        assert e.value.code == 2
        capsys.readouterr()

    def test_missing_program_is_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["analyze", "--program", "/nonexistent.ml0",
                  "--strategy", "traditional"])
        assert e.value.code == 2
        capsys.readouterr()

    def test_flags_rejected_for_baselines(self, good, capsys):
        assert main(["analyze", "--program", good, "--strategy",
                     "traditional", "--no-fork"]) == 2
        capsys.readouterr()


def usage_error_line(capsys, excinfo) -> str:
    """The one stderr line of a run that exited 2."""
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


class TestIOErrors:
    def test_program_is_a_directory(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            main(["analyze", "--program", str(tmp_path),
                  "--strategy", "traditional"])
        assert usage_error_line(capsys, e) == (
            f"error: cannot read program {tmp_path}: Is a directory\n")

    def test_program_unreadable(self, good, capsys, monkeypatch):
        # a permission bit does not stop root from reading, so the read
        # itself is made to fail
        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))
        monkeypatch.setattr(Path, "read_text", denied)
        with pytest.raises(SystemExit) as e:
            main(["compare", "--program", good])
        assert usage_error_line(capsys, e) == (
            f"error: cannot read program {good}: Permission denied\n")

    def test_program_undecodable(self, tmp_path, capsys):
        program = tmp_path / "bytes.ml0"
        program.write_bytes(b"def f():\n    return 1\xff\n")
        with pytest.raises(SystemExit) as e:
            main(["mutants", "list", "--program", str(program)])
        err = usage_error_line(capsys, e)
        assert err.startswith(f"error: cannot read program {program}: ")
        assert "can't decode byte 0xff" in err

    @pytest.fixture
    def no_analysis(self, monkeypatch):
        """An unwritable --out must be rejected before anything is analysed."""
        def analyze_program(*args, **kwargs):
            pytest.fail("the program was analysed before --out was checked")
        monkeypatch.setattr(cli, "analyze_program", analyze_program)

    def test_out_in_missing_directory(self, good, tmp_path, capsys,
                                      no_analysis):
        out = tmp_path / "missing" / "r.json"
        with pytest.raises(SystemExit) as e:
            main(["analyze", "--program", good, "--strategy",
                  "traditional", "--out", str(out)])
        assert usage_error_line(capsys, e) == (
            f"error: cannot write {out}: No such file or directory\n")
        assert not out.parent.exists()

    @pytest.mark.parametrize("out, message", [
        ("", "Is a directory"),
        ("good.ml0/r.json", "Not a directory"),
    ])
    def test_compare_out_unwritable(self, good, tmp_path, capsys,
                                    no_analysis, out, message):
        out = tmp_path / out
        with pytest.raises(SystemExit) as e:
            main(["compare", "--program", good, "--out", str(out)])
        assert usage_error_line(capsys, e) == (
            f"error: cannot write {out}: {message}\n")

    def test_corpus_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "results"
        out.write_text("keep")
        with pytest.raises(SystemExit) as e:
            main(["corpus", "run", "--out", str(out)])
        assert usage_error_line(capsys, e) == (
            f"error: cannot write {out}: File exists\n")
        assert out.read_text() == "keep"


class TestOutputs:
    def test_json_schema(self, good, tmp_path):
        out = tmp_path / "r.json"
        assert main(["analyze", "--program", good, "--strategy",
                     "exec-taints", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == SCHEMA
        (report,) = doc["reports"]
        assert report["strategy"] == "exec-taints"
        assert report["mutants"] == (report["killed"] + report["survived"]
                                     + report["not_covered"])

    def test_csv_header_and_rows(self, good, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["analyze", "--program", good, "--strategy",
                     "traditional", "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1].startswith("good,traditional,")

    def test_compare_is_byte_identical(self, good, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["compare", "--program", good, "--all",
                     "--out", str(a)]) == 0
        assert main(["compare", "--program", good, "--all",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_variant_flags_map_to_strategy(self, good, tmp_path):
        out = tmp_path / "v.json"
        assert main(["analyze", "--program", good, "--strategy",
                     "exec-taints", "--no-fork", "--no-memo",
                     "--out", str(out)]) == 0
        (report,) = json.loads(out.read_text())["reports"]
        assert report["strategy"] == "exec-taints-nf-nm"

    def test_mutants_list(self, good, capsys):
        assert main(["mutants", "list", "--program", good]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and lines[0].startswith("M1 ")
        assert len(lines) == 15  # one arith point (10) + one compare (5)


# sha256 of `mutlab compare --program corpus/<name>.ml0 --all --format csv`
# and of `summary.csv` from `mutlab corpus run --out DIR` (default budget
# multiplier), taken while CSV rows were still written from a report class
# apart from the JSON dict. Rows written from the `mutlab/1` dicts must match.
CSV_PINS = {
    "caesar_cypher": "c19f12e84b076f943d299ae1f697c78330b50819f8449c85589563084e98f8f2",
    "entropy": "a23854093b2339f88774c999a57b854d7d66b1249ad3c543aa70a7fad7df9fb2",
    "euler": "87c7eb93eb092743b9df466e2b28d0a22c4227581c48572d86f80fe667bb7e69",
    "newton": "2793381ee5e71ec3f86d50c5cb4f9ebc16e9b9cc81cf2e5017704535f0386c7f",
    "prime": "4c43864ec3f537a3c96499923de5d9418f8c11399c042f91c2819f886be59b8c",
}
SUMMARY_CSV_PIN = \
    "3a1a02bf7dc37883dce1bcf1536175447dbd5e8bc5ce686cfef8db00655fb1fe"


@pytest.mark.parametrize("name", sorted(CSV_PINS))
def test_compare_csv_pinned_on_corpus(name, tmp_path, monkeypatch):
    monkeypatch.delenv("MUTLAB_BUDGET_MULT", raising=False)
    out = tmp_path / "report.csv"
    assert main(["compare", "--program", str(cli.CORPUS_DIR / f"{name}.ml0"),
                 "--all", "--format", "csv", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_PINS[name]


def test_corpus_summary_csv_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MUTLAB_BUDGET_MULT", raising=False)
    assert main(["corpus", "run", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    summary = (tmp_path / "summary.csv").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == SUMMARY_CSV_PIN


def test_csv_rows_are_the_json_reports_fields(tmp_path):
    program = str(cli.CORPUS_DIR / "euler.ml0")
    csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
    for fmt, out in (("csv", csv_out), ("json", json_out)):
        assert main(["compare", "--program", program, "--all",
                     "--format", fmt, "--out", str(out)]) == 0
    header, *rows = list(csv.reader(io.StringIO(csv_out.read_text())))
    reports = json.loads(json_out.read_text())["reports"]
    assert header == CSV_HEADER
    assert rows == [[str(r[k]) for k in CSV_HEADER] for r in reports]


class TestEnvironment:
    def test_budget_mult_env(self, good, tmp_path, monkeypatch):
        monkeypatch.setenv("MUTLAB_BUDGET_MULT", "25")
        out = tmp_path / "r.json"
        assert main(["analyze", "--program", good, "--strategy",
                     "exec-taints", "--out", str(out)]) == 0
        (report,) = json.loads(out.read_text())["reports"]
        assert report["budget_mult"] == 25

    def test_budget_mult_env_invalid(self, good, monkeypatch, capsys):
        for value in ("lots", "0", "-3"):
            monkeypatch.setenv("MUTLAB_BUDGET_MULT", value)
            with pytest.raises(SystemExit) as e:
                main(["analyze", "--program", good, "--strategy", "traditional"])
            assert e.value.code == 2
            assert capsys.readouterr().err == (
                "error: MUTLAB_BUDGET_MULT must be a positive integer, "
                f"got {value!r}\n")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_budget_mult_flag_invalid(self, good, capsys, value):
        with pytest.raises(SystemExit) as e:
            main(["compare", "--program", good, f"--budget-mult={value}"])
        assert e.value.code == 2
        assert capsys.readouterr().err == (
            f"error: --budget-mult must be a positive integer, got {value!r}\n")


@pytest.mark.parametrize("value", ["0", "-5"])
def test_fuzz_count_below_one_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as e:
        main(["fuzz", "--count", value])
    assert usage_error_line(capsys, e) == (
        f"error: --count must be a positive integer, got {value!r}\n")


INVALID_TESTS = {
    "undefined function": (
        "def test_a():\n    x = nope(1)\n    assert x == 1\n",
        "error name at 2:9"),
    "failing assert": (
        "def f(x):\n    return x\n\ndef test_a():\n    y = f(1)\n"
        "    assert y == 2\n", "assert at 6:5"),
    "test with a parameter": (
        "def test_a(p):\n    assert p == 1\n", "error arity"),
    "int of inf": (
        'def test_a():\n    x = int(float("1e999"))\n    assert x > 0\n',
        "error value at 2:9"),
    "int of nan": (
        'def test_a():\n    y = float("1e999")\n    x = int(y - y)\n'
        "    assert x > 0\n", "error value at 3:9"),
    # a condition's or an assert's type error is at its own statement, not
    # at the call that reached it
    "condition in a callee": (
        "def h(a):\n    if a:\n        return 1\n    return 0\n\n"
        "def test_a():\n    x = 1\n    y = h(x)\n    assert y == 1\n",
        "error type at 2:5"),
    "condition in the test": (
        "def test_a():\n    x = 1\n    if x:\n        x = 2\n"
        "    assert x == 2\n", "error type at 3:5"),
    "assert of an int": (
        "def test_a():\n    x = 1\n    assert x\n", "error type at 3:5"),
    # `+` past the length bound is an overflow, as past 64 bits
    "string past MAX_SIZE": (
        f'def test_a():\n    s = "ab"\n    while len(s) <= {MAX_SIZE}:\n'
        "        s = s + s\n    assert len(s) > 0\n",
        "error overflow at 4:15"),
    "list past MAX_SIZE": (
        f"def test_a():\n    s = [1, 2]\n    while len(s) <= {MAX_SIZE}:\n"
        "        s = s + s\n    assert len(s) > 0\n",
        "error overflow at 4:15"),
}


@pytest.mark.parametrize("case", sorted(INVALID_TESTS))
def test_invalid_test_names_the_failure(tmp_path, capsys, case):
    source, failure = INVALID_TESTS[case]
    program = tmp_path / "p.ml0"
    program.write_text(source)
    with pytest.raises(SystemExit) as e:
        main(["compare", "--program", str(program), "--all"])
    assert e.value.code == 1
    assert capsys.readouterr().err == (
        f"error: invalid test: original fails test_a in {program}: {failure}\n")


def test_mutant_reaching_int_of_inf_is_killed_by_exception(tmp_path, capsys):
    # `/` -> `*` turns 1.0 / inf into 1.0 * inf, and int() of it raises
    source = ('def test_a():\n    y = float("1e999")\n    x = int(1.0 / y)\n'
              "    assert x == 0\n")
    program, out = tmp_path / "p.ml0", tmp_path / "report.json"
    program.write_text(source)
    [mid] = [m.mid for m in enumerate_mutants(
                 discover_mutation_points(parse_program(source)))
             if (m.original_op, m.replacement_op) == ("/", "*")]
    assert main(["compare", "--program", str(program), "--all",
                 "--out", str(out)]) == 0
    reports = json.loads(out.read_text())["reports"]
    assert len(reports) == 7
    for report in reports:
        assert report["verdicts"][f"M{mid}"] == "killed:exception", \
            report["strategy"]


def test_fuzz_invalid_test_names_the_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "fuzz_program",
                        lambda seed: "def test_a():\n    assert 1 == 2\n")
    assert main(["fuzz", "--count", "2", "--seed", "7"]) == 1
    assert capsys.readouterr().err == "seed 7: invalid test: assert at 2:5\n"


def test_fuzz_generator_defect_is_exit_4(capsys, monkeypatch):
    # only a syntax error makes the generator try its next salt; a defect
    # of mutlab while probing a candidate ends the run at once
    calls = []

    def broken(ast):
        calls.append(ast)
        raise KeyError("compile")

    monkeypatch.setattr("mutlab.fuzz.compile_program", broken)
    assert main(["fuzz", "--count", "1"]) == 4
    assert capsys.readouterr().err == "error: internal: KeyError('compile')\n"
    assert len(calls) == 1


def test_disagreements_are_exit_3_one_line_each(good, capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_consistency",
                        lambda analysis: ["M1: a=x vs b=y", "M2: a=x vs b=z"])
    monkeypatch.setattr(cli, "CORPUS_PROGRAMS", ["euler"])
    for argv, prefix in ((["compare", "--program", good], "consistency"),
                         (["corpus", "run"], "consistency[euler]"),
                         (["fuzz", "--seed", "3"], "seed 3")):
        assert main(argv) == 3
        assert capsys.readouterr().err == (f"{prefix}: M1: a=x vs b=y\n"
                                           f"{prefix}: M2: a=x vs b=z\n")


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mutlab", "compare", "--program",
         "corpus/prime.ml0", "--all"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["schema"] == SCHEMA


@pytest.mark.parametrize("command", [
    ["compare", "--all", "--program", "corpus/prime.ml0"],
    ["mutants", "list", "--program", "corpus/prime.ml0"],
    ["fuzz", "--count", "1", "--seed", "0"],
])
@pytest.mark.parametrize("sink", ["full", "closed pipe"])
def test_failed_stdout_write_is_a_usage_error(command, sink):
    """Stdout on a full device, or on a pipe nobody reads (as in
    `mutlab ... | head -1`), fails like an unwritable --out: exit 2 and one
    line on stderr, with no `Exception ignored` from the final flush."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    if sink == "full":
        stdout = os.open("/dev/full", os.O_WRONLY)
        reason = "No space left on device"
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)
        reason = "Broken pipe"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mutlab", *command], cwd=root, env=env,
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300)
    finally:
        os.close(stdout)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write stdout: {reason}\n"


@pytest.mark.parametrize("command", [["--help"], ["compare", "-h"]])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_help_on_a_full_device_is_a_usage_error(command, unbuffered):
    """Help that cannot be written exits 2 like any other stdout write.
    Unbuffered, argparse's own write would fail, and argparse ignores
    that; buffered, the failure comes at the final flush."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    stdout = os.open("/dev/full", os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mutlab", *command], cwd=root, env=env,
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300)
    finally:
        os.close(stdout)
    assert proc.returncode == 2
    assert proc.stderr == \
        "error: cannot write stdout: No space left on device\n"


def test_full_stdout_is_no_error_when_nothing_is_written(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
    stdout = os.open("/dev/full", os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mutlab", "compare", "--all", "--program",
             "corpus/prime.ml0", "--out", str(tmp_path / "report.json")],
            cwd=root, env=env, stdout=stdout, stderr=subprocess.PIPE,
            text=True, timeout=300)
    finally:
        os.close(stdout)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads((tmp_path / "report.json").read_text())["schema"] == SCHEMA


def test_help_is_printed_to_stdout(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["compare", "-h"])
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: mutlab compare [-h] --program PROGRAM")
    assert err == ""


ANALYZE_AND_COMPARE = pytest.mark.parametrize("command", [
    ["analyze", "--strategy", "exec-taints"],
    ["compare", "--all"],
])


@ANALYZE_AND_COMPARE
def test_recursion_error_is_exit_4_without_traceback(good, capsys, monkeypatch,
                                                     command):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr("mutlab.cli.analyze_program", too_deep)
    assert main([*command, "--program", good]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal: RecursionError(")
    assert err.count("\n") == 1 and "Traceback" not in err


DEEP_RECURSION = """\
def down(n):
    if n == 0:
        return 0
    return down(n - 1) + 1

def test_down():
    assert down(300) == 300
"""


@ANALYZE_AND_COMPARE
def test_deep_recursion_reproducer_exits_4_without_traceback(tmp_path, command):
    """Pins a known defect, not the wanted behaviour: this valid program
    recurses deeper than Python's recursion limit allows, so mutlab stops
    with an internal error. When the language gets its own depth
    limit (ROADMAP item 2), this test changes to expect that limit."""
    program = tmp_path / "down.ml0"
    program.write_text(DEEP_RECURSION)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mutlab", *command, "--program", str(program)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: internal: ")
    assert proc.stdout == ""


@pytest.mark.parametrize("source, message", [
    ("x = " + "9" * 5000, "2:9: integer literal of 5000 digits is too long"),
    ("x = 2\u00b2", "2:10: unexpected character '\u00b2'"),
    ("x = \u0663", "2:9: unexpected character '\u0663'"),
])
def test_bad_literal_is_a_syntax_error(tmp_path, capsys, source, message):
    program = tmp_path / "literal.ml0"
    program.write_text(f"def test_f():\n    {source}\n", encoding="utf-8")
    with pytest.raises(SystemExit) as e:
        main(["compare", "--program", str(program), "--all"])
    assert usage_error_line(capsys, e) == f"error: {program}: {message}\n"


def nested_program(kind: str, depth: int) -> tuple[str, int]:
    """A program whose `f` nests `depth` levels of `kind`, and the column of
    the token that opens its last level."""
    if kind == "parentheses":  # 1 + (1 + (... (x) ...)), a point per level
        line = "    return " + "1 + (" * depth + "x" + ")" * depth
        value, opener = depth + 1, "("
    else:
        line = "    return " + "-" * depth + "x"
        value, opener = (-1) ** depth, "-"
    col = [i + 1 for i, c in enumerate(line) if c == opener][-1]
    return (f"def f(x):\n{line}\n\ndef test_f():\n"
            f"    assert f(1) == {value}\n"), col


@pytest.mark.parametrize("kind", ["parentheses", "unary minus"])
def test_nesting_limit_in_compare(tmp_path, kind):
    """At `MAX_NESTING` levels every pass, the seven strategies included,
    runs within Python's default recursion limit; one more level is a
    syntax error at its opening token."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for depth in (MAX_NESTING, MAX_NESTING + 1):
        text, col = nested_program(kind, depth)
        program = tmp_path / f"nested{depth}.ml0"
        program.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "mutlab", "compare", "--program",
             str(program), "--all"],
            env=env, capture_output=True, text=True, timeout=300)
        if depth == MAX_NESTING:
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["schema"] == SCHEMA
        else:
            assert proc.returncode == 2
            assert proc.stderr == (f"error: {program}: 2:{col}: nesting "
                                   f"deeper than {MAX_NESTING} levels\n")


def test_deep_operator_chain_in_compare(tmp_path):
    """600 terms used to exhaust Python's recursion limit (exit 4); past
    `MAX_DEPTH` the chain is a syntax error at the operator that passes it."""
    program = tmp_path / "chain.ml0"
    program.write_text("def f(x):\n    return " + " + ".join(["x"] * 600)
                       + "\n\ndef test_f():\n    assert f(1) == 600\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mutlab", "compare", "--program", str(program),
         "--all"], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    col = len("    return x ") + 4 * MAX_DEPTH - 3
    assert proc.stderr == (f"error: {program}: 2:{col}: expression deeper "
                           f"than {MAX_DEPTH} levels\n")
    assert proc.stdout == ""


def block_program(keywords: list[str], inner: str) -> str:
    """`f` with one `if` or `while x > 0` block per keyword, each inside
    the one before, around `y = inner` and `x = 0`, and a test that `f(1)`
    returns x + 1 + 1 + ... evaluated at x = 1."""
    lines = ["def f(x):"]
    for i, kw in enumerate(keywords):
        lines.append("    " * (i + 1) + f"{kw} x > 0:")
    pad = "    " * (len(keywords) + 1)
    lines += [pad + f"y = {inner}", pad + "x = 0", "    return y", "",
              "def test_f():", f"    assert f(1) == {inner.count('x')}"]
    return "\n".join(lines) + "\n"


def compare_capped(program: Path) -> subprocess.CompletedProcess:
    """`compare --all` on `program` in a child process whose address space
    is capped at 2 GiB."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-m", "mutlab", "compare", "--program", str(program),
         "--all"], env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=cap)


ARMS = ["    if x == 0:", "        return 0"] + [
    line for i in range(1, 1000)
    for line in (f"    elif x == {i}:", f"        return {i}")]


@pytest.mark.parametrize("text, at", [
    ("def f(x):\n" + "\n".join(ARMS) + "\n    return -1\n\n"
     "def test_f():\n    assert f(3) == 3\n",
     f"{2 * MAX_BLOCK_DEPTH + 2}:5"),
    (block_program(["if"] * 450, "x"),
     f"{MAX_BLOCK_DEPTH + 2}:{4 * MAX_BLOCK_DEPTH + 5}"),
], ids=["elif chain of 1000 arms", "450 nested ifs"])
def test_block_nesting_limit_in_compare(tmp_path, text, at):
    """Both used to exhaust Python's recursion limit (exit 4); the block
    one past `MAX_BLOCK_DEPTH` is a syntax error at its keyword."""
    program = tmp_path / "blocks.ml0"
    program.write_text(text)
    proc = compare_capped(program)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: {program}: {at}: blocks nested deeper "
                           f"than {MAX_BLOCK_DEPTH} levels\n")
    assert proc.stdout == ""


GROW = """\
def grow(n):
    s = "ab"
    i = 0
    while i < n:
        s = s + s
        i = i + 1
    return len(s)

def test_g():
    assert grow(10) == 2048
"""


@pytest.mark.parametrize("start", ['"ab"', "[1, 2]"], ids=["string", "list"])
def test_concatenation_limit_in_compare(tmp_path, start):
    """Both used to exhaust memory (exit 4, `MemoryError`): a mutant that
    keeps the loop running doubles `s` until its budget. Its `+` past
    `MAX_SIZE` is now an overflow, and all seven strategies agree."""
    program = tmp_path / "grow.ml0"
    program.write_text(GROW.replace('"ab"', start))
    proc = compare_capped(program)
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)["reports"]
    assert len(reports) == 7
    assert len({json.dumps(r["verdicts"]) for r in reports}) == 1
    assert {(r["killed_by_cause"]["exception"],
             r["killed_by_cause"]["assertion"], r["survived"])
            for r in reports} == {(20, 7, 3)}


def test_block_nesting_limit_worst_case_in_compare(tmp_path):
    """`MAX_BLOCK_DEPTH` blocks around a `MAX_DEPTH`-deep expression in
    `MAX_NESTING - 1` brackets: every pass, the seven strategies included,
    stays within Python's default recursion limit."""
    levels = MAX_NESTING - 1
    inner = ("x + (" * levels + " + ".join(["x"] * (MAX_DEPTH - levels))
             + ")" * levels)
    assert parse_program(f"def f(x):\n    return {inner}\n")
    program = tmp_path / "worst.ml0"
    program.write_text(block_program(["if", "while"] * (MAX_BLOCK_DEPTH // 2),
                                     inner))
    proc = compare_capped(program)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["schema"] == SCHEMA


def test_unexpected_exception_is_exit_4(good, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise KeyError("x")
    monkeypatch.setattr("mutlab.cli.analyze_program", boom)
    assert main(["analyze", "--program", good, "--strategy", "traditional"]) == 4
    assert capsys.readouterr().err == "error: internal: KeyError('x')\n"
