"""CLI: exit codes, output formats, determinism, environment config."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mutlab.cli import main
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


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mutlab", "compare", "--program",
         "corpus/prime.ml0", "--all"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["schema"] == SCHEMA


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
    limit (ROADMAP item 3), this test changes to expect that limit."""
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


def test_unexpected_exception_is_exit_4(good, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise KeyError("x")
    monkeypatch.setattr("mutlab.cli.analyze_program", boom)
    assert main(["analyze", "--program", good, "--strategy", "traditional"]) == 4
    assert capsys.readouterr().err == "error: internal: KeyError('x')\n"
