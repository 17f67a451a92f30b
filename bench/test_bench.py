"""Smoke-size checks of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Each run uses `--smoke` (the first one or two programs of the workload) and
checks that the result line names exactly the metrics BENCHMARK.json lists,
with their units, and that the outputs were found correct.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0",
               "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    named = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in named}
    context = json.loads(proc.stdout.splitlines()[0])["context"]
    assert {"python", "nproc", "cpu_model", "loadavg_start", "git_commit",
            "seed"} <= set(context)


def test_changed_inputs_fail_loudly(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "corpus", tmp_path / "corpus")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    prime = tmp_path / "corpus" / "prime.ml0"
    prime.write_text(prime.read_text() + "\n")
    proc = run("--workload", "corpus", "--seed", "0", "--seconds", "0",
               cwd=tmp_path, bench=tmp_path / "bench")
    assert proc.returncode == 2
    assert "corpus inputs changed" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for workload in ("corpus", "fuzz"):
        proc = run("--workload", workload, "--seed", "0", "--seconds", "1",
                   cwd=tmp_path, bench=tmp_path / "bench")
        assert proc.returncode != 0
        assert proc.stdout == ""
