#!/usr/bin/env python3
"""mutlab benchmark: kill-matrix wall time on two pinned workloads.

    python3 bench/run.py --workload corpus|fuzz --seed N --seconds S --trace 0|1

Run from any directory; the checkout is the parent of `bench/`. The seed
fixes the order in which programs and operations run; the programs
themselves are pinned (see workloads.py). One operation is one program run
through one user-facing path, timed from outside the library exactly as the
CLI runs it:

- `compare`: parse, `analyze_program` with all seven strategies,
  `check_consistency`, `reports_from_analysis` and `emit_json`;
- `analyze:<strategy>`: parse, `analyze_program` with that one strategy,
  `reports_from_analysis` and `emit_json`, for `traditional` and
  `exec-taints`.

`--trace 0` repeats rounds of every operation on every program, in an order
shuffled by the seed, while another round fits in `--seconds` (at least two
rounds), and reports end-to-end metrics: each path's time, in reference
seconds (see `RefClock`), as the sum over programs of the per-program
median. `--trace 1` alternates untraced and traced compare passes and
reports per-layer metrics from the traced ones (see tracing.py).
Every operation's outputs are checked (see `Checker`). The last line of
stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
Exit code 2, with no result line, when the checkout's inputs or library are
missing or differ from the pinned ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from workloads import ROOT, InputError

SETUP_PROBES = 9
MIN_ROUNDS = 2
BUDGET_MULT = 10
ANALYZED = ("traditional", "exec-taints")
MEMO_VARIANTS = ("exec-taints-nf", "exec-taints")
SMOKE_PROGRAMS = {"corpus": 1, "fuzz": 2}
# Median time of the calibration kernel on the 2-vCPU Xeon VM the benchmark
# was pinned on; see RefClock.
REFERENCE_S = 0.036
KERNEL_WINDOW = 3


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _calibration_kernel() -> int:
    """Fixed pure-Python work of the kind the interpreter does: objects,
    isinstance dispatch, dict updates, small strings. Independent of mutlab."""
    table: dict = {}
    acc = 0
    for i in range(60_000):
        node = _Node(i & 255, i)
        if isinstance(node, _Node):
            table[node.key] = table.get(node.key, 0) + node.value
        acc += len(str(i))
    return acc + len(table)


class RefClock:
    """Reports times in reference seconds: an interval's wall time scaled by
    REFERENCE_S over the calibration kernel's mean time in a window of
    KERNEL_WINDOW runs of the kernel before and after the interval (the
    kernel runs after every interval). Each vCPU of the VM flips between a
    fast and a ~1.75x slower state every second or so (co-tenants, not
    steal time: CPU time moves with wall time), so an operation's slowdown
    is the share of its time spent slow, which the mean of nearby kernel
    times estimates (a median would snap to one state). The scaling removes
    most of that common factor, and over-corrects a little because the
    kernel is more sensitive to it than mutlab; a change to mutlab's own
    speed is not scaled away because the kernel runs no mutlab code."""

    def __init__(self):
        self.kernels = [self._kernel_s()]

    @staticmethod
    def _kernel_s() -> float:
        gc.collect()
        t0 = perf_counter()
        _calibration_kernel()
        return perf_counter() - t0

    def mark(self) -> int:
        """Close an interval that has just ended; return its index."""
        self.kernels.append(self._kernel_s())
        return len(self.kernels) - 1

    def scale(self, index: int, wall_s: float) -> float:
        """Reference seconds of interval `index`, once every mark is made."""
        window = self.kernels[max(0, index - KERNEL_WINDOW):index + KERNEL_WINDOW]
        return wall_s * REFERENCE_S / statistics.fmean(window)


def setup(workload: str, smoke: bool):
    """Import the library from the checkout and load the pinned inputs."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mutlab
    except ImportError as err:
        raise InputError(f"cannot import mutlab from {src}: {err}")
    if Path(mutlab.__file__).resolve().parent != src / "mutlab":
        raise InputError(f"mutlab imported from {mutlab.__file__}, not {src}")
    import mutlab.lang.parser    # noqa: F401  (the CLI's imports)
    import mutlab.report         # noqa: F401
    import mutlab.strategies     # noqa: F401
    programs = workloads.load_checked(workload)
    pins = workloads.pinned_verdicts()
    missing = [p.name for p in programs if p.name not in pins]
    if missing:
        raise InputError(f"no pinned kill matrix for {missing}")
    if smoke:
        programs = programs[:SMOKE_PROGRAMS[workload]]
    return programs, pins


def setup_seconds(args) -> float:
    """Median wall time from starting a fresh interpreter to setup done.
    Not scaled by RefClock: process start-up and imports slow down far less
    than the calibration kernel when the VM is contended."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    times = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        t0 = perf_counter()
        probe = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - t0)
        if probe.returncode != 0:
            raise InputError(f"setup probe failed: {probe.stderr.strip()}")
    return statistics.median(times)


# --- one operation ---

def run_op(program, strategy: str | None):
    """One CLI path over one program: compare (strategy None) or analyze."""
    from mutlab import report, strategies
    from mutlab.lang import parser
    names = list(strategies.STRATEGY_NAMES) if strategy is None else [strategy]
    ast = parser.parse_program(program.text)
    analysis = strategies.analyze_program(
        ast, strategies.AnalysisConfig(names, BUDGET_MULT))
    problems = strategies.check_consistency(analysis) if strategy is None else []
    text = report.emit_json(
        report.reports_from_analysis(program.name, analysis, BUDGET_MULT))
    return analysis, problems, text


class Checker:
    """Checks each operation's outputs. A kill matrix (including kill causes)
    must match the program's pinned matrix, every strategy's and every path's;
    statement counts, mutant counts and the JSON report must repeat exactly
    from pass to pass; compare must report no disagreement."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.seen: dict = {}
        self.attempted = 0
        self.failed = 0

    def attempt(self, op, program, strategy):
        """Run `op(program, strategy)`, check it, and return (seconds, result);
        any exception or wrong output counts as one failed operation."""
        self.attempted += 1
        gc.collect()
        t0 = perf_counter()
        try:
            result = op(program, strategy)
            dt = perf_counter() - t0
            errors = self._check(program, strategy, *result)
        except Exception:
            dt = perf_counter() - t0
            result = None
            errors = [traceback.format_exc()]
        if errors:
            self.failed += 1
            path = "compare" if strategy is None else f"analyze:{strategy}"
            for e in errors:
                print(f"FAILED {program.name} {path}: {e}", file=sys.stderr)
        return dt, result

    def _check(self, program, strategy, analysis, problems, text) -> list[str]:
        if not analysis.valid:
            return [f"original fails its test {analysis.invalid_test}"]
        errors = list(problems)
        for name, run in analysis.runs.items():
            if workloads.verdict_digest(run.verdicts) != self.pins[program.name]:
                errors.append(f"{name}: kill matrix differs from the pin")
            got = (run.program_stmts, len(analysis.mutants))
            want = self.seen.setdefault((program.name, name), got)
            if got != want:
                errors.append(f"{name}: (stmts, mutants) {got} != {want}")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.seen.setdefault((program.name, strategy, "json"), digest) != digest:
            errors.append("JSON report differs from the previous pass")
        return errors


def _sum_of_medians(times: dict) -> float:
    return sum(statistics.median(ts) for ts in times.values())


# --- trace 0: end-to-end ---

def timed_run(programs, checker, rng, seconds):
    import tracing  # imports mutlab: needs setup() to put src/ on the path
    paths = [None, *ANALYZED]
    samples = []  # (path, program name, interval index, wall seconds)
    clock = RefClock()
    deadline = perf_counter() + seconds
    rounds, round_s = 0, 0.0
    while rounds < MIN_ROUNDS or perf_counter() + round_s <= deadline:
        start = perf_counter()
        tracing.assert_clean()
        order = [(p, prog) for p in paths for prog in programs]
        rng.shuffle(order)
        for path, prog in order:
            dt, _ = checker.attempt(run_op, prog, path)
            samples.append((path, prog.name, clock.mark(), dt))
        rounds += 1
        round_s = perf_counter() - start
    times = {p: {prog.name: [] for prog in programs} for p in paths}
    wall = {p: {prog.name: [] for prog in programs} for p in paths}
    for path, name, index, dt in samples:
        wall[path][name].append(dt)
        times[path][name].append(clock.scale(index, dt))
    for prog in programs:
        row = {"program": prog.name}
        for p in paths:
            name = "compare_s" if p is None else f"analyze_s.{p}"
            row[name] = statistics.median(times[p][prog.name])
            row[f"wall.{name}"] = statistics.median(wall[p][prog.name])
        print(json.dumps(row))
    metrics = {"compare_s": (_sum_of_medians(times[None]), "s")}
    for p in ANALYZED:
        metrics[f"analyze_s.{p}"] = (_sum_of_medians(times[p]), "s")
    return metrics, rounds


# --- trace 1: per layer ---

def traced_run(programs, checker, rng, seconds):
    import tracing
    samples = []  # (traced?, program name, interval index, wall seconds)
    per_round = []
    clock = RefClock()
    deadline = perf_counter() + seconds
    round_s = 0.0
    while len(per_round) < MIN_ROUNDS or perf_counter() + round_s <= deadline:
        start = perf_counter()
        order = list(programs)
        rng.shuffle(order)
        tracing.assert_clean()
        for prog in order:
            dt, _ = checker.attempt(run_op, prog, None)
            samples.append((False, prog.name, clock.mark(), dt))
        tracer = tracing.Tracer()
        op = tracer.traced(run_op, "bench.compare")
        analyses = {}
        tracer.install()
        try:
            for prog in order:
                dt, result = checker.attempt(op, prog, None)
                samples.append((True, prog.name, clock.mark(), dt))
                if result is not None:
                    analyses[prog.name] = result[0]
        finally:
            tracer.uninstall()
        per_round.append(layer_metrics(tracer, analyses))
        round_s = perf_counter() - start
    times = {flag: {prog.name: [] for prog in programs} for flag in (False, True)}
    for flag, name, index, dt in samples:
        times[flag][name].append(clock.scale(index, dt))
    metrics = {}
    for name, (_, unit) in per_round[0].items():
        values = [m[name][0] for m in per_round]
        if unit == "count":
            if len(set(values)) > 1:
                checker.failed += 1
                print(f"FAILED count {name} differs between passes: {values}",
                      file=sys.stderr)
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    traced_s = _sum_of_medians(times[True])
    untraced_s = _sum_of_medians(times[False])
    metrics["trace.compare_s"] = (traced_s, "s")
    metrics["trace.untraced_compare_s"] = (untraced_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    share = metrics["trace.self_share"][0]
    if not 0.95 <= share <= 1.0 + 1e-9:
        checker.failed += 1
        print(f"FAILED layer self times cover {share:.4f} of traced compare_s",
              file=sys.stderr)
    return metrics, len(per_round)


def layer_metrics(tracer, analyses) -> dict:
    """Per-layer metrics of one traced compare pass: name -> (value, unit)."""
    from mutlab.strategies import ENGINE_VARIANTS, STRATEGY_NAMES
    t = tracer
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    per_variant = {v: {"contexts": 0, "divergences": 0, "root_stmts": 0,
                       "child_stmts": 0, "infra_ops": 0, "hits": 0,
                       "misses": 0, "clears": 0, "mcache_writes": 0}
                   for v in ENGINE_VARIANTS}
    pending_end = taint_ops = 0
    for variant, rep in t.reports:
        acc = per_variant[variant]
        acc["contexts"] += len(rep.context_stmts)
        acc["divergences"] += len(rep.divergences)
        acc["root_stmts"] += rep.context_stmts[0]
        acc["child_stmts"] += sum(rep.context_stmts[1:])
        acc["infra_ops"] += rep.infra.total()
        acc["mcache_writes"] += rep.infra.mcache_writes
        for k in ("hits", "misses", "clears"):
            acc[k] += rep.memo_stats.get(k, 0)
        pending_end += rep.pending_end
        taint_ops += rep.infra.taint_ops

    for v in MEMO_VARIANTS:
        acc = per_variant[v]
        put(f"memo.key_calls.{v}", t.calls(f"memo.key.{v}"), "count")
        put(f"memo.key_s.{v}", t.total_s(f"memo.key.{v}"), "s")
        put(f"memo.record_calls.{v}", t.calls(f"memo.record.{v}"), "count")
        put(f"memo.record_s.{v}", t.total_s(f"memo.record.{v}"), "s")
        put(f"memo.lookup_calls.{v}", t.calls(f"memo.lookup.{v}"), "count")
        put(f"memo.lookup_s.{v}", t.total_s(f"memo.lookup.{v}"), "s")
        put(f"memo.store_calls.{v}", t.calls(f"memo.store.{v}"), "count")
        put(f"memo.hits.{v}", acc["hits"], "count")
        put(f"memo.misses.{v}", acc["misses"], "count")
        looked = acc["hits"] + acc["misses"]
        put(f"memo.hit_ratio.{v}", acc["hits"] / looked if looked else 0.0,
            "ratio")
        put(f"memo.clears.{v}", acc["clears"], "count")
        put(f"memo.mcache_writes.{v}", acc["mcache_writes"], "count")

    for role in ("original", "isolated", "engine_pre"):
        put(f"lang.run_entry_s.{role}", t.total_s(f"lang.run_entry.{role}"), "s")
    iso_s = t.total_s("lang.run_entry.isolated")
    iso_stmts = t.work("lang.run_entry.isolated")
    put("lang.run_entry_calls.isolated", t.calls("lang.run_entry.isolated"),
        "count")
    put("lang.run_entry_stmts.isolated", iso_stmts, "count")
    put("lang.stmts_per_s", iso_stmts / iso_s if iso_s else 0.0, "1/s")
    put("lang.parse_s", t.total_s("lang.parse"), "s")
    put("lang.compile_s", t.total_s("lang.compile"), "s")

    put("taints.apply_binary_calls", t.calls("taints.apply_binary"), "count")
    put("taints.apply_binary_s", t.total_s("taints.apply_binary"), "s")
    put("taints.partition_calls", t.calls("taints.partition"), "count")
    put("taints.partition_s", t.total_s("taints.partition"), "s")
    put("taints.concretize_env_calls", t.calls("taints.concretize_env"), "count")
    put("taints.taint_ops", taint_ops, "count")

    for v, acc in per_variant.items():
        put(f"engine.run_test_s.{v}", t.total_s(f"engine.run_test.{v}"), "s")
        put(f"engine.self_s.{v}", t.self_s(f"engine.run_test.{v}"), "s")
        for k in ("contexts", "divergences", "root_stmts", "child_stmts",
                  "infra_ops"):
            put(f"engine.{k}.{v}", acc[k], "count")
    put("engine.pending_end", pending_end, "count")

    for s in ("traditional", "split-stream", "modulo-state"):
        put(f"strategies.baseline_self_s.{s}", t.self_s(f"strategies.{s}"), "s")
    put("strategies.isolated_runs", t.calls("lang.run_entry.isolated"), "count")
    put("strategies.consistency_s", t.total_s("strategies.consistency"), "s")
    for s in STRATEGY_NAMES:
        put(f"strategies.stmts.{s}",
            sum(a.runs[s].program_stmts for a in analyses.values()), "count")
    ratios = [a.runs["exec-taints"].program_stmts / a.runs["traditional"].program_stmts
              for a in analyses.values()]
    put("strategies.stmt_ratio", statistics.fmean(ratios) if ratios else 0.0,
        "ratio")

    put("mutate.discover_s", t.total_s("mutate.discover"), "s")
    put("mutate.meta_s", t.total_s("mutate.meta"), "s")
    put("mutate.points", t.work("mutate.discover"), "count")
    put("mutate.mutants", t.work("mutate.enumerate"), "count")
    put("report.build_s", t.total_s("report.build"), "s")
    put("report.emit_json_s", t.total_s("report.emit_json"), "s")
    put("report.json_bytes", t.work("report.emit_json"), "count")

    layers = t.layer_self_s()
    for layer in ("bench", "lang", "mutate", "strategies", "engine", "taints",
                  "memo", "report"):
        put(f"trace.self_s.{layer}", layers.get(layer, 0.0), "s")
    compare_s = t.total_s("bench.compare")
    inside = sum(v for k, v in layers.items() if k != "bench")
    put("trace.self_share", inside / compare_s if compare_s else 0.0, "ratio")
    return m


# --- run context ---

def run_context(args, loadavg) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": loadavg,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over the library's sources, naming the code without git."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run only the first program(s) of the workload")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        programs, pins = setup(args.workload, args.smoke)
        if args.setup_probe:
            return 0
        setup_s = None if args.trace else setup_seconds(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    print(json.dumps({"context": run_context(args, loadavg)}))
    checker = Checker(pins)
    rng = random.Random(args.seed)
    if args.trace:
        metrics, rounds = traced_run(programs, checker, rng, args.seconds)
    else:
        metrics, rounds = timed_run(programs, checker, rng, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        ok = checker.attempted - checker.failed
        metrics["ok_share"] = (ok / checker.attempted, "share")
    print(json.dumps({"rounds": rounds, "programs": len(programs)}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
