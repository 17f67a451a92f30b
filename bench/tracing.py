"""Outside-in tracing of mutlab's layers.

`Tracer.install()` replaces public functions of `lang`, `mutate`, `taints`,
`memo`, `engine`, `strategies` and `report` with timing wrappers, at the
module attribute their callers look up (for example `make_call_key` where
`engine` imports it); `uninstall()` puts the originals back and
`assert_clean()` checks that they are back. No file of the library changes.

Every boundary adds its call count, total time and self time (total minus
the time of the wrapped calls inside it) to an aggregate keyed by label.
Boundaries that run millions of times (`hot`) keep only that aggregate;
the others also keep a span (label, start, end, parent span) in memory.
Labels of memo and engine boundaries carry the engine variant that is
running, taken from the `EngineConfig` passed to `run_test`.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import NamedTuple

import mutlab.engine as engine
import mutlab.lang.parser as parser
import mutlab.memo as memo
import mutlab.report as report
import mutlab.strategies as strategies
import mutlab.taints as taints

VARIANT_OF = {flags: name for name, flags in strategies.ENGINE_VARIANTS.items()}


def _run_entry_label(args, kwargs):
    return ("lang.run_entry.isolated" if kwargs.get("select", 0)
            else "lang.run_entry.original")


def _stmts(outcome) -> int:
    return outcome.stmts


class Boundary(NamedTuple):
    owner: object
    attr: str
    label: object            # str, or f(args, kwargs) -> str
    hot: bool = False        # aggregate only, no span per call
    per_variant: bool = False
    work: object = None      # f(result) -> units of work done by the call


BOUNDARIES = [
    Boundary(parser, "parse_program", "lang.parse"),
    Boundary(strategies, "compile_program", "lang.compile"),
    Boundary(strategies, "run_entry", _run_entry_label, work=_stmts),
    Boundary(engine, "run_entry", "lang.run_entry.engine_pre", work=_stmts),
    Boundary(strategies, "discover_mutation_points", "mutate.discover", work=len),
    Boundary(strategies, "enumerate_mutants", "mutate.enumerate", work=len),
    Boundary(strategies, "generate_meta_mutant", "mutate.meta"),
    Boundary(strategies, "analyze_program", "strategies.analyze"),
    Boundary(strategies, "run_traditional", "strategies.traditional"),
    Boundary(strategies, "run_split_stream", "strategies.split-stream"),
    Boundary(strategies, "run_modulo_state", "strategies.modulo-state"),
    Boundary(strategies, "check_consistency", "strategies.consistency"),
    Boundary(strategies, "run_test", "engine.run_test", per_variant=True),
    Boundary(taints, "apply_binary", "taints.apply_binary", hot=True),
    Boundary(taints, "partition_condition", "taints.partition", hot=True),
    Boundary(taints, "concretize_env", "taints.concretize_env", hot=True),
    Boundary(engine, "make_call_key", "memo.key", hot=True, per_variant=True),
    Boundary(memo.MemoState, "record_mutation_encounter", "memo.record",
             hot=True, per_variant=True),
    Boundary(memo.MemoState, "lookup", "memo.lookup", hot=True,
             per_variant=True),
    Boundary(memo.MemoState, "store", "memo.store", hot=True, per_variant=True),
    Boundary(report, "reports_from_analysis", "report.build"),
    Boundary(report, "emit_json", "report.emit_json",
             work=lambda text: len(text.encode())),
]

ORIGINALS = {(b.owner, b.attr): getattr(b.owner, b.attr) for b in BOUNDARIES}


def assert_clean() -> None:
    """Raise unless every traced attribute holds its original function."""
    dirty = [f"{getattr(o, '__name__', o)}.{a}"
             for (o, a), fn in ORIGINALS.items() if getattr(o, a) is not fn]
    if dirty:
        raise RuntimeError(f"tracing wrappers still installed: {dirty}")


_NONE = (0, 0, 0, 0)


class Tracer:
    def __init__(self):
        # stack frames: [span id, label, start ns, ns spent in wrapped children]
        self.stack = [[0, "bench", 0, 0]]
        self.agg: dict[str, list[int]] = {}  # label -> [calls, total, self, work]
        self.spans: list[tuple] = []            # (id, label, start, end, parent)
        self.suffix = ""                        # ".<variant>" inside run_test
        self.reports: list[tuple] = []          # (variant, TestReport)
        self._next_id = 1

    def traced(self, fn, label: str):
        """`fn` wrapped as one more (non-hot) boundary."""
        return self._wrap(fn, Boundary(None, "", label))

    def _wrap(self, fn, b: Boundary):
        label, hot, per_variant, work = b.label, b.hot, b.per_variant, b.work
        stack, agg, spans, clock = self.stack, self.agg, self.spans, perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            if per_variant:
                name += tracer.suffix
            sid = 0
            if not hot:
                sid = tracer._next_id
                tracer._next_id += 1
            frame = [sid, name, clock(), 0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                rec = agg.get(name)
                if rec is None:
                    rec = agg[name] = [0, 0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[3]
                if work is not None and result is not None:
                    rec[3] += work(result)
                parent = stack[-1]
                parent[3] += dur
                if not hot:
                    spans.append((sid, name, frame[2], end, parent[0]))

        return wrapper

    def _run_test(self, fn):
        """run_test wrapper: sets the variant suffix and keeps the report."""
        def run_test(program, test, mutant_ids, point_of_mutant, cfg):
            variant = VARIANT_OF[(cfg.fork, cfg.memo)]
            outer, self.suffix = self.suffix, "." + variant
            try:
                rep = fn(program, test, mutant_ids, point_of_mutant, cfg)
            finally:
                self.suffix = outer
            self.reports.append((variant, rep))
            return rep
        return run_test

    def install(self) -> None:
        assert_clean()
        for b in BOUNDARIES:
            fn = self._wrap(ORIGINALS[(b.owner, b.attr)], b)
            if b.attr == "run_test":
                fn = self._run_test(fn)
            setattr(b.owner, b.attr, fn)

    def uninstall(self) -> None:
        for (owner, attr), fn in ORIGINALS.items():
            setattr(owner, attr, fn)
        assert_clean()

    def calls(self, label: str) -> int:
        return self.agg.get(label, _NONE)[0]

    def total_s(self, label: str) -> float:
        return self.agg.get(label, _NONE)[1] / 1e9

    def self_s(self, label: str) -> float:
        return self.agg.get(label, _NONE)[2] / 1e9

    def work(self, label: str) -> int:
        return self.agg.get(label, _NONE)[3]

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer (the label's first component)."""
        out: dict[str, float] = {}
        for label, (_calls, _total, self_ns, _work) in self.agg.items():
            layer = label.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_ns / 1e9
        return out
