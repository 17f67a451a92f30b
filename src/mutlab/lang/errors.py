"""Error types shared by the parser and the evaluators."""

from __future__ import annotations

from .nodes import Loc


class MiniSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class RunEnded(Exception):
    """A way a run ends other than returning. Each names, once, the
    `Outcome` status it gives the run and the kill cause it gives a mutant;
    `kind` and `loc` are None where it has none. A syntax error ends no
    run."""
    status: str
    cause: str
    kind: str | None = None
    loc: Loc | None = None


class MiniRuntimeError(RunEnded):
    """A runtime failure in the mini-language (division by zero, bad types,
    overflow, index errors, arity mismatch...)."""
    status, cause = "error", "exception"

    def __init__(self, kind: str, message: str, loc: Loc | None = None):
        super().__init__(f"{kind}: {message}" + (f" at {loc}" if loc else ""))
        self.kind = kind
        self.message = message
        self.loc = loc


class MiniAssertionError(RunEnded):
    status, cause = "assert", "assertion"

    def __init__(self, loc: Loc):
        super().__init__(f"assertion failed at {loc}")
        self.loc = loc


class StepBudgetExceeded(RunEnded):
    """Raised when an execution exceeds its statement budget."""
    status = cause = "timeout"
