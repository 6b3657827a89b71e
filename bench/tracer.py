"""Spans around the library's public functions, for the traced run.

``Tracer.install`` replaces each traced function in every module namespace
that binds it (``verify`` and ``squares`` import ``eigh`` and ``deck`` by
name, the package re-exports everything, and ``verify_det_identity`` imports
from ``core`` at call time), and ``restore`` puts the originals back. Each
call records a span with its parent, timed on the thread's CPU clock like the
operations; a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import eigenrecon
from eigenrecon import cli, core, secular, squares, verify

NAMESPACES = (eigenrecon, core, squares, secular, verify, cli)
TRACED = {
    core: ("eigh", "deck", "parse_matrix"),
    squares: ("square_table", "square_table_from_deck", "reconstruct_square"),
    secular: ("build_secular", "secular_eval", "secular_roots", "rank1_update",
              "verify_det_identity"),
    verify: ("verify_gm", "verify_theorem_main", "probe_permutation_conjecture"),
    cli: ("main",),
}
# Calls whose arguments and result the harness checks after the operation.
CAPTURED = ("secular.rank1_update", "squares.square_table")


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0


@dataclass
class OpTrace:
    """What one operation did, by traced function name."""

    calls: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    eigh_sizes: Counter = field(default_factory=Counter)
    eigh_redundant: int = 0
    roots: int = 0
    captured: list = field(default_factory=list)


class Tracer:
    """Records spans for one operation at a time (``begin_op``/``end_op``)."""

    def __init__(self):
        self._spans: list[Span] = []
        self._open: list[int] = []
        self._eigh_inputs: set[bytes] = set()
        self._op = OpTrace()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for home, names in TRACED.items():
            module = home.__name__.rsplit(".", 1)[-1]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module}.{name}", original)
                for ns in NAMESPACES:
                    if getattr(ns, name, None) is original:
                        self._saved.append((ns, name, original))
                        setattr(ns, name, wrapper)

    def restore(self) -> None:
        for ns, name, original in reversed(self._saved):
            setattr(ns, name, original)
        self._saved.clear()

    def begin_op(self) -> None:
        self._spans.clear()
        self._open.clear()
        self._eigh_inputs.clear()
        self._op = OpTrace()

    def end_op(self) -> OpTrace:
        op = self._op
        child_s = [0.0] * len(self._spans)
        for span in self._spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        for span, children in zip(self._spans, child_s):
            op.self_s[span.name] += span.end - span.start - children
            op.calls[span.name] += 1
        return op

    def _wrap(self, name: str, fn):
        spans, open_ = self._spans, self._open

        def traced(*args, **kwargs):
            if name == "core.eigh":
                self._note_eigh(args[0])
            span = Span(name, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.thread_time()
                open_.pop()
            if name == "secular.secular_roots":
                self._op.roots += len(result)
            elif name in CAPTURED:
                self._op.captured.append((name, args, result))
            return result

        return traced

    def _note_eigh(self, matrix) -> None:
        key = matrix.entries.tobytes()
        if key in self._eigh_inputs:
            self._op.eigh_redundant += 1
        self._eigh_inputs.add(key)
        self._op.eigh_sizes[matrix.n] += 1
