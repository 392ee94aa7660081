"""In-memory spans recorded around calls into kerneldrift's public functions.

A span is opened by replacing a public function at the module attribute its
caller looks it up under -- ``condexp.markov_apply`` is the name
``fit_targets`` calls, ``drift.section_matrix`` the name the predictors call
-- so no file of the library changes.  Every span records its name, start,
end, parent span and the cell it belongs to.  Counters attach to the
innermost open span, so counts are taken at the same boundaries as times.
Spans stay in memory until :func:`write_spans` dumps them at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    cell: Optional[int]
    parent: Optional[int]
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the function patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cell: Optional[int] = None
        self._stack: list[Span] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, self.cell,
                 None if parent is None else parent.id, 0.0, attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Open a span named ``name`` around every call of ``module.attr``.

        ``after(span, bound_arguments, result)`` runs once the span has
        closed, so what it inspects is not timed.
        """
        original = getattr(module, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(s, bound.arguments, result)
            return result

        self._patch(module, attr, traced, original)

    def count(self, module, attr: str, counter: str) -> None:
        """Count calls of ``module.attr`` on the innermost open span."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if self._stack:
                counts = self._stack[-1].counts
                counts[counter] = counts.get(counter, 0) + 1
            return original(*args, **kwargs)

        self._patch(module, attr, counted, original)

    def _patch(self, module, attr, replacement, original) -> None:
        setattr(module, attr, replacement)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        """Put every patched function back."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def parent_of(self, span: Span) -> Optional[Span]:
        return None if span.parent is None else self.spans[span.parent]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The library runs on one thread, so a span's children never overlap
    and the covered time is the sum of their durations.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def write_spans(spans: list[Span], path) -> None:
    """Dump spans as one JSON list of records, times relative to the first."""
    t0 = spans[0].start if spans else 0.0
    records = [
        {"id": s.id, "name": s.name, "cell": s.cell, "parent": s.parent,
         "start": s.start - t0, "end": s.end - t0,
         **({"counts": s.counts} if s.counts else {}),
         **({"attrs": s.attrs} if s.attrs else {})}
        for s in spans
    ]
    with open(path, "w") as fh:
        json.dump(records, fh, separators=(",", ":"))
        fh.write("\n")
