"""Host-time spans around calls into the program's layers, from outside.

The program is not edited. A probe replaces one public function or method
with a wrapper while a round runs and puts the original back afterwards.
Each call becomes a span (name, start, end, parent); spans stay in memory
and are summarised once, when the round ends. A layer's self time is its
spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 for a root


@dataclass
class Tracer:
    """An in-memory span recorder plus counters taken at the same calls."""

    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] += amount


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [(s.end - s.start) - c for s, c in zip(spans, covered)]


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations_s: list[float] = field(default_factory=list)


def by_name(spans: list[Span]) -> dict[str, LayerTotals]:
    """Calls, inclusive and self time, and durations, per span name."""
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s, own in zip(spans, self_times(spans)):
        t = out[s.name]
        t.calls += 1
        t.total_s += s.end - s.start
        t.self_s += own
        t.durations_s.append(s.end - s.start)
    return out


def outermost(spans: list[Span], name: str, lo: int = 0,
              hi: int | None = None) -> list[float]:
    """Durations of ``name`` spans not nested inside another ``name`` span,
    among ``spans[lo:hi]``."""
    out = []
    for s in spans[lo:hi]:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            out.append(s.end - s.start)
    return out


@dataclass(frozen=True)
class Probe:
    """Wrap ``owner.attr`` (a class or module attribute) in a ``name`` span.

    ``before(args)`` runs inside the span before the call; its value is
    handed to ``counts(args, result, state)``, which returns the amounts to
    add to the tracer's counters.
    """

    owner: object
    attr: str
    name: str
    counts: Callable[..., dict] | None = None
    before: Callable | None = None


def _wrap(tracer: Tracer, probe: Probe, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = tracer.begin(probe.name)
        try:
            state = probe.before(args) if probe.before else None
            result = original(*args, **kwargs)
            if probe.counts:
                for counter, amount in probe.counts(args, result, state).items():
                    tracer.add(counter, amount)
            return result
        finally:
            tracer.end(index)

    return wrapper


@contextmanager
def installed(tracer: Tracer, probes: list[Probe]):
    """Install ``probes`` for the duration of the block, then restore."""
    saved = []
    try:
        for probe in probes:
            # Wrap the attribute the owner defines itself, so a subclass
            # that inherits a method is not wrapped twice.
            original = vars(probe.owner)[probe.attr]
            saved.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, _wrap(tracer, probe, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
