"""In-memory span and count recorder for the traced benchmark pass.

Spans are recorded from the benchmark's own files, around calls into the
package's public functions; nothing inside ``caliblist`` is instrumented.
A span is ``[name, start, end, parent, job, child_s]`` where ``child_s`` is
the time covered by its direct children, so self time is
``end - start - child_s``.

Callables invoked hundreds of thousands of times per job (set functions,
sequence objectives) are wrapped with :meth:`Trace.summed`, which adds a
call count and the summed duration instead of one span per call, and
credits that duration to the enclosing span as child time.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from caliblist.core import OverlapMeasure

NAME, START, END, PARENT, JOB, CHILD = range(6)


class Trace:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.summed_s: Counter = Counter()
        self.job = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf_counter(), None, parent, self.job, 0.0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent][CHILD] += rec[END] - rec[START]

    def timed(self, name: str, fn):
        """Wrap ``fn`` so that every call records one span."""
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def summed(self, name: str, fn):
        """Wrap ``fn`` so that calls add to ``<name>_calls`` and ``<name>`` time."""
        counts, summed_s, stack, spans = (
            self.counts, self.summed_s, self._stack, self.spans)
        calls = name + "_calls"

        def wrapper(*args):
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
            counts[calls] += 1
            summed_s[name] += dt
            if stack:
                spans[stack[-1]][CHILD] += dt
            return out
        return wrapper

    def total(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name)

    def self_time(self, name: str) -> float:
        return sum(s[END] - s[START] - s[CHILD]
                   for s in self.spans if s[NAME] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name)


class CountingMeasure(OverlapMeasure):
    """Delegates to a measure, counting ``value`` calls and tracing batches.

    ``evaluate`` is inherited, so it reaches the inner measure through the
    counted :meth:`value`; results are those of the inner measure.
    """

    def __init__(self, inner: OverlapMeasure, trace: Trace):
        self.inner = inner
        self.name = inner.name
        self.trace = trace

    def value(self, p, q):
        self.trace.counts["core.value_calls"] += 1
        return self.inner.value(p, q)

    def value_batch(self, p, Q):
        self.trace.counts["core.value_batch_calls"] += 1
        self.trace.counts["core.value_batch_rows"] += len(Q)
        with self.trace.span("core.value_batch"):
            return self.inner.value_batch(p, Q)

    def params(self):
        return self.inner.params()


@contextmanager
def patched(module, attr: str, wrap):
    """Replace ``module.attr`` by ``wrap(original)`` and restore it on exit."""
    original = getattr(module, attr)
    setattr(module, attr, wrap(original))
    try:
        yield
    finally:
        setattr(module, attr, original)
