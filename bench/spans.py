"""In-memory span tracing around the calls streamhash makes into its layers.

A Tracer replaces the module attributes through which the library calls its
own layers (``trainer.build_workspace``, ``metrics.hamming_to_db``, ...) with
wrappers that record one span per call: name, start, end, parent and an
optional amount (bytes read, queries scored). Spans stay in one list for the
run. A span's self time is its duration minus the time its child spans cover;
calls on one thread nest, so children never overlap and their durations add.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the run's list, -1 for none
    amount: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@contextlib.contextmanager
def patched(replacements):
    """Set each (module, attribute, value) for the duration of the block."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class Tracer:
    """Records spans for calls through the given (module, attribute, amount)
    targets while installed. amount(args, kwargs), when not None, gives the
    work a call carries; it runs before the span starts.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, fn, amount):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                        amount(args, kwargs) if amount else 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def installed(self):
        return patched([(module, attr, self._wrap(getattr(module, attr), amount))
                        for module, attr, amount in self.targets])


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and amount."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    out: dict[str, dict] = {}
    for span, child_time in zip(spans, covered):
        entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0.0})
        entry["calls"] += 1
        entry["s"] += span.duration
        entry["self_s"] += span.duration - child_time
        entry["amount"] += span.amount
    return out
