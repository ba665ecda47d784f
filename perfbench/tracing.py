"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op). Spans nest on one thread: the
benchmark opens them around its own calls into the library, and around
library names it wraps for the traced run only. Self time is a span's
duration minus the time its direct children cover; children never overlap
because every traced call runs on the calling thread.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time


class Tracer:
    """Span recorder; a disabled tracer records nothing and costs a call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []          # [name, start, end, parent index, op id]
        self._stack = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, observe=None):
        """fn with every call recorded as a span called name.

        observe(args, result), when given, runs after the span closes, so
        its cost lands in the caller's self time, not in fn's.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def median_self_times(self) -> dict:
        """Span name -> median self time per call, in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_name: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            per_name.setdefault(name, []).append(end - start - child_time[i])
        return {name: statistics.median(v) for name, v in per_name.items()}

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Temporarily replace library names with traced calls.

    targets holds (owner, attribute, span name) or (owner, attribute, span
    name, observe) tuples; see Tracer.wrap.
    """
    saved = []
    try:
        for owner, attr, name, *observe in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, *observe))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
