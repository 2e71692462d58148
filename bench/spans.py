"""Spans and counters around calls into ftcircuit, recorded from outside.

Each public function is replaced by a wrapper under the name its caller
looks up (a module attribute, or a method on its class), so calls made
from inside the package are caught as well as the benchmark's own.  A
span is (name, start, end, parent), kept in memory while the workload
runs; self times are derived from the spans afterwards.  A wrapped name
the package no longer has is reported as absent and its metrics read 0.
"""
from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    def _wrap(self, name: str, fn, count=None, span: bool = True):
        signature = inspect.signature(fn)
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                count(counts, bound)
                args, kwargs = bound.args, bound.kwargs
            if not span:
                return fn(*args, **kwargs)
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    def patch(self, owner, attr: str, name: str, count=None,
              span: bool = True):
        """Replace owner.attr by a recording wrapper.

        count(counts, bound_arguments) may add to the counters; it may also
        replace arguments in bound_arguments.arguments before the call.
        """
        raw = (vars(owner).get(attr) if isinstance(owner, type)
               else getattr(owner, attr, None))
        if raw is None:
            where = getattr(owner, "__name__", "?")
            self.absent.append(f"{where}.{attr}")
            return
        if isinstance(raw, classmethod):
            setattr(owner, attr,
                    classmethod(self._wrap(name, raw.__func__, count, span)))
        else:
            setattr(owner, attr, self._wrap(name, raw, count, span))

    # ---- derived quantities -------------------------------------------

    def _durations(self) -> list[float]:
        return [end - start for _, start, end, _ in self.spans]

    def calls(self, *names: str) -> int:
        return sum(1 for s in self.spans if s[0] in names)

    def self_time(self, *names: str) -> float:
        """Time inside spans of these names, less the time of their
        direct child spans."""
        durations = self._durations()
        own = 0.0
        child = 0.0
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name in names:
                own += durations[i]
            if parent >= 0 and self.spans[parent][0] in names:
                child += durations[i]
        return own - child

    def covered_time(self, *names: str) -> float:
        """Time inside spans of these names, counting nested ones once."""
        durations = self._durations()
        total = 0.0
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += durations[i]
        return total

    def write(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({**extra, "absent": self.absent,
                       "counts": dict(self.counts),
                       "spans": self.spans}, fh)
