"""Spans around the benchmark's calls into the layers of ``spmvtune``.

A span is recorded only from the benchmark's own code, one per call into a
layer function, named ``<module>.<function>``.  Spans stay in memory until
the run ends.  The untraced run uses ``NullTracer``, whose ``call`` is a
plain call, so end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

_NULL_CONTEXT = contextlib.nullcontext()


def span_name(fn) -> str:
    """``spmvtune.kernels.spmv_delta`` -> ``kernels.spmv_delta``."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"


class NullTracer:
    def span(self, name):
        return _NULL_CONTEXT

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records spans as ``[name, start, end, parent index, pass id]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def call(self, fn, *args, **kwargs):
        with self.span(span_name(fn)):
            return fn(*args, **kwargs)

    def durations(self, name, pass_id, parent=None) -> float:
        """Summed duration of the spans called ``name`` in one pass, only
        those directly under a span called ``parent`` when it is given."""
        total = 0.0
        for n, start, end, par, pid in self.spans:
            if n == name and pid == pass_id and (
                    parent is None or (par is not None and self.spans[par][0] == parent)):
                total += end - start
        return total

    def self_times(self, pass_id) -> dict[str, float]:
        """Per-layer self time in one pass: each span's duration minus the
        part its direct children cover, summed by the name's first part."""
        child_time = defaultdict(float)
        for _, start, end, parent, pid in self.spans:
            if pid == pass_id and parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, pid) in enumerate(self.spans):
            if pid == pass_id:
                out[name.partition(".")[0]] += end - start - child_time[i]
        return dict(out)

    def dump(self, path) -> None:
        doc = [{"name": n, "start": s, "end": e, "parent": p, "pass": pid}
               for n, s, e, p, pid in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": doc}, fh)
