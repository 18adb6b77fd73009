"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, request id).  Spans are kept in a
list while the run is measured and written out once, when it ends.  The
untraced run uses ``NullTracer``, whose ``span`` does no work, so the
end-to-end figures are measured with tracing off.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    enabled = True

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, request id or None)
        self.spans: list[tuple[str, float, float, int, object]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rid: object = None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if rid is None and parent >= 0:
            rid = self.spans[parent][4]
        self.spans.append((name, time.perf_counter(), 0.0, parent, rid))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            n, t0, _, p, r = self.spans[idx]
            self.spans[idx] = (n, t0, time.perf_counter(), p, r)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        part of its interval that its children cover (children of one
        span never overlap: the run has one thread)."""
        child = defaultdict(float)
        for _, s, e, p, _ in self.spans:
            if p >= 0:
                child[p] += e - s
        out: dict[str, float] = defaultdict(float)
        for i, (n, s, e, _, _) in enumerate(self.spans):
            out[n] += (e - s) - child[i]
        return dict(out)

    def covered(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] covered by top-level spans."""
        return sum(max(0.0, min(e, t1) - max(s, t0))
                   for _, s, e, p, _ in self.spans if p < 0)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for n, s, e, p, r in self.spans:
                f.write(json.dumps({"name": n, "start": s, "end": e,
                                    "parent": p, "rid": r}) + "\n")


class NullTracer:
    enabled = False

    def span(self, name: str, rid: object = None):
        return nullcontext()
