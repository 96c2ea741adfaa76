"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span or -1, and `op` identifies the unit of user work the span
belongs to.  The layer of a span is the first dot-separated part of its
name: the ladderlab module doing the work inside it (`builtin` for
Python's own `pow`).
"""

import contextlib
import math
import time
from collections import defaultdict
from statistics import median

PERCENTILES = (50, 75, 90, 95, 99, 99.9)

NO_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    enabled = False

    def span(self, name):
        return NO_SPAN

    def begin_op(self, workload, i):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1
        self.op_inputs = {}  # workload name -> {op id: input index}

    def begin_op(self, workload, i):
        """Start a new unit of user work; later spans carry its id."""
        self.op += 1
        self.op_inputs.setdefault(workload, {})[self.op] = i

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def prefixed(self, prefix):
        return [s for s in self.spans if s[0].startswith(prefix)]

    def self_times(self):
        """Per-span self time: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def layer_self_times(self, ops):
        """Self time summed per layer over the spans of the given op ids."""
        out = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            if s[4] in ops:
                out[s[0].split(".", 1)[0]] += t
        return dict(out)

    def summary(self):
        """Per span name: sample count, median and the tail percentile, in microseconds."""
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s[0]].append((s[2] - s[1]) * 1e6)
        return {name: timing_summary(vals) for name, vals in sorted(by_name.items())}

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{op}\n")


def timing_summary(values):
    """Median plus the highest listed percentile with at least ten samples above it."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": median(vals) if vals else None, "tail": None}
    for q in PERCENTILES:
        idx = max(0, math.ceil(q / 100 * n) - 1)  # nearest-rank percentile
        if n - 1 - idx >= 10:
            out["tail"] = {"percentile": q, "value": vals[idx], "beyond": n - 1 - idx}
    return out
