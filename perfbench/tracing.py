"""In-memory spans around the benchmark's calls into soma_kit, and the
per-layer figures derived from them.

A span is (name, start, end, parent, request, tag): `parent` is the index of
the enclosing span or -1, `request` identifies the episode, document or
network being processed, and `tag` is an optional size used for buckets.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False
    request = None

    def call(self, name, fn, *args, tag=None):
        return fn(*args)


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans = []
        self._stack = []
        self.request = None

    def call(self, name, fn, *args, tag=None):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.request, tag)

    def self_times(self):
        """Per span: its duration minus the time covered by its children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, tag in self.spans:
                fh.write(json.dumps([name, start, end, parent, request, tag]) + "\n")


_SCALE = {"ms": 1e3, "us": 1e6}


def layer_metrics(tracer: Tracer, specs) -> dict:
    """Figures for each (metric, unit, span name, bucket, per_request) spec.

    The value is the median self time of the matching spans, or with
    per_request the median over requests of their summed self time. A
    bucket (lo, hi) keeps spans whose tag lies in [lo, hi]. A metric with no
    matching span in this workload reads 0 with n = 0.
    """
    selfs = tracer.self_times()
    out = {}
    for metric, unit, span_name, bucket, per_request in specs:
        values = []
        sums = {}
        for (name, _, _, _, request, tag), t in zip(tracer.spans, selfs):
            if name != span_name:
                continue
            if bucket is not None and not (tag is not None and bucket[0] <= tag <= bucket[1]):
                continue
            if per_request:
                sums[request] = sums.get(request, 0.0) + t
            else:
                values.append(t)
        if per_request:
            values = list(sums.values())
        value = statistics.median(values) * _SCALE[unit] if values else 0.0
        out[metric] = (value, unit, len(values))
    return out
