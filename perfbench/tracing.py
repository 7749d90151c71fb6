"""In-memory spans around the benchmark's calls into the library.

A span is recorded for every request (the root) and for every call the
request makes into a library module (its children).  Spans stay in a
list until the run ends; `write_spans` dumps them as JSON lines and
`layer_metrics` folds them into per-layer counts and self times.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import namedtuple

Span = namedtuple("Span", "id name start end parent request error")

MODULES = (
    "minplus", "pvector", "treespace", "troplin",
    "exactalg", "complexes", "g36", "cli",
)


class NullTracer:
    """Runs calls untraced: the configuration end-to-end metrics use."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def root(self, name):
        return contextlib.nullcontext()


class Tracer:
    """Records one root span per request and one child span per call."""

    def __init__(self):
        self.spans = []
        self._root = None  # id of the open request span

    @contextlib.contextmanager
    def root(self, name):
        """A request's span; its id doubles as the request id."""
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in on exit
        self._root = sid
        start = time.perf_counter()
        error = True
        try:
            yield
            error = False
        finally:
            end = time.perf_counter()
            self.spans[sid] = Span(sid, name, start, end, None, sid, error)
            self._root = None

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        error = True
        try:
            result = fn(*args, **kwargs)
            error = False
            return result
        finally:
            end = time.perf_counter()
            self.spans.append(
                Span(len(self.spans), name, start, end, self._root,
                     self._root, error)
            )


def self_times(spans):
    """Span id -> duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans):
    """Per span name: calls, self seconds and failed calls; per module:
    self seconds and failed calls.  Root spans (names without a library
    module) are the benchmark's own glue and are summed as `bench.s`."""
    own = self_times(spans)
    by_name = {}
    for s in spans:
        calls, secs, fails = by_name.get(s.name, (0, 0.0, 0))
        by_name[s.name] = (calls + 1, secs + own[s.id], fails + s.error)
    out = {}
    for module in MODULES:
        out[f"{module}.s"] = 0.0
        out[f"{module}.fail"] = 0
    out["bench.s"] = 0.0
    for name, (calls, secs, fails) in by_name.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = secs
        module = name.split(".")[0]
        if module in MODULES:
            out[f"{module}.s"] += secs
            out[f"{module}.fail"] += fails
        else:
            out["bench.s"] += secs
    return out


def write_spans(spans, path):
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")
