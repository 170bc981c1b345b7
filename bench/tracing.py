"""Spans for the traced benchmark run, recorded from outside the package.

A span is one wrapped call into a public dagclust function: its name, start
and end (``time.perf_counter`` seconds) and the span that was open around
it.  Spans stay in memory and are written out once, when the run ends.  A
span's self time is its duration minus the part its child spans cover; it
is folded into per-name totals as each span closes, so no second pass over
the spans is needed.

``stream_search`` runs the search on a worker thread.  While a stream span is
open it is the *adoptive* parent: a span opened on a thread with no open span
of its own (the worker) becomes its child, so the worker's time is
subtracted from the stream span's self time.
"""

from __future__ import annotations

import json
import os
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._covered = array("d")  # child seconds inside each span
        self._local = threading.local()
        self.adopt = -1
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack()
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else self.adopt)
        self.end.append(0.0)
        self._covered.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = time.perf_counter()
        self.end[idx] = t
        self._stack().pop()
        dur = t - self.start[idx]
        p = self.parent[idx]
        if p >= 0:
            self._covered[p] += dur
        name = self.names[self.name_id[idx]]
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - self._covered[idx]
        self.calls[name] = self.calls.get(name, 0) + 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def wrap_each(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function with one span per item produced."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                yield item

        return traced

    def wrap_stream(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function with one span from first item request to
        exhaustion, adopting spans opened on other threads meanwhile."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            outer, self.adopt = self.adopt, idx
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.adopt = outer
                self.close(idx)

        return traced

    def reset_totals(self) -> None:
        self.self_s.clear()
        self.calls.clear()

    def write(self, path: str) -> None:
        """Write the spans as ``path``.json (names, count, layout) plus
        ``path``.bin (the raw columns, native byte order)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        cols = (self.name_id, self.parent, self.start, self.end)
        with open(path + ".bin", "wb") as fh:
            for col in cols:
                col.tofile(fh)
        meta = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [["name_id", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


class TracedModel:
    """``CostModel`` proxy that spans every direct ``transition`` and
    ``heuristic`` call.  Calls the wrapped model makes to itself (the
    heuristic's own transitions) stay inside the heuristic span."""

    def __init__(self, inner, rec: SpanRecorder):
        self._inner = inner
        self.weights = inner.weights
        self.transition = rec.wrap("costs.transition", inner.transition)
        self.heuristic = rec.wrap("costs.heuristic", inner.heuristic)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextmanager
def patched(module, name: str, replacement) -> Iterator[None]:
    """Rebind ``module.name`` for the duration, so calls the package makes
    to one of its own public functions go through the wrapper too."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)
