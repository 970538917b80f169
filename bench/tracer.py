"""Spans recorded from the benchmark's side of each call into the library.

A span is (name, start, end, parent, item).  Spans of one benchmark item
share the item id.  Nothing is recorded unless a call goes through a
wrapper made by :meth:`Tracer.wrap`, so untraced runs pay nothing.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, item id]
        self._stack = []
        self.item = None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.item])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def rebind(self, module, names):
        """Replace ``module.<attr>`` by a traced wrapper for each attr -> span."""
        saved = {attr: getattr(module, attr) for attr in names}
        try:
            for attr, span in names.items():
                setattr(module, attr, self.wrap(span, saved[attr]))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def self_times(self):
        """(name, self seconds, item) for every span.

        Self time is a span's duration minus the durations of its children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [
            (name, end - start - child[index], item)
            for index, (name, start, end, parent, item) in enumerate(self.spans)
        ]
