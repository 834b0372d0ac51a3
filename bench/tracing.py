"""Spans recorded around the benchmark's calls into vbraid.

A span is ``[name, start, end, parent, op_id]``: ``parent`` is the index of
the enclosing span (-1 for none) and ``op_id`` names the operation as
``"<round>:<op index>"`` (``"setup"`` before the timed phase).  Spans stay in
memory and are written out once, when the run ends.  With tracing off,
``call`` is a plain call.
"""

from __future__ import annotations

import statistics
from time import perf_counter


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.op_id = "setup"
        self.last = -1  # index of the span closed most recently
        self._open = []

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op_id]
        index = len(self.spans)
        self.spans.append(span)
        self._open.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._open.pop()
            self.last = index

    def rename_last(self, name):
        if self.enabled:
            self.spans[self.last][0] = name

    def busy_per_round(self, name):
        """Median over rounds of the summed duration of spans called `name`."""
        per_round = {}
        for sname, start, end, _, op_id in self.spans:
            if op_id != "setup":
                rnd = op_id.split(":")[0]
                per_round.setdefault(rnd, 0.0)
                if sname == name:
                    per_round[rnd] += end - start
        return statistics.median(per_round.values()) if per_round else 0.0

    def total(self, name, op_id=None):
        return sum(
            end - start
            for sname, start, end, _, oid in self.spans
            if sname == name and (op_id is None or oid == op_id)
        )

    def durations(self, name):
        return [end - start for sname, start, end, _, _ in self.spans if sname == name]

    def to_json_obj(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
