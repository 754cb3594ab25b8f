"""Spans recorded by the benchmark around its calls into procwatt.

A span is ``[name, start, end, parent, op]``: ``name`` is
``<module>.<function>`` (or ``cli.<call>`` for one CLI process), times come
from ``time.perf_counter``, ``parent`` is the index of the enclosing span or
None, and ``op`` is the id of the op that made the call.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from statistics import median


class NullTracer:
    """Calls straight through; used for untraced ops."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = []  # (op, name, value)
        self.errors = defaultdict(int)  # module -> exceptions raised in its spans
        self.op = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts.append((self.op, name, value))

    def per_op(self, op_times):
        """Busy and self time per span name, and uncovered time, for each op.

        ``op_times`` maps op id to the op's measured duration in seconds.
        Busy time sums a name's span durations within the op; self time
        subtracts the part covered by direct children; uncovered time is the
        op duration no top-level span covers.  All values are in ms.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        result = {
            op: {"busy": defaultdict(float), "self": defaultdict(float), "covered": 0.0}
            for op in op_times
        }
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in result:
                continue
            entry = result[op]
            entry["busy"][name] += 1e3 * (end - start)
            entry["self"][name] += 1e3 * (end - start - child_time[index])
            if parent is None:
                entry["covered"] += 1e3 * (end - start)
        for op, entry in result.items():
            entry["uncovered"] = 1e3 * op_times[op] - entry["covered"]
        return result

    def count_medians(self, ops):
        """Median over ``ops`` of each count's per-op sum (0 where absent)."""
        sums = defaultdict(lambda: defaultdict(float))
        for op, name, value in self.counts:
            if op in ops:
                sums[name][op] += value
        return {name: median(per_op.get(op, 0.0) for op in ops) for name, per_op in sums.items()}

    def write(self, path, origin):
        """Write every span as JSON, with times in seconds from ``origin``."""
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [name, start - origin, end - origin, parent, op]
                for name, start, end, parent, op in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
