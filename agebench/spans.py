"""Spans recorded by the benchmark around its calls into the library.

The library itself is not instrumented.  A span wraps one call, or one
batch of calls, into a single public function and carries the number of
calls it covers, so per-call cost is busy time over calls.  A span's name
starts with the layer it measures (``compat.compat_prob`` belongs to
``compat``); request spans belong to ``bench``.  Spans of one request share
its id.  A request may carry a speed factor (see ``stats.py``) that scales
its spans' durations in the summaries; span files keep raw times and the
factor.  Spans stay in memory until the run ends and are then written out
as JSON lines.
"""

import json
import time
from contextlib import contextmanager, nullcontext

# record fields
_NAME, _START, _END, _PARENT, _REQ, _CALLS, _FAILED = range(7)


class Tracer:
    """Collects spans in memory; create one per traced phase."""

    def __init__(self):
        self.spans = []
        self.factors = {}       # request id -> speed factor
        self._open = []
        self._req = 0

    def request(self, name):
        """Open the root span of a new request."""
        self._req += 1
        return self.span(name)

    def calibrate(self, factor):
        """Set the speed factor of the latest request."""
        self.factors[self._req] = factor

    def _duration(self, rec):
        return (rec[_END] - rec[_START]) * self.factors.get(rec[_REQ], 1.0)

    @contextmanager
    def span(self, name, calls=1):
        parent = self._open[-1] if self._open else None
        rec = [name, time.perf_counter_ns(), 0, parent, self._req, calls, 0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except Exception:
            rec[_FAILED] = 1
            raise
        finally:
            rec[_END] = time.perf_counter_ns()
            self._open.pop()

    def by_name(self):
        """name -> [calls, busy_ns, failed], summed over the name's spans."""
        out = {}
        for rec in self.spans:
            acc = out.setdefault(rec[_NAME], [0, 0, 0])
            acc[0] += rec[_CALLS]
            acc[1] += self._duration(rec)
            acc[2] += rec[_FAILED]
        return out

    def self_ns_by_layer(self):
        """layer -> total self time: span time not covered by child spans."""
        children = {}
        for rec in self.spans:
            if rec[_PARENT] is not None:
                children.setdefault(rec[_PARENT], []).append((rec[_START], rec[_END]))
        out = {}
        for idx, rec in enumerate(self.spans):
            covered = _union_ns(children.get(idx, ()), rec[_START], rec[_END])
            own = rec[_END] - rec[_START] - covered
            layer = rec[_NAME].split(".", 1)[0]
            out[layer] = out.get(layer, 0) + own * self.factors.get(rec[_REQ], 1.0)
        return out

    def write(self, path, phase):
        with open(path, "a", encoding="utf-8") as fh:
            for idx, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "phase": phase, "id": idx, "request": rec[_REQ],
                    "name": rec[_NAME], "start_ns": rec[_START],
                    "end_ns": rec[_END], "parent": rec[_PARENT],
                    "calls": rec[_CALLS], "failed": rec[_FAILED],
                    "speed_factor": self.factors.get(rec[_REQ], 1.0),
                }) + "\n")


def _union_ns(intervals, lo, hi):
    # length of the union of intervals, clipped to [lo, hi]
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class NullTracer:
    """Same interface as :class:`Tracer`; records nothing."""

    _noop = nullcontext()

    def request(self, name):
        return self._noop

    def span(self, name, calls=1):
        return self._noop

    def calibrate(self, factor):
        pass


NULL = NullTracer()
