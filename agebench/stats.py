"""Percentiles, and the two references that calibrate every time reported.

The host's other tenants slow this VM by up to 2x, in phases that last
from a fraction of a second to minutes, so raw wall times of identical
runs differ by 25% or more.  The benchmark therefore runs a reference
before and after each timed request and rescales the request's time by
the reference's idle time over the mean of those two reference times.
Raw wall times go to the record line and the span file.

* ``KERNEL``, a fixed pure-Python loop that takes REFERENCE_MS on a
  2-vCPU Xeon VM when no other tenant contends for the core, calibrates
  work done inside the benchmark's process.
* ``BARE_START``, a bare ``python -c pass``, calibrates work that starts
  a fresh interpreter: the cli-oneshot requests and the set-ups.  Such
  work goes mostly to exec, page faults and file reads, whose cost under
  contention the kernel does not track.  Over groups of nine set-ups
  taken one after another, kernel-calibrated medians spread by 15-29%,
  bare-start-calibrated ones by 4-6%; over 25 s windows of cli-oneshot
  requests, the p90 spread fell from 5.4% to 2.1%.  BARE_START_MS fixes
  the unit: a constant near a bare start on the same VM when it is
  quiet, never re-measured, so that runs and commits compare.

Both references are the benchmark's own code or the bare interpreter, so
no change to the library moves them.
"""

import math
import subprocess
import sys
import time

REFERENCE_MS = 1.2
REFERENCE_ITERS = 4000
BARE_START_MS = 28.0

# Report the highest percentile that still has this many samples beyond it.
MIN_BEYOND = 10


def reference_ms():
    """Run the reference kernel once; return its wall time in ms."""
    t0 = time.perf_counter()
    acc = 0.0
    points = []
    for i in range(REFERENCE_ITERS):
        x = i * 1e-3 - 2.0
        p = (((2.5e-1 * x + 3.3e-1) * x + 6.7e-1) * x + 4.6e-1) * x + 1.0
        points.append((x, p))
        acc += math.exp(-x * x) * p / (1.0 + abs(x))
    return (time.perf_counter() - t0) * 1e3


def bare_start_ms():
    """Start a bare ``python -c pass``; return its wall time in ms."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (time.perf_counter() - t0) * 1e3


# (run the reference once and return its ms, its ms at reference speed)
KERNEL = (reference_ms, REFERENCE_MS)
BARE_START = (bare_start_ms, BARE_START_MS)


def speed_factor(before_ms, after_ms, idle_ms=REFERENCE_MS):
    """Factor taking a time measured between two reference runs to reference speed."""
    return 2.0 * idle_ms / (before_ms + after_ms)


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-th percentile (0 < q < 100) of ``values``.

    Returns ``(value, beyond)``, where ``beyond`` is the number of samples
    ranked above the returned one.

    Raises:
        ValueError: fewer than ``min_beyond`` samples would lie beyond the
            percentile, so it would rest on too few observations.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"q must lie in (0, 100), got {q!r}")
    xs = sorted(values)
    rank = math.ceil(q / 100.0 * len(xs))
    beyond = len(xs) - rank
    if rank < 1 or beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples has {beyond} beyond it; need {min_beyond}")
    return xs[rank - 1], beyond
