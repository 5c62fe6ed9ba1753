"""Per-layer measurements for the traced run.

Every traced run measures the same seeded suite, whatever its workload, so
per-layer numbers compare across runs and commits:

* ``import``: ``python -X importtime -c "import agecompat"`` in fresh
  interpreters; cumulative microseconds of ``agecompat`` and ``numpy``
  (0 when ``import agecompat`` no longer imports numpy).
* ``cli``: in-process ``cli.main(argv)`` over the cli-oneshot argument
  mix with stdout written to a buffer, plus a bare ``python -c pass`` as
  the floor no change to the package can move.
* ``model``/``compat``: traced pair-grid requests.
* ``compat``/``verify``/``policy``/``expect``: traced certify requests.
* ``expect.at_least_k_exact.n1e3/n1e5/n1e7``: each certify request's
  (p, z) replayed at n = 1e3, 1e5 and 1e7.
* ``special``: the kernel arguments of those pair-grid and certify
  requests, ``(|gap| +- d) / S`` exactly as ``compat_prob`` forms them,
  replayed through ``normal_cdf`` and ``erf``.  This gives the kernel's
  share of ``compat_prob`` without tracing inside it.  ``normal_quantile``
  is called only by the limit conversions, so it is replayed on what the
  ``limits --sweep`` vectors of the CLI mix pass it: ``1 - p`` or ``p``
  for each swept p, by ``--kind``.

Every suite request and probe is calibrated to reference speed like the
end-to-end times (see ``stats.py``).
"""

import math
import re
import subprocess
import sys
from contextlib import contextmanager
from statistics import median

from agecompat.expect import at_least_k_exact
from agecompat.special import erf, normal_cdf, normal_quantile
from stats import bare_start_ms, reference_ms, speed_factor
from workloads import (ROOT, Certify, PairGrid, child_env, cli_argv_pool,
                       run_cli_in_process, tail_k)

PROBE_REPEATS = 5            # fresh interpreters per import / floor probe
CLI_REPEATS = 3              # in-process runs of each argument vector
PAIR_GRID_REQUESTS = 8
CERTIFY_REQUESTS = 48
TAIL_NS = {"n1e3": 10 ** 3, "n1e5": 10 ** 5, "n1e7": 10 ** 7}
TAIL_CHUNK = 8               # at_least_k_exact calls per replay request

CLI_SUBCOMMANDS = ("compat", "expect", "limits", "rule", "tables")
FUNCTIONS = (
    "special.erf", "special.normal_cdf", "special.normal_quantile",
    "model.Gaussian", "compat.CompatQuery", "compat.compat_prob",
    "policy.solve_m",
    *(f"expect.at_least_k_exact.{tag}" for tag in TAIL_NS),
    "verify.quad_oracle", "verify.mc_oracle",
)
LAYERS = ("bench", "special", "model", "compat", "expect", "policy", "verify", "cli")

_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")
_SQRT2 = math.sqrt(2.0)


def parse_importtime(stderr):
    """Cumulative microseconds of agecompat and numpy in ``-X importtime`` output.

    numpy counts 0 when the output has no line for it.
    """
    cumulative = {m.group(2): int(m.group(1)) for m in _IMPORTTIME.finditer(stderr)}
    return cumulative["agecompat"], cumulative.get("numpy", 0)


def import_times_ms():
    """Median cumulative import times of agecompat and numpy, in calibrated ms."""
    env = child_env()
    agecompat, numpy = [], []
    for _ in range(PROBE_REPEATS):
        before = reference_ms()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import agecompat"],
                              capture_output=True, text=True, env=env, cwd=ROOT, check=True)
        factor = speed_factor(before, reference_ms())
        agecompat_us, numpy_us = parse_importtime(proc.stderr)
        agecompat.append(agecompat_us / 1e3 * factor)
        numpy.append(numpy_us / 1e3 * factor)
    return median(agecompat), median(numpy)


def python_floor_ms():
    """Median time of a bare ``python -c pass``, in calibrated ms."""
    times = []
    for _ in range(PROBE_REPEATS):
        before = reference_ms()
        elapsed = bare_start_ms()
        times.append(elapsed * speed_factor(before, reference_ms()))
    return median(times)


def _kernel_args(q):
    gap = abs(q.g1.mu - q.g2.mu)
    scale = math.hypot(q.g1.sigma, q.g2.sigma)
    return (gap + q.d) / scale, (gap - q.d) / scale


def _replay_special(tr, zs):
    with tr.span("special.normal_cdf", calls=len(zs)):
        for z in zs:
            normal_cdf(z)
    with tr.span("special.erf", calls=len(zs)):
        for z in zs:
            erf(-z / _SQRT2)


def sweep_quantile_args(argv):
    """normal_quantile's arguments in ``limits --kind K --sweep LO:HI:STEP``.

    The sweep is the CLI's inclusive grid; ``mental_limit_from_chrono``
    skips p = 0.5 and passes ``1 - p`` for ``min`` limits, ``p`` for ``max``.
    """
    kind = argv[argv.index("--kind") + 1]
    lo, hi, step = (float(x) for x in argv[argv.index("--sweep") + 1].split(":"))
    grid = [lo + i * step for i in range(round((hi - lo) / step) + 1)]
    return [1.0 - p if kind == "min" else p
            for p in grid if p <= hi + 1e-9 * max(1.0, abs(hi)) and p != 0.5]


@contextmanager
def _request(tr, name):
    before = reference_ms()
    try:
        with tr.request(name):
            yield
    finally:
        tr.calibrate(speed_factor(before, reference_ms()))


def run_suite(seed, tr):
    """Run the traced suite; returns (attempted, failed, metrics)."""
    attempted = failed = 0

    def requests(name, workload, count):
        nonlocal attempted, failed
        for i in range(count):
            inp = workload.make_input(i)
            attempted += 1
            try:
                with _request(tr, f"bench.{name}"):
                    out = workload.request(inp, tr)
            except Exception:
                failed += 1
                continue
            if not workload.check(inp, out):
                failed += 1
            yield inp, out

    pool = cli_argv_pool(seed)
    for argv in pool:
        for _ in range(CLI_REPEATS):
            attempted += 1
            try:
                with _request(tr, "bench.cli-main"), tr.span(f"cli.main.{argv[0]}"):
                    rc, _ = run_cli_in_process(argv)
                    if rc != 0:
                        raise RuntimeError(f"cli.main exited {rc} on {argv}")
            except Exception:
                failed += 1

    replays = []                # kernel arguments per source
    pair_grid = PairGrid(seed)
    for _, (queries, _) in requests("pair-grid", pair_grid, PAIR_GRID_REQUESTS):
        replays.append([z for q in queries for z in _kernel_args(q)])
    failed += len(pair_grid.post_check())

    zs, tails = [], []
    for case, (q, p, *_) in requests("certify", Certify(seed), CERTIFY_REQUESTS):
        zs += _kernel_args(q)
        tails.append((p, case.z))
    replays.append(zs)

    # Replays run in batches, as a span per call would cost as much as the
    # call, and in short requests, as a long one would calibrate poorly.
    for zs in replays:
        with _request(tr, "bench.special-replay"):
            _replay_special(tr, zs)
    for argv in pool:
        if argv[0] == "limits":
            ps = sweep_quantile_args(argv)
            for _ in range(CLI_REPEATS):
                with _request(tr, "bench.quantile-replay"), \
                        tr.span("special.normal_quantile", calls=len(ps)):
                    for p in ps:
                        normal_quantile(p)
    for tag, n in TAIL_NS.items():
        for lo in range(0, len(tails), TAIL_CHUNK):
            chunk = tails[lo:lo + TAIL_CHUNK]
            with _request(tr, "bench.tail-replay"), \
                    tr.span(f"expect.at_least_k_exact.{tag}", calls=len(chunk)):
                for p, z in chunk:
                    at_least_k_exact(tail_k(n, p, z), n, p)

    agecompat_ms, numpy_ms = import_times_ms()
    metrics = {
        "import.agecompat.ms": (agecompat_ms, "ms"),
        "import.numpy.ms": (numpy_ms, "ms"),
        "cli.python_floor.ms": (python_floor_ms(), "ms"),
    }
    attempted += 2 * PROBE_REPEATS

    by_name = tr.by_name()
    for fn in FUNCTIONS:
        _function_metrics(metrics, fn, by_name.get(fn, (0, 0, 0)), "per_call")
    for sub in CLI_SUBCOMMANDS:
        fn = f"cli.main.{sub}"
        _function_metrics(metrics, fn, by_name.get(fn, (0, 0, 0)), "us")
    self_ns = tr.self_ns_by_layer()
    for layer in LAYERS:
        metrics[f"self.{layer}.ms"] = (self_ns.get(layer, 0) / 1e6, "ms")
    return attempted, failed, metrics


def _function_metrics(metrics, fn, stat, per_call_key):
    calls, busy_ns, failed = stat
    metrics[f"{fn}.calls"] = (calls, "count")
    metrics[f"{fn}.busy_ms"] = (busy_ns / 1e6, "ms")
    metrics[f"{fn}.{per_call_key}"] = (busy_ns / 1e3 / calls if calls else 0.0, "us")
    metrics[f"{fn}.failed"] = (failed, "count")
