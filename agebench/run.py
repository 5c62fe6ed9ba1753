"""agecompat benchmark: one seeded workload per run, one JSON result line.

    python3 agebench/run.py --workload {cli-oneshot,pair-grid,certify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with nothing
traced.  ``--trace 1`` reports the per-layer metrics: it alternates traced
and untraced requests of the workload to measure the tracing overhead,
then runs the per-layer suite of ``layers.py`` and writes every span to
``.agebench_traces/<workload>-seed<N>.jsonl``.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
record the seed, the versions, the CPU count and the sample counts.

Load is one closed-loop client in this process with no extra threads;
cli-oneshot runs one child process at a time.  Every reported time is
calibrated to reference speed (``stats.py``), so that other tenants of
the host do not move it; ``throughput_per_s`` is the completed requests
over their summed calibrated latency.  ``setup_s`` is the median over
SETUP_REPEATS fresh interpreters of the time from spawn to a warm
workload: import, input generation and warm-up.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from importlib.metadata import version
from pathlib import Path

import stats
from stats import BARE_START, speed_factor
from spans import NULL, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".agebench_traces"

MIN_REQUESTS = 100        # p90 then has at least 10 samples beyond it
WINDOW_CAP_S = 120.0      # stop a window this long even short of MIN_REQUESTS
SETUP_REPEATS = 11        # fresh set-ups timed per run; their median is setup_s
WORKLOAD_NAMES = ("cli-oneshot", "pair-grid", "certify")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def closed_loop(workload, seconds, tracer_of):
    """Send requests one after another for ``seconds`` (and MIN_REQUESTS).

    Returns per-request latencies in ms, raw and calibrated to the
    reference speed, the ids of failed requests and the window's wall time.
    """
    raw, calibrated, failed = [], [], set()
    reference, idle_ms = workload.reference
    ref_before = reference()
    start = time.perf_counter()
    i = 0
    while True:
        inp = workload.make_input(i)
        tr = tracer_of(i)
        t0 = time.perf_counter()
        try:
            with tr.request(f"bench.{workload.name}"):
                out = workload.request(inp, tr)
        except Exception:
            if not failed:
                traceback.print_exc()
            out = None
        t1 = time.perf_counter()
        if out is None or not workload.check(inp, out):
            failed.add(i)
        ref_after = reference()
        raw.append((t1 - t0) * 1e3)
        factor = speed_factor(ref_before, ref_after, idle_ms)
        calibrated.append(raw[-1] * factor)
        tr.calibrate(factor)
        ref_before = ref_after
        i += 1
        elapsed = t1 - start
        if (elapsed >= seconds and i >= MIN_REQUESTS) or elapsed >= WINDOW_CAP_S:
            break
    return raw, calibrated, failed, time.perf_counter() - start


def time_setups(workload, seed):
    """Time SETUP_REPEATS fresh set-ups, each between two bare interpreter starts.

    A set-up is the time from spawning a fresh interpreter to the workload
    being warm.  Returns ``(raw, calibrated)`` seconds per set-up, and the
    bare starts in ms.
    """
    bare_start_ms, idle_ms = BARE_START
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    setups, bare = [], [bare_start_ms()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line != b"ready\n":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        bare.append(bare_start_ms())
        setups.append((elapsed, elapsed * speed_factor(bare[-2], bare[-1], idle_ms)))
    return setups, bare


def untraced_run(workload, args):
    setups, bare = time_setups(args.workload, args.seed)
    raw, calibrated, failed, window = closed_loop(workload, args.seconds, lambda i: NULL)
    failed |= workload.post_check()
    p50, beyond50 = stats.percentile(calibrated, 50)
    p90, beyond90 = stats.percentile(calibrated, 90)
    completed = len(calibrated) - len(failed)
    throughput = completed * 1e3 / sum(calibrated)
    metrics = {
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "throughput_per_s": (throughput, "1/s"),
        "setup_s": (statistics.median(cal for _, cal in setups), "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    record = {
        "requests": len(raw), "window_s": window,
        "samples": {"latency": len(raw), "beyond_p50": beyond50,
                    "beyond_p90": beyond90, "setup": len(setups)},
        "error_rate": len(failed) / len(raw),
        "raw": {"latency_p50_ms": stats.percentile(raw, 50)[0],
                "latency_p90_ms": stats.percentile(raw, 90)[0],
                "throughput_per_s": completed / window,
                "setup_s": statistics.median(r for r, _ in setups)},
        # effective times of the window's reference and of the set-ups' bare
        # start; each equals its idle time when the host is quiet
        "reference_ms": workload.reference[1] * sum(raw) / sum(calibrated),
        "bare_start_ms": statistics.median(bare),
    }
    if args.workload == "pair-grid":
        from workloads import N_PAIRS
        record["pairs_per_s"] = N_PAIRS * throughput
    return len(raw), len(failed), metrics, record


def traced_run(workload, args):
    from layers import run_suite
    # even requests untraced, odd ones traced, so drift hits both alike
    window_tracer = Tracer()
    _, latencies, failed, _ = closed_loop(
        workload, args.seconds, lambda i: window_tracer if i % 2 else NULL)
    failed |= workload.post_check()
    untraced = statistics.median(latencies[0::2])
    traced = statistics.median(latencies[1::2])
    suite_tracer = Tracer()
    suite_attempted, suite_failed, metrics = run_suite(args.seed, suite_tracer)
    metrics["trace.overhead_pct"] = ((traced / untraced - 1.0) * 100.0, "%")

    TRACE_DIR.mkdir(exist_ok=True)
    span_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    span_file.unlink(missing_ok=True)
    window_tracer.write(span_file, f"window.{args.workload}")
    suite_tracer.write(span_file, "suite")

    total_ms = sum(v for k, (v, _) in metrics.items()
                   if k.startswith("self.") and k.endswith(".ms"))
    for key, (value, unit) in metrics.items():
        if key.startswith("self."):
            print(f"# self time {key[5:-3]:8s} {value:10.2f} ms"
                  f" {100.0 * value / total_ms:5.1f}% of traced suite")
    print(f"# {args.workload} request median: untraced {untraced:.4f} ms,"
          f" traced {traced:.4f} ms")
    record = {
        "requests": len(latencies), "span_file": str(span_file.relative_to(ROOT)),
        "spans": len(window_tracer.spans) + len(suite_tracer.spans),
        "untraced_p50_ms": untraced, "traced_p50_ms": traced,
        "samples": {"untraced": len(latencies[0::2]), "traced": len(latencies[1::2])},
    }
    return (len(latencies) + suite_attempted, len(failed) + suite_failed,
            metrics, record)


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "agecompat" / "__init__.py").is_file():
        print(f"agebench: no library source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import agecompat
    if Path(agecompat.__file__).resolve().parent != SRC / "agecompat":
        print(f"agebench: imported agecompat from {agecompat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import MC_SAMPLES, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    run = traced_run if args.trace else untraced_run
    attempted, failed, metrics, record = run(workload, args)

    declared = declared_metrics(args.trace)
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        print(f"agebench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(produced.items()) ^ set(declared.items()))}", file=sys.stderr)
        return 1

    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": version("numpy"), "cpu_count": os.cpu_count(),
        "mc_samples": MC_SAMPLES,
    })
    print("# record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
