"""Self-test of the benchmark's own pieces.

    python3 agebench/selftest.py

Checks the percentile helper, span self-time accounting, the parsing
behind the per-layer import and quantile metrics, and that every output
check accepts a true output and rejects a deliberately corrupted one (a
perturbed probability, one flipped CSV byte).  Exits 1 on failure.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402
from spans import NULL, Tracer  # noqa: E402

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def raises(fn, exc):
    try:
        fn()
    except exc:
        return True
    return False


def test_percentile():
    values = list(range(1, 101))
    expect(stats.percentile(values, 90) == (90, 10), "p90 of 100 samples has 10 beyond")
    expect(stats.percentile(values, 50) == (50, 50), "p50 of 100 samples")
    expect(raises(lambda: stats.percentile(values[:99], 90), ValueError),
           "p90 of 99 samples is refused (9 beyond)")


def test_self_time():
    tr = Tracer()
    with tr.request("bench.x"):
        with tr.span("compat.a"):
            sum(range(10000))
        with tr.span("compat.b"):
            sum(range(10000))
    root, a, b = tr.spans
    own = (root[2] - root[1]) - (a[2] - a[1]) - (b[2] - b[1])
    by_layer = tr.self_ns_by_layer()
    expect(by_layer["bench"] == own, "request self time excludes its children")
    expect(by_layer["compat"] == (a[2] - a[1]) + (b[2] - b[1]), "leaf self time is its duration")
    expect(a[3] == 0 and b[3] == 0 and a[4] == b[4] == root[4], "children share parent and request id")


def test_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        120 |     agecompat.special\n"
            "import time:       450 |       2310 | agecompat\n")
    expect(layers.parse_importtime(text) == (2310, 0),
           "importtime: no numpy line reads as 0 us of numpy")
    text += "import time:       900 |      81000 |   numpy\n"
    expect(layers.parse_importtime(text) == (2310, 81000), "importtime: numpy line is read")


def test_quantile_args():
    # the replayed arguments are 1-p or p for exactly the p_limit rows the CLI emits
    ok = True
    for argv in wl.cli_argv_pool(seed=0):
        if argv[0] != "limits":
            continue
        _, out = wl.run_cli_in_process(argv)
        ps = [float(line.split(",")[0]) for line in out.decode().splitlines()[1:]]
        kind = argv[argv.index("--kind") + 1]
        replayed = layers.sweep_quantile_args(argv)
        expected = [1.0 - p if kind == "min" else p for p in ps if p != 0.5]
        ok &= len(replayed) == len(expected) and all(
            abs(a - b) <= 1e-9 for a, b in zip(replayed, expected))
    expect(ok, "normal_quantile replay: one argument per swept p the CLI emits")


def test_pair_grid_checks():
    w = wl.PairGrid(seed=0)
    inp = w.make_input(0)
    queries, probs = w.request(inp, NULL)
    expect(w.check(inp, (queries, probs)), "pair-grid: true output passes")
    k = inp[4][0]
    bad = list(probs)
    bad[k] = math.nextafter(bad[k], 2.0)
    expect(not w.check(inp, (queries, bad)), "pair-grid: one ulp off breaks swap symmetry")
    far = list(probs)
    far[k] = -1e-300
    expect(not w.check(inp, (queries, far)), "pair-grid: negative probability fails")
    w.quad_samples = [(0, queries[k], probs[k]), (1, queries[k], probs[k] + 2e-9)]
    expect(w.post_check() == {1}, "pair-grid: quadrature check fails only the perturbed pair")


def test_certify_checks():
    w = wl.Certify(seed=0)
    case = w.make_input(0)
    out = w.request(case, NULL)
    expect(w.check(case, out), "certify: true output passes")
    q, p, p_quad, mc, m, tail = out
    expect(not w.check(case, (q, p + 2e-9, p_quad, mc, m, tail)),
           "certify: p off by 2e-9 fails the quadrature check")
    sigma = math.sqrt(p * (1.0 - p) / wl.MC_SAMPLES)
    expect(not w.check(case, (q, p, p_quad, p + 5.5 * sigma, m, tail)),
           "certify: MC 5.5 standard errors away fails")
    expect(not w.check(case, (q, p, p_quad, mc, m * 1.01, tail)),
           "certify: a wrong gap slope fails")


def test_cli_checks():
    w = wl.CliOneshot(seed=0)
    inp = w.make_input(0)
    rc, out = w.request(inp, NULL)
    expect(w.check(inp, (rc, out)), "cli-oneshot: child stdout equals in-process cli.main")
    flipped = bytearray(out)
    flipped[len(flipped) // 2] ^= 0x01
    expect(not w.check(inp, (rc, bytes(flipped))), "cli-oneshot: one flipped byte fails")
    expect(not w.check(inp, (2, out)), "cli-oneshot: a non-zero exit fails")


if __name__ == "__main__":
    for test in (test_percentile, test_self_time, test_importtime, test_quantile_args,
                 test_pair_grid_checks, test_certify_checks, test_cli_checks):
        test()
    if failures:
        print(f"{len(failures)} self-test check(s) failed", file=sys.stderr)
        sys.exit(1)
    print("all self-test checks passed")
