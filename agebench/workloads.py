"""The three seeded workloads, each a closed loop with one client.

A workload makes the input of request ``i`` from the seed alone
(``make_input``), runs it (``request``), and checks the output
(``check``).  Only ``request`` is timed, and calibrated against the
workload's ``reference`` (``stats.py``).  ``post_check`` runs after the
timed window and returns the ids of requests whose outputs failed the
slower checks made there.

* ``cli-oneshot``: one ``python -m agecompat ...`` process per request.
  Interpreter start, imports and argparse/CSV emit do nearly all the work.
* ``pair-grid``: the full 15..80 x 15..80 age matrix through
  ``Gaussian`` -> ``CompatQuery`` -> ``compat_prob``; far-gap pairs reach
  the far-tail erfc branch.  Import is paid once, in set-up.
* ``certify``: one query through ``compat_prob``, both oracles,
  ``solve_m`` and ``at_least_k_exact``; the iterative numerics dominate.
"""

import io
import math
import os
import random
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

from agecompat import cli
from agecompat.compat import CompatQuery, compat_prob
from agecompat.expect import at_least_k_exact
from agecompat.model import Gaussian
from agecompat.policy import rule_probability, solve_m
from agecompat.verify import QuadratureError, mc_oracle, quad_oracle
from spans import NULL
from stats import BARE_START, KERNEL

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

AGES = tuple(range(15, 81))
N_AGES = len(AGES)
N_PAIRS = N_AGES * N_AGES           # 4,356 pairs per pair-grid request

QUAD_TOL = 1e-9                     # the acceptance suite's closed-vs-quadrature tolerance
QUAD_CHECKS = 64                    # pair-grid pairs checked against quad_oracle per run
MC_SIGMAS = 5.0                     # 3 sigma fails about once in 370 correct queries
# About 2.0 ms per call on a 2-vCPU Xeon VM, against 1.8 ms for quad_oracle
# and about 5 ms for a whole certify request, so no single call takes most
# of the request.
MC_SAMPLES = 20_000
SOLVE_M_TOL = 1e-9                  # |p(m) - p_min| at the returned slope


def _rng(seed, i):
    # one independent stream per (seed, request), whatever ran before
    return random.Random(f"{seed}/{i}")


def read_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- checks

def grid_symmetric(queries, probs, picks):
    """p(a, b) == p(b, a) exactly for each picked pair of a pair-grid request."""
    for k in picks:
        q = queries[k]
        if compat_prob(CompatQuery(q.g2, q.g1, d=q.d)) != probs[k]:
            return False
    return True


def all_probabilities(values):
    return all(0.0 <= v <= 1.0 for v in values)


def within_quad(p, p_quad, tol=QUAD_TOL):
    return abs(p - p_quad) <= tol


def within_mc(p, estimate, samples, sigmas=MC_SIGMAS):
    """MC estimate within ``sigmas`` standard errors of the closed form p."""
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return abs(estimate - p) <= sigmas * stderr


def same_cli_output(expected, returncode, stdout):
    return returncode == 0 and stdout == expected


# ------------------------------------------------------------- workloads

class PairGrid:
    name = "pair-grid"
    reference = KERNEL

    def __init__(self, seed):
        self.seed = seed
        self.quad_samples = []      # (request id, query, p), checked after the window

    def make_input(self, i):
        rng = _rng(self.seed, i)
        s1, s2, t = rng.uniform(0.1, 0.2), rng.uniform(0.1, 0.2), rng.uniform(1.0, 2.0)
        picks = [row * N_AGES + rng.randrange(N_AGES) for row in range(N_AGES)]
        return i, s1, s2, t, picks

    def request(self, inp, tr):
        _, s1, s2, t, _ = inp
        with tr.span("model.Gaussian", calls=2 * N_AGES):
            g1 = [Gaussian(a, s1 * a) for a in AGES]
            g2 = [Gaussian(a, s2 * a) for a in AGES]
        with tr.span("compat.CompatQuery", calls=N_PAIRS):
            queries = [CompatQuery(a, b, t=t) for a in g1 for b in g2]
        with tr.span("compat.compat_prob", calls=N_PAIRS):
            probs = [compat_prob(q) for q in queries]
        return queries, probs

    def check(self, inp, out):
        i, picks = inp[0], inp[4]
        queries, probs = out
        if len(self.quad_samples) < QUAD_CHECKS:
            k = picks[i % N_AGES]
            self.quad_samples.append((i, queries[k], probs[k]))
        return all_probabilities(probs) and grid_symmetric(queries, probs, picks)

    def post_check(self):
        failed = set()
        for i, q, p in self.quad_samples:
            try:
                ok = within_quad(p, quad_oracle(q))
            except QuadratureError:
                ok = False
            if not ok:
                failed.add(i)
        return failed

    def warm_up(self):
        for i in range(2):
            self.request(self.make_input(-1 - i), NULL)

    peak_rss_mb = staticmethod(read_rss_mb)


class CertifyCase:
    __slots__ = ("age1", "age2", "s1", "s2", "t", "n", "z", "p_min", "mc_seed")

    def __init__(self, seed, i):
        rng = _rng(seed, i)
        self.age1 = rng.uniform(15.0, 80.0)
        self.age2 = min(80.0, max(15.0, self.age1 + rng.uniform(-10.0, 10.0)))
        self.s1, self.s2 = rng.uniform(0.1, 0.2), rng.uniform(0.1, 0.2)
        self.t = rng.uniform(1.0, 2.0)
        self.n = round(10.0 ** rng.uniform(3.0, 7.0))
        self.z = rng.uniform(-4.0, 4.0)      # k sits z standard deviations from the mean
        ceiling = rule_probability(1.0, 0.0, self.s1, self.s2, self.t)
        self.p_min = rng.uniform(0.1, 0.9) * ceiling
        self.mc_seed = rng.getrandbits(32)


def tail_k(n, p, z):
    """k that lies z binomial standard deviations from the mean n*p."""
    k = round(n * p + z * math.sqrt(n * p * (1.0 - p)))
    return min(n, max(1, k))


class Certify:
    name = "certify"
    reference = KERNEL

    def __init__(self, seed):
        self.seed = seed

    def make_input(self, i):
        return CertifyCase(self.seed, i)

    def request(self, c, tr):
        # A span costs about as much as one of these microsecond calls; their
        # per-call figures come from pair-grid's batches instead.
        q = CompatQuery(Gaussian(c.age1, c.s1 * c.age1), Gaussian(c.age2, c.s2 * c.age2),
                        t=c.t)
        p = compat_prob(q)
        with tr.span("verify.quad_oracle"):
            p_quad = quad_oracle(q)
        with tr.span("verify.mc_oracle"):
            mc = mc_oracle(q, MC_SAMPLES, c.mc_seed)
        with tr.span("policy.solve_m"):
            m = solve_m(c.p_min, c.s1, c.s2, c.t)
        k = tail_k(c.n, p, c.z)
        with tr.span("expect.at_least_k_exact"):
            tail = at_least_k_exact(k, c.n, p)
        return q, p, p_quad, mc.estimate, m, tail

    def check(self, c, out):
        _, p, p_quad, mc_est, m, tail = out
        return (within_quad(p, p_quad)
                and within_mc(p, mc_est, MC_SAMPLES)
                and abs(rule_probability(1.0, m, c.s1, c.s2, c.t) - c.p_min) <= SOLVE_M_TOL
                and 0.0 <= tail <= 1.0)

    def post_check(self):
        return set()

    def warm_up(self):
        for i in range(5):
            self.request(self.make_input(-1 - i), NULL)

    peak_rss_mb = staticmethod(read_rss_mb)


def _fmt(x):
    return f"{x:.4f}"


def cli_argv_pool(seed, variants=8):
    """Argument vectors cycling compat, expect, limits, rule and tables."""
    pool = []
    for v in range(variants):
        rng = _rng(seed, f"cli{v}")
        a1 = rng.uniform(15.0, 80.0)
        a2 = min(80.0, max(15.0, a1 + rng.uniform(-8.0, 8.0)))
        s1, s2, t = rng.uniform(0.1, 0.2), rng.uniform(0.1, 0.2), rng.uniform(1.0, 2.0)
        n1, n2 = round(10.0 ** rng.uniform(2.0, 6.0)), round(10.0 ** rng.uniform(2.0, 6.0))
        p = compat_prob(CompatQuery(Gaussian(a1, s1 * a1), Gaussian(a2, s2 * a2), t=t))
        k = tail_k(min(n1, n2), p, rng.uniform(0.0, 3.0))
        pool += [
            ["compat", "--age1", _fmt(a1), "--age2", _fmt(a2), "--s1", _fmt(s1),
             "--s2", _fmt(s2), "--t", _fmt(t)],
            ["expect", "--n1", str(n1), "--n2", str(n2), "--age1", _fmt(a1),
             "--age2", _fmt(a2), "--s1", _fmt(s1), "--s2", _fmt(s2),
             "--t", _fmt(t), "--at-least-k", str(k)],
            ["limits", "--kind", rng.choice(("min", "max")),
             "--chrono", _fmt(rng.uniform(16.0, 70.0)), "--s", _fmt(s1),
             "--sweep", f"{rng.uniform(0.01, 0.1):.2f}:{rng.uniform(0.9, 0.99):.2f}:0.01"],
            ["rule", "--mu-grid", f"{rng.randint(15, 20)}:{rng.randint(60, 90)}:0.5",
             "--s1", _fmt(s1), "--s2", _fmt(s2), "--t", _fmt(t)],
            ["tables"],
        ]
    return pool


def run_cli_in_process(argv):
    """(exit code, stdout bytes) of ``cli.main(argv)`` with stdout captured."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue().encode()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class CliOneshot:
    name = "cli-oneshot"
    reference = BARE_START

    def __init__(self, seed):
        self.pool = cli_argv_pool(seed)
        self.expected = []
        for argv in self.pool:
            rc, out = run_cli_in_process(argv)
            if rc != 0:
                raise RuntimeError(f"in-process cli.main failed on {argv}: exit {rc}")
            self.expected.append(out)
        self.env = child_env()
        self.max_child_rss_kb = 0

    def make_input(self, i):
        k = i % len(self.pool)
        return self.pool[k], self.expected[k]

    def request(self, inp, tr):
        with tr.span("cli.process"):
            with subprocess.Popen([sys.executable, "-m", "agecompat", *inp[0]],
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  env=self.env, cwd=ROOT) as proc:
                out = proc.stdout.read()
                # wait4 reaps the child and gives its own peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out

    def check(self, inp, out):
        return same_cli_output(inp[1], *out)

    def post_check(self):
        return set()

    def warm_up(self):
        self.request(self.make_input(0), NULL)
        self.max_child_rss_kb = 0

    def peak_rss_mb(self):
        return self.max_child_rss_kb / 1024.0


WORKLOADS = {w.name: w for w in (CliOneshot, PairGrid, Certify)}

