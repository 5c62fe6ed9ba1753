"""Record and replay the CLI's output bytes.

``cli_record.json`` holds, for each argument vector, the argv, the exit
code and the SHA-256 of stdout.  Replay runs every vector in process
through ``agecompat.cli.main`` and names each one whose exit code or
stdout bytes differ.  Run from the repository root with the package on
the path:

    PYTHONPATH=src python tests/cli_record.py           # replay; exit 1 on a difference
    PYTHONPATH=src python tests/cli_record.py --write   # regenerate the record

Replay needs only the standard library and the package.  ``--write``
also imports ``agebench`` for its seeded ``cli_argv_pool`` (seeds 1-10)
and adds the fixed vectors below.  A change that moves output on purpose
regenerates the record and says which vectors moved and why.
"""

import argparse
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from agecompat import cli

RECORD = Path(__file__).resolve().with_name("cli_record.json")
POOL_SEEDS = range(1, 11)

# every subcommand and its main paths: the lazily imported verify and
# expect code, sigmas whose squares underflow and ages whose squares
# overflow, each binomial method and a subnormal tail at n = 10**7, the
# limit and rule solvers, and two inputs that exit 2; then a tail where
# n*p is subnormal, an n just past the binomial density's float range
# (exit 2), README's two worked compat examples, three queries whose
# sigmas are tiny next to d or the gap: a d whose t = d / min sigma
# overflows (exit 2), and two whose closed-form bounds overflow; and a
# query whose gap + d overflows while both bounds are finite, the same
# query's error budget.  The record owns their bytes; CI runs one per
# subcommand in a fresh process as well.
SMOKE = [
    "compat --age1 18 --age2 14",
    "compat --age1 18 --age2 14 --error-budget 0.1,0.1,0.1",
    "compat --age1 18 --age2 14 --s1 1e-202 --s2 1e-202 --error-budget 0.1,0.1,0.1",
    "compat --age1 1e200 --age2 1.1e200 --error-budget 0.1,0.1,0.1",
    "expect --n1 50 --n2 200 --age1 20 --age2 16 --at-least-k 15",
    "expect --n1 50 --n2 200 --p 0.1 --at-least-k 15",
    "expect --n1 10000000 --n2 9999990 --p 0.5 --at-least-k 5000000",
    "expect --n1 10000000 --n2 2000000 --p 0.3 --at-least-k 601000",
    "expect --n1 10000000 --n2 10000000 --p 0.5 --at-least-k 5009487",
    "expect --n1 10000000 --n2 10000000 --p 0.5 --at-least-k 4990513",
    "--digits 17 expect --n1 10000000 --n2 10000000 --p 0.05 --at-least-k 526465",
    "limits --kind min --chrono 18 --sweep 0.05:0.95:0.05",
    "limits --kind min --mental 18 --p 0.3",
    "limits --kind max --mental 40 --p 0.3",
    "limits --kind min --chrono 18 --p 1e-17 --s 0.1",
    "limits --kind min --mental 30 --p 1e-17 --s 0.1",
    "rule --mu-grid 15:80:5",
    "rule --solve-m --p 0.05",
    "rule --solve-m --p 1e-11 --s1 0.15 --s2 0.15 --t 1.981",
    "tables",
    "limits --kind max --chrono 18 --p 0.001 --s 2",
    "compat --age1 18 --age2 18 --s1 0.001 --s2 0.001 --error-budget 1e308,0,0",
    "expect --n1 10 --n2 10 --p 1e-320 --at-least-k 1",
    f"expect --n1 {12 * 10 ** 153} --n2 {12 * 10 ** 153} --p 0.5 --at-least-k {648 * 10 ** 151}",
    "compat --age1 18 --age2 14 --s1 0.1 --s2 0.1 --t 1",
    "compat --age1 20 --age2 16 --s1 0.15 --s2 0.15 --t 1.1284",
    "compat --age1 18 --age2 14 --s1 1e-300 --s2 1 --d 1e10",
    "compat --age1 18 --age2 14 --s1 1e-300 --s2 1e-300 --d 1e10",
    "compat --age1 18 --age2 14 --s1 1e-310 --s2 1e-310 --t 1",
    "compat --age1 1e308 --age2 1e300 --s1 1 --s2 1e8 --t 1",
    "compat --age1 1.7e308 --age2 1 --s1 0.588235 --s2 1e308 --d 1e308 --error-budget 0.1,0.1,0.1",
]

# binomial tails near and below the float underflow threshold, by the sum
UNDERFLOW = [
    "--digits 17 expect --n1 10000000 --n2 10000000 --p 0.1 --at-least-k 1035670",
    "--digits 17 expect --n1 10000000 --n2 10000000 --p 0.1 --at-least-k 1036429",
    "--digits 17 expect --n1 10000000 --n2 10000000 --p 0.1 --at-least-k 1036619",
    "--digits 17 expect --n1 10000000 --n2 10000000 --p 0.001 --at-least-k 14038",
    "--digits 17 expect --n1 10000000 --n2 10000000 --p 0.05 --at-least-k 474362",
]

# population-scale cohorts: Temme's expansion at n = 8e7, the sum just
# outside its domain, the sum at n = 1e18 > 2**53, and an n beyond the
# float range, which exits 2
POPULATION = [
    "expect --n1 80000000 --n2 80000000 --p 0.5 --at-least-k 40010000",
    "expect --n1 80000000 --n2 80000000 --p 0.001 --at-least-k 82480",
    "expect --n1 1000000000000000000 --n2 1000000000000 --p 1e-13 --at-least-k 103100",
    f"expect --n1 {10 ** 400} --n2 1000 --p 0.5 --at-least-k 10",
]

# rule audits with a bad --s1 or --t, whatever the grid holds; limit
# conversions at the quantile's edges; single bad arguments; a sigma past
# the float maximum over sqrt(2) (exit 2), and one below it whose double
# overflows under --normalized; a finite t whose d overflows (exit 2), and
# zero differences, signed and unsigned; valid ages and s whose product
# sigma = s * age underflows to 0 or overflows to inf (exit 2); then a
# normal tail at p = 0 and a k above n (exit 2)
EDGE = [
    "rule --mu-grid 10:14:1 --s1 -1 --t 0.5",
    "rule --mu-grid 10:14:1 --t 0.5",
    "rule --mu-grid 10:15:1 --s1 -1 --t 0.5",
    "rule --mu-grid 10:14:1",
    "rule --mu-grid 15:20:1 --s2 nan",
    "rule --solve-m --p 0.5",
    "rule --solve-m --p 0.05 --s1 -1",
    "rule --solve-m --p 0.05 --t 0.5",
    "limits --kind min --mental 18 --p 0.5",
    "limits --kind max --chrono 18 --p 1e-300 --s 0.01",
    "limits --kind min --chrono 18 --p 0",
    "limits --kind max --mental 18 --p 1 --s 0.1",
    "--digits 17 limits --kind min --chrono 30 --sweep 0.0001:0.9999:0.0999",
    "expect --n1 100 --n2 300 --p 0.3 --normal --at-least-k 40",
    "expect --n1 100 --n2 300 --p 0 --normal --at-least-k 1",
    "expect --n1 0 --n2 5 --p 0.3 --at-least-k 0",
    "compat --age1 1e308 --age2 1e308 --s1 1.5 --s2 1.5",
    "compat --age1 1e308 --age2 1e308 --s1 0.95 --s2 0.95 --normalized",
    "compat --age1 18 --age2 14 --t 1e308",
    "compat --age1 18 --age2 14 --d -0.0",
    "compat --age1 18 --age2 14 --t -0.0",
    "compat --age1 18 --age2 14 --t 0",
    "compat --age1 5e-324 --age2 5e-324",
    "compat --age1 18 --age2 14 --s1 1e308 --s2 1",
    "expect --n1 10 --n2 10 --age1 80 --age2 15 --s1 0.01 --s2 0.01 --at-least-k 1",
    "expect --n1 3 --n2 500 --p 0.5 --at-least-k 4",
]

# every optional column group of compat and expect that no vector above
# covers: README's two worked examples (both compat groups; expect --p
# without k), ages without k, ages with one tail path each, and the note
# column without k
COLUMNS = [
    "compat --age1 18 --age2 14 --s1 0.1 --s2 0.1 --t 1 --normalized --error-budget 0.1,0.05,0.05",
    "expect --n1 50 --n2 200 --age1 20 --age2 16",
    "expect --n1 3780000 --n2 3780000 --p 0.111111",
    "expect --n1 50 --n2 200 --age1 20 --age2 16 --at-least-k 15 --exact",
    "expect --n1 50 --n2 200 --age1 20 --age2 16 --at-least-k 15 --normal",
    "expect --n1 10000000000 --n2 10000000000 --p 0.5",
]


def run(argv):
    """(exit code, stdout bytes) of ``cli.main(argv)``; stderr is discarded."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


def entry(argv):
    code, out = run(argv)
    return {"argv": list(argv), "exit": code,
            "stdout_sha256": hashlib.sha256(out).hexdigest()}


def load(path=RECORD):
    return json.loads(Path(path).read_text())


def replay(record):
    """One line per vector whose exit code or stdout bytes differ from the record."""
    diffs = []
    for want in record:
        got = entry(want["argv"])
        if got != want:
            moved = [k for k in ("exit", "stdout_sha256") if got[k] != want[k]]
            diffs.append(f"{' '.join(want['argv'])}: {', '.join(moved)} differ "
                         f"(exit {want['exit']} -> {got['exit']})")
    return diffs


def vectors():
    """The argv lists: the seeded benchmark pool, then the fixed vectors."""
    sys.path.insert(0, str(RECORD.parent.parent / "agebench"))
    from workloads import cli_argv_pool
    argvs = [argv for seed in POOL_SEEDS for argv in cli_argv_pool(seed)]
    argvs += [line.split() for line in SMOKE + UNDERFLOW + POPULATION + EDGE + COLUMNS]
    unique = []
    for argv in argvs:
        if argv not in unique:
            unique.append(argv)
    return unique


def write(path=RECORD):
    # one vector per line, so a regenerated record diffs line by line
    lines = [json.dumps(entry(argv)) for argv in vectors()]
    Path(path).write_text("[\n" + ",\n".join(lines) + "\n]\n")
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the record from this tree instead of replaying it")
    args = parser.parse_args(argv)
    if args.write:
        print(f"wrote {write()} vectors to {RECORD.name}")
        return 0
    record = load()
    diffs = replay(record)
    for line in diffs:
        print(line)
    print(f"{len(record) - len(diffs)} of {len(record)} vectors match {RECORD.name}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
