"""Command-line interface.

Subcommands mirror the library: ``compat`` for pair probabilities,
``expect`` for population expectations, ``limits`` for age-limit
conversions and sweeps, ``rule`` for the half-your-age-plus-seven audit
and its gap-slope solver, and ``tables`` for the two reference tables.

All record output is CSV (header row, comma separator, LF endings; no
field can hold a comma, quote or newline, so none is quoted) and
byte-deterministic for identical flags.
Each command computes its whole output and returns it as text; ``main``
writes that text to stdout once, after the command has returned, so a
non-zero exit writes nothing there.  Exit codes: 0 success, 2 usage or
domain error, 3 numerical failure.

``main`` reads a plain argv, ``[--digits N]... COMMAND`` then exact long
flags each with its value or a switch, from ``_FLAGS`` without importing
argparse.  Any other argv (help, an abbreviation, ``--flag=value``, a value
that starts with ``-``, one that does not convert, a missing or unknown
flag) goes to argparse, so every help screen, usage line and error message
is argparse's own.  Its parser is built once per process, at the first call
that needs it, and reused by every later one; it holds no command, since
``main`` looks up ``_cmd_<command>`` by the subcommand's name at each call.
argparse translates its own group titles (such as "options") through
gettext at that first build, so a later change of locale does not reach
them.
"""

import functools
import math
import sys
import warnings
from types import SimpleNamespace

from . import compat as compat_mod
from .compat import CompatQuery
from .model import D_SCOPE_UPPER_COEF, MEAN_DIFF_COEF, Gaussian
from .special import QuadratureError, _check_positive

DEFAULT_S = 0.15
DEFAULT_DIGITS = 6

_FLOAT_EXACT_LIMIT = 2.0 ** 53
_MAX_GRID_POINTS = 10 ** 5


def _fmt(value, digits):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    return format(float(value), f".{digits}g")


def _csv(columns, rows, digits):
    # every field is a formatted number, true/false, an argparse choice or
    # fixed text, none of which holds a comma, quote or newline to quote
    lines = [",".join(columns)]
    lines += [",".join([_fmt(v, digits) for v in row]) for row in rows]
    return "\n".join(lines) + "\n"


def _digits(text):
    value = int(text)
    if value < 1:
        import argparse
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _three_numbers(text, sep, form, wrong):
    """The three floats of text split at sep; form and wrong word the two errors."""
    parts = text.split(sep)
    if len(parts) != 3:
        raise ValueError(f"expected {form}, got {text!r}")
    try:
        return [float(part) for part in parts]
    except ValueError:
        raise ValueError(f"{wrong}, got {text!r}") from None


def _parse_range(text):
    """Parse lo:hi:step into an inclusive list of at most 10**5 grid values."""
    lo, hi, step = _three_numbers(text, ":", "lo:hi:step", "lo:hi:step must be three numbers")
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"grid bounds and step must be finite, got {text!r}")
    if step <= 0 or hi < lo:
        raise ValueError(f"need lo <= hi and step > 0, got {text!r}")
    span = (hi - lo) / step  # the grid has round(span) + 1 points
    if not span < _MAX_GRID_POINTS - 0.5:
        raise ValueError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
    count = int(round(span))
    values = [lo + i * step for i in range(count + 1)]
    return [v for v in values if v <= hi + 1e-9 * max(1.0, abs(hi))]


def _sigma_flags(row, i):
    return f"sigma{i} = s{i} * age{i} = {row['s' + i]!r} * {row['age' + i]!r}"


def _pair(args):
    """The checked CompatQuery of the pair flags, and its age1, age2, s1, s2, d columns."""
    if args.age1 is None or args.age2 is None:
        raise ValueError("need both --age1 and --age2")
    row = {"age1": args.age1, "age2": args.age2,
           "s1": DEFAULT_S if args.s1 is None else args.s1,
           "s2": DEFAULT_S if args.s2 is None else args.s2}
    for name, value in row.items():  # by flag name, before sigma = s * age
        _check_positive(value, name)
    g = []
    for i in "12":  # valid flags whose product under- or overflows: name them
        age, s = row["age" + i], row["s" + i]
        try:
            g.append(Gaussian(age, s * age))
        except ValueError as exc:
            raise ValueError(f"{_sigma_flags(row, i)}: {exc}") from None
    t = MEAN_DIFF_COEF if args.d is None and args.t is None else args.t
    try:
        q = CompatQuery(*g, d=args.d, t=t)
    except ValueError as exc:
        if "overflows" not in str(exc):
            raise
        # only d = t * min sigma or t = d / min sigma overflowing says so: name
        # the flags behind that sigma, sigma1 on a tie as in CompatQuery
        i = "1" if g[0].sigma <= g[1].sigma else "2"
        raise ValueError(f"{exc} ({_sigma_flags(row, i)})") from None
    row["d"] = q.d
    return q, row


def _cmd_compat(args):
    q, row = _pair(args)
    row.update(t=q.t, p=compat_mod.compat_prob(q))
    if args.normalized:
        norm = compat_mod.compat_prob_normalized(q)
        row.update(p0=norm.value, p0_denominator=norm.denominator, p0_swapped=norm.swapped)
    if args.error_budget is not None:
        from .verify import ErrorBudget, error_propagation
        errs = _three_numbers(args.error_budget, ",", "dd,dsigma1,dsigma2",
                              "--error-budget takes three numbers dd,dsigma1,dsigma2")
        row["delta_p"] = error_propagation(q, ErrorBudget(*errs))
    return _csv(row, [row.values()], args.digits)


def _cmd_expect(args):
    from . import expect as expect_mod
    row = {"n1": args.n1, "n2": args.n2}
    if args.p is not None:
        for name in ("age1", "age2", "s1", "s2", "d", "t"):
            if getattr(args, name) is not None:
                raise ValueError(f"give either --p or the age/s flags, not both: got --{name}")
        p = args.p
    else:
        if args.age1 is None or args.age2 is None:
            raise ValueError("need --p or both --age1 and --age2")
        q, pair = _pair(args)
        row.update(pair)
        p = compat_mod.compat_prob(q)
    n1, n2 = args.n1, args.n2
    k = args.at_least_k
    if k is not None:  # a tail that cannot be computed fails by the flags behind it
        for n, flag, cohort in ((n2, "--n2", 1), (n1, "--n1", 2)):
            if 0 <= n < k:
                raise ValueError(f"--at-least-k {k} is above {flag} {n}, "
                                 f"the candidates a member of cohort {cohort} faces")
        if args.path != "exact" and p in (0.0, 1.0):
            raise ValueError(f"the normal tail needs 0 < p < 1, and p is {p!r} here; "
                             f"--exact prints the exact tail alone")

    pairs = expect_mod.expected_pairs(n1, n2, p)
    row.update(p=p, pairs=pairs,
               mean_counterparts_1=expect_mod.mean_counterparts(n1, p),
               mean_counterparts_2=expect_mod.mean_counterparts(n2, p),
               with_match_1=expect_mod.expected_with_at_least_one(n1, n2, p),
               with_match_2=expect_mod.expected_with_at_least_one(n2, n1, p))

    if k is not None:
        row["k"] = k
        if args.path != "normal":
            row["k_tail_exact_1"] = expect_mod.at_least_k_exact(k, n2, p)
            row["k_tail_exact_2"] = expect_mod.at_least_k_exact(k, n1, p)
        if args.path != "exact":
            tail1 = expect_mod.at_least_k_normal(k, n2, p)
            tail2 = expect_mod.at_least_k_normal(k, n1, p)
            row.update(k_tail_normal_1=tail1.value, k_tail_normal_2=tail2.value,
                       normal_valid_1=tail1.valid, normal_valid_2=tail2.valid)

    if pairs > _FLOAT_EXACT_LIMIT:
        row["note"] = "pairs exceed 2^53; value carries float64 precision only"
    return _csv(row, [row.values()], args.digits)


def _cmd_limits(args):
    from . import policy
    if (args.mental is None) == (args.chrono is None):
        raise ValueError("give exactly one of --mental and --chrono")
    if args.sweep is not None:
        if args.chrono is None:
            raise ValueError("--sweep converts a chronological limit; give --chrono")
        if args.p is not None:
            raise ValueError("--sweep takes no single limit probability: got --p")
        rows = [(pv, args.s,
                 policy.mental_limit_from_chrono(args.chrono, args.s, pv, args.kind))
                for pv in _parse_range(args.sweep)]
        return _csv(["p_limit", "s", "mental_limit"], rows, args.digits)
    if args.p is None:
        raise ValueError("need --p for a single conversion")
    if args.mental is not None:
        spec = policy.AgeLimitSpec(args.kind, args.mental, args.p, args.s)
        chrono = (policy.chrono_min_age(spec) if args.kind == "min"
                  else policy.chrono_max_age(spec))
        return _csv(["kind", "mental_limit", "p_limit", "s", "chrono_age"],
                    [[args.kind, args.mental, args.p, args.s, chrono]], args.digits)
    mental = policy.mental_limit_from_chrono(args.chrono, args.s, args.p, args.kind)
    return _csv(["kind", "chrono_age", "p_limit", "s", "mental_limit"],
                [[args.kind, args.chrono, args.p, args.s, mental]], args.digits)


def _cmd_rule(args):
    from . import policy
    if args.solve_m:
        if args.mu_grid is not None:
            raise ValueError("--solve-m takes no audit grid: got --mu-grid")
        if args.p is None:
            raise ValueError("--solve-m needs a target --p")
        m = policy.solve_m(args.p, args.s1, args.s2, args.t)
        return _csv(["p_min", "s1", "s2", "t", "m"],
                    [[args.p, args.s1, args.s2, args.t, m]], args.digits)
    if args.mu_grid is None:
        raise ValueError("need --mu-grid for audit mode (or --solve-m)")
    if args.p is not None:
        raise ValueError("audit mode takes no target probability (that is for --solve-m): got --p")
    grid = _parse_range(args.mu_grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = policy.audit_hyaps(grid, args.s1, args.s2, args.t)
    for w in caught:
        print(w.message, file=sys.stderr)
    rows = [(pt.mu, pt.delta, pt.delta / pt.mu, pt.p_min, pt.err_term, pt.flagged)
            for pt in points]
    return _csv(["mu", "delta", "delta_over_mu", "p_min", "err_term", "flagged"],
                rows, args.digits)


def _cmd_tables(args):
    from . import policy
    t_values = [("sigma", 1.0),
                ("(2/sqrt(pi))*sigma", MEAN_DIFF_COEF),
                ("sqrt(2)*sigma", math.sqrt(2.0)),
                ("(mean+disp)*sigma", D_SCOPE_UPPER_COEF)]
    p_mins = (0.05, 0.1, 0.15)
    lines = [
        "Same-age compatibility p = erf(t/2) at reference differences d",
        "  d: " + "  ".join(label for label, _ in t_values),
        "  p: " + "  ".join(f"{compat_mod.same_age_prob(t):.2f}" for _, t in t_values),
        "",
        "Gap slope m (delta = m*mu) for constant minimum probability, t = 2/sqrt(pi)",
        ("          " + "".join(f"p_min={p:<6g}" for p in p_mins)).rstrip(),
    ]
    for s in (0.1, 0.15, 0.2):
        cells = "".join(
            f"{policy.solve_m(p, s, s, MEAN_DIFF_COEF):<12.2f}" for p in p_mins)
        lines.append(f"  s={s:<5g} {cells}".rstrip())
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser() -> "argparse.ArgumentParser":
    import argparse
    parser = argparse.ArgumentParser(
        prog="agecompat",
        description="Mental-age compatibility probabilities, expectations, "
                    "age-limit conversions and rule audits.")
    parser.add_argument("--digits", type=_digits, default=DEFAULT_DIGITS,
                        help="significant digits for numeric output, at least 1 "
                             "(default 6)")
    sub = parser.add_subparsers(dest="command", required=True)

    # compat and expect share the pair flags.  Every default is None, so that
    # expect --p can reject a given one; _pair fills in DEFAULT_S.
    pair = argparse.ArgumentParser(add_help=False)
    for flag in ("--age1", "--age2", "--s1", "--s2"):
        pair.add_argument(flag, type=float, default=None)
    pair.add_argument("--d", type=float, default=None,
                      help="allowed mental-age difference in years")
    pair.add_argument("--t", type=float, default=None,
                      help="difference as a multiple of min(sigma1, sigma2); "
                           "default 2/sqrt(pi)")

    p_compat = sub.add_parser("compat", parents=[pair],
                              help="pair compatibility probability")
    p_compat.add_argument("--normalized", action="store_true",
                          help="also report p divided by the younger cohort's "
                               "same-age probability")
    p_compat.add_argument("--error-budget", default=None, metavar="DD,DS1,DS2",
                          help="first-order uncertainty budget; adds a delta_p column")

    p_expect = sub.add_parser("expect", parents=[pair], help="population expectations")
    p_expect.add_argument("--n1", type=int, required=True)
    p_expect.add_argument("--n2", type=int, required=True)
    p_expect.add_argument("--p", type=float, default=None,
                          help="pair probability; alternatively give age/s flags")
    p_expect.add_argument("--at-least-k", type=int, default=None, metavar="K",
                          help="also report P(at least K matches) per member, "
                               "taking a member's pair events as independent trials")
    group = p_expect.add_mutually_exclusive_group()
    group.add_argument("--exact", dest="path", action="store_const",
                       const="exact", help="only the exact binomial tail")
    group.add_argument("--normal", dest="path", action="store_const",
                       const="normal", help="only the normal-approximation tail")
    p_expect.set_defaults(path="both")

    p_limits = sub.add_parser("limits", help="age-limit conversions")
    p_limits.add_argument("--kind", choices=("min", "max"), required=True)
    p_limits.add_argument("--mental", type=float, default=None,
                          help="mental-age limit to convert to a chronological age")
    p_limits.add_argument("--chrono", type=float, default=None,
                          help="chronological limit to convert to a mental age")
    p_limits.add_argument("--p", type=float, default=None,
                          help="limit probability")
    p_limits.add_argument("--s", type=float, default=DEFAULT_S)
    p_limits.add_argument("--sweep", default=None, metavar="LO:HI:STEP",
                          help="sweep the limit probability; emits a CSV of "
                               "(p_limit, s, mental_limit) rows")

    p_rule = sub.add_parser("rule", help="half-your-age-plus-seven audit / solver")
    p_rule.add_argument("--mu-grid", default=None, metavar="LO:HI:STEP",
                        help="audit the inverted rule over this age grid")
    p_rule.add_argument("--s1", type=float, default=DEFAULT_S)
    p_rule.add_argument("--s2", type=float, default=DEFAULT_S)
    p_rule.add_argument("--t", type=float, default=MEAN_DIFF_COEF,
                        help="difference multiple; default 2/sqrt(pi)")
    p_rule.add_argument("--solve-m", action="store_true",
                        help="solve for the gap slope m with delta = m*mu")
    p_rule.add_argument("--p", type=float, default=None,
                        help="target minimum probability for --solve-m")

    sub.add_parser("tables", help="print both reference tables")

    return parser


# build_parser's subcommand flags, which the tests check against it: flag ->
# (kind, default).  A kind that is a type or a tuple of choices takes one
# value; any other kind is the constant that a switch stores.  A default of
# ... marks a required flag.  --exact and --normal store into "path".
_PAIR = dict.fromkeys(("--age1", "--age2", "--s1", "--s2", "--d", "--t"), (float, None))
_FLAGS = {
    "compat": {**_PAIR, "--normalized": (True, False), "--error-budget": (str, None)},
    "expect": {**_PAIR, "--n1": (int, ...), "--n2": (int, ...), "--p": (float, None),
               "--at-least-k": (int, None), "--exact": ("exact", "both"),
               "--normal": ("normal", "both")},
    "limits": {"--kind": (("min", "max"), ...), "--mental": (float, None),
               "--chrono": (float, None), "--p": (float, None), "--s": (float, DEFAULT_S),
               "--sweep": (str, None)},
    "rule": {"--mu-grid": (str, None), "--s1": (float, DEFAULT_S), "--s2": (float, DEFAULT_S),
             "--t": (float, MEAN_DIFF_COEF), "--solve-m": (True, False),
             "--p": (float, None)},
    "tables": {},
}


def _dest(flag):
    return "path" if flag in ("--exact", "--normal") else flag[2:].replace("-", "_")


def _fast_args(argv):
    """build_parser().parse_args(argv)'s attributes for a plain argv, else None.

    Plain is ``[--digits N]... COMMAND`` then exact long flags of COMMAND,
    each with a value that does not start with ``-`` and converts as
    argparse would convert it, or a switch; every required flag is given and
    not both of --exact and --normal.  None sends argv to argparse.
    """
    values, flags, given = {"digits": DEFAULT_DIGITS}, {"--digits": (int, None)}, set()
    tokens = iter(argv)
    for token in tokens:
        if "command" not in values and token in _FLAGS:
            values["command"], flags = token, _FLAGS[token]
            continue
        if token not in flags:
            return None
        kind = flags[token][0]
        given.add(token)
        if not (callable(kind) or isinstance(kind, tuple)):  # a switch
            values[_dest(token)] = kind
            continue
        text = next(tokens, "-")  # a missing value reads as "-"
        try:
            value = kind(text) if callable(kind) else kind[kind.index(text)]
        except ValueError:  # no number, or none of the choices
            return None
        if text.startswith("-") or token == "--digits" and value < 1:
            return None
        values[_dest(token)] = value
    if "command" not in values or {"--exact", "--normal"} <= given:
        return None
    for flag, (_, default) in flags.items():
        if _dest(flag) not in values:
            if default is ...:
                return None
            values[_dest(flag)] = default
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        text = globals()[f"_cmd_{args.command}"](args)
    except (ValueError, OverflowError) as exc:
        # OverflowError: finite inputs whose intermediates leave float range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
