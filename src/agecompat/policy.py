"""Age-limit inversion and the audit of the half-your-age-plus-seven rule.

Two applications of the core model:

* Converting between a mental-age threshold (with a limit probability
  and dispersion ratio s) and the chronological age that realizes it,
  in both directions and for both lower and upper limits.

* Testing the half-your-age-plus-seven dating rule against the
  probability model.  A constant minimum probability across ages forces
  the acceptable gap to be proportional to age (Delta = m * mu); the
  rule's implied gap Delta = mu - 14 is not, and the audit quantifies
  the mismatch.
"""

import math
import warnings
from collections import namedtuple
from collections.abc import Iterable

from .compat import _ratio_prob
from .model import MEAN_DIFF_COEF, _Value
from .special import _check_nonneg, _check_open_prob, _check_positive, _quantile

__all__ = [
    "DEFAULT_T", "AgeLimitSpec", "RuleAuditPoint",
    "chrono_min_age", "chrono_max_age", "mental_limit_from_chrono",
    "hyaps_bounds", "rule_probability", "audit_hyaps", "solve_m",
]

# Benchmark multiple of sigma for the allowed difference: the mean of
# the same-cohort half-normal difference law, 2/sqrt(pi) ~ 1.128.
DEFAULT_T = MEAN_DIFF_COEF

# Relative age error 14/mu of the inverted rule flagged above this.
RULE_ERR_TOLERANCE = 0.05


def _check_kind(kind):
    if kind not in ("min", "max"):
        raise ValueError(f"kind must be 'min' or 'max', got {kind!r}")


def _check_rule_args(s1, s2, t):
    # the rule's dispersion ratios and difference multiple, d = t*s1*mu
    _check_positive(s1, "s1")
    _check_positive(s2, "s2")
    if not 1.0 <= t < math.inf:
        raise ValueError(
            f"t must be at least 1 (natural lower edge of d) and finite, got {t!r}")


class AgeLimitSpec(_Value):
    """A mental-age limit: kind ('min' or 'max'), threshold, probability, s."""

    __slots__ = ("_kind", "_x_limit", "_p_limit", "_s")

    def __init__(self, kind: str, x_limit: float, p_limit: float, s: float):
        _check_kind(kind)
        _check_positive(x_limit, "x_limit")
        _check_open_prob(p_limit, "p_limit")
        _check_positive(s, "s")
        self._kind = kind
        self._x_limit = x_limit
        self._p_limit = p_limit
        self._s = s


def _limit_factor(s, p_limit, kind):
    # 1 + s * Phi^-1(1 - p_limit) for a lower limit, 1 + s * Phi^-1(p_limit)
    # for an upper one: mental limit = chronological limit * factor.
    # Phi^-1(1 - p) is taken as -Phi^-1(p): 1 - p_limit rounds, and to 1.0
    # below p_limit = 2**-54
    z = _quantile(p_limit)
    factor = 1.0 + s * (-z if kind == "min" else z)
    if factor <= 0.0:
        raise ValueError(
            "limit probability too extreme for the given s "
            f"(1 + s*quantile = {factor!r} <= 0) at p_limit={p_limit!r}")
    return factor


def _age_limit(value, name):
    # finite positive inputs and factor, so only overflow or underflow lands here
    if not 0.0 < value < math.inf:
        raise ValueError(
            f"{name} is {value!r}, not a finite positive age: the inputs are too extreme")
    return value


def _chrono_from_mental(spec):
    return _age_limit(spec.x_limit / _limit_factor(spec.s, spec.p_limit, spec.kind),
                      "chronological age limit")


def chrono_min_age(spec: AgeLimitSpec) -> float:
    """Youngest chronological age whose share above x_min reaches p_min.

    Solves p_min = P(X >= x_min; mu, s*mu) for mu:
    mu_min = x_min / (1 + s * Phi^-1(1 - p_min)).  At p_min = 0.5 the
    quantile vanishes and mu_min = x_min exactly.  Raises ValueError
    where that factor is <= 0 or mu_min leaves the float range, as
    :func:`mental_limit_from_chrono` does.
    """
    if spec.kind != "min":
        raise ValueError(f"expected a 'min' spec, got kind={spec.kind!r}")
    return _chrono_from_mental(spec)


def chrono_max_age(spec: AgeLimitSpec) -> float:
    """Oldest chronological age whose share below x_max reaches p_max.

    mu_max = x_max / (1 + s * Phi^-1(p_max)); mirror of
    :func:`chrono_min_age`.
    """
    if spec.kind != "max":
        raise ValueError(f"expected a 'max' spec, got kind={spec.kind!r}")
    return _chrono_from_mental(spec)


def mental_limit_from_chrono(mu_limit: float, s: float, p_limit: float,
                             kind: str) -> float:
    """Mental-age limit implied by a chronological one (inverse direction).

    x_min = mu_min * (1 + s * Phi^-1(1 - p_min)) for lower limits,
    x_max = mu_max * (1 + s * Phi^-1(p_max)) for upper ones; round-trips
    with the chrono_* functions.

    Raises:
        ValueError: the factor 1 + s * Phi^-1(...) is <= 0 (the limit
            probability is too extreme for s: no positive age realizes
            it), or the limit overflows or underflows the float range.
    """
    _check_kind(kind)
    _check_positive(mu_limit, "mu_limit")
    _check_positive(s, "s")
    _check_open_prob(p_limit, "p_limit")
    return _age_limit(mu_limit * _limit_factor(s, p_limit, kind), "mental age limit")


def hyaps_bounds(mu: float) -> tuple[float, float]:
    """Half-your-age-plus-seven bounds: (mu/2 + 7, 2*mu - 14).

    mu = 14 is the fixed point where both bounds collapse onto mu.
    """
    _check_positive(mu, "mu")
    return (0.5 * mu + 7.0, 2.0 * mu - 14.0)


def rule_probability(mu: float, delta: float, s1: float, s2: float,
                     t: float = DEFAULT_T) -> float:
    """Compatibility probability for ages (mu, mu + delta), d = t*s1*mu.

    Equals the general pair probability with sigma1 = s1*mu,
    sigma2 = s2*(mu + delta) and d anchored on the younger person.  For
    constant s1, s2 it depends on (mu, delta) only through delta/mu, so
    a proportional gap delta = m*mu keeps it constant across ages.
    """
    _check_positive(mu, "mu")
    _check_nonneg(delta, "delta")
    _check_rule_args(s1, s2, t)
    return _ratio_prob(delta / mu, s2, s1, t)


RuleAuditPoint = namedtuple("RuleAuditPoint", "mu delta p_min err_term flagged")
RuleAuditPoint.__doc__ = """One audited age: gap delta = mu - 14 and the resulting probability.

err_term is 14/mu, the relative deviation of the rule's gap from
proportionality; flagged marks ages where it exceeds 5%, which only
clears at mu >= 280.
"""


def audit_hyaps(mu_grid: Iterable[float], s1: float, s2: float,
                t: float = DEFAULT_T) -> list[RuleAuditPoint]:
    """Evaluate the inverted rule (delta = mu - 14) across an age grid.

    Ages at or below the fixed point 14 have no upward gap and are
    skipped with a warning.  A constant-probability rule would produce a
    flat p_min column; this one does not, which is the audit's finding.
    """
    _check_rule_args(s1, s2, t)
    points = []
    for mu in mu_grid:
        if mu <= 14.0:
            warnings.warn(
                f"skipping mu={mu!r}: the rule allows no upward gap at or "
                "below its fixed point 14", stacklevel=2)
            continue
        _check_positive(mu, "mu")
        delta = mu - 14.0
        err = 14.0 / mu
        points.append(RuleAuditPoint(
            mu=mu,
            delta=delta,
            p_min=_ratio_prob(delta / mu, s2, s1, t),
            err_term=err,
            flagged=err > RULE_ERR_TOLERANCE,
        ))
    return points


def solve_m(p_min: float, s1: float, s2: float, t: float = DEFAULT_T) -> float:
    """Gap slope m such that delta = m*mu yields the target probability.

    The map m -> p is strictly decreasing from the same-age value at
    m = 0 toward 0, so the root is unique.  It is bracketed by doubling
    m_hi from 1 until p(m_hi) <= p_min, and found by secant steps on
    log p - log p_min through the last two iterates, started from the
    doubling's last two points.  A step that would leave the bracket, a
    repeated log p and a p that underflows each take a bisection of the
    bracket instead.  The iteration stops once |p(m) - p_min| <=
    4e-16 * p_min, returning that m, or once the bracket has shrunk
    below the spacing of floats at m, returning whichever end of the
    bracket has the smaller |p - p_min|.

    So the residual is only as fine as p resolves near the root.  The
    closed form rounds m in its bounds (m +- t*s1)/den, which moves p
    by up to about ulp(m)/(t*s1) relative, and that grows with m.
    |p(m) - p_min| stays within about 5e-14 * p_min while m < 128 (worst
    4.5e-14 over 20,000 seeded draws of s1, s2 in [0.1, 0.2] and t in
    [1, 2]; p_min down to 1e-11 at s1 = s2 = 0.15 and t = 1.981).
    Beyond that it is relative to p_min only loosely: at those s and t
    it is 2.4e-14 at p_min = 1e-12, 4.4e-11 at 1e-16, 5.0e-6 at 1e-20
    and 9.7e-3 at 1e-24 (0.095 against a 40-digit p(m)).

    Far out p falls only as 1/m, so tail targets need large slopes:
    p_min = 1e-11 at s1 = s2 = 0.15 and t = 1.981 needs m > 64.  The
    doubling gives up, with a ValueError naming p_min, where m_hi
    overflows or where p(m_hi) rounds to 0.
    """
    _check_rule_args(s1, s2, t)
    ceiling = _ratio_prob(0.0, s2, s1, t)   # the same-age value
    if not 0.0 < p_min < ceiling:
        raise ValueError(
            f"p_min must lie in (0, {ceiling:.6g}) (the same-age value) "
            f"for a positive root to exist, got {p_min!r}")

    lo, p_lo, hi = 0.0, ceiling, 1.0
    while (p_hi := _ratio_prob(hi, s2, s1, t)) > p_min:
        lo, p_lo = hi, p_hi
        hi *= 2.0
        if hi == math.inf:
            raise ValueError(f"p_min = {p_min!r} is not reached at any finite gap slope m")
    if p_hi == 0.0:
        # p itself never reaches 0; its bounds (m +- t*s1)/den round together
        # once t*s1 is below half an ulp of m, and no root is resolved there
        raise ValueError(f"p_min = {p_min!r} is below every p the closed form "
                         f"resolves: p rounds to 0 at m = {hi!r}")
    # secant steps on f(m) = log p - log p_min, close to quadratic in m in the tail
    log_target = math.log(p_min)
    a, fa = lo, math.log(p_lo) - log_target
    b, fb = hi, math.log(p_hi) - log_target
    for _ in range(200):
        m = b - fb * (b - a) / (fb - fa) if fb != fa else lo
        if not lo < m < hi:
            # the step overshot, or f repeated: bisect
            m = 0.5 * (lo + hi)
            if not lo < m < hi:
                break                   # the bracket has collapsed
        p = _ratio_prob(m, s2, s1, t)
        if abs(p - p_min) <= 4e-16 * p_min:       # a few ulp of p_min
            return m
        if p > p_min:
            lo, p_lo = m, p
        else:
            hi, p_hi = m, p
        if p > 0.0:
            a, fa, b, fb = b, fb, m, math.log(p) - log_target
        # else p underflowed: the unchanged iterates step to an end of the
        # bracket again, so the next step bisects
    # the last iterate is one end of the collapsed bracket, not always the
    # one nearer the target
    return lo if p_min - p_hi >= p_lo - p_min else hi
