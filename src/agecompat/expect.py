"""Population-level expectations built on a pair probability p.

Given two cohorts of sizes N1 and N2 where a random cross pair is
compatible with probability p: expected pair counts, mean counterparts
per person, the expected number of members with at least one match, and
binomial "at least k matches" tails in both an exact and a normal-
approximation form.
"""

import math
from collections import namedtuple

from .model import AgeProfile, _Value
from .special import (_check_nonneg, _check_open_prob, _check_prob, _clamp_unit,
                      _index, normal_cdf)

__all__ = [
    "Cohort", "NormalTail",
    "expected_pairs", "mean_counterparts", "expected_with_at_least_one",
    "at_least_k_exact", "at_least_k_normal", "normal_approx_valid",
]

_MAX_N = 10 ** 7         # term-recurrence accumulation bound
_REL_CUTOFF = 1e-18      # stop once terms no longer move the running sum


class Cohort(_Value):
    """An age profile together with its population count."""

    __slots__ = ("n", "profile")

    def __init__(self, n: int, profile: AgeProfile):
        _check_nonneg(n, "n")
        self._store((n, profile))


def expected_pairs(n1: int, n2: int, p: float) -> float:
    """Expected number of compatible cross pairs, N1*N2*p.

    Heavily overlapping pairs, so this counts pair combinations rather
    than distinct people; the product can exceed 2**53 for cohort sizes
    in the millions and is returned in floating point.
    """
    _check_nonneg(n1, "n1")
    _check_nonneg(n2, "n2")
    _check_prob(p, "p")
    return float(n1) * float(n2) * p


def mean_counterparts(n: int, p: float) -> float:
    """Mean number of compatible members of an n-person cohort, n*p."""
    _check_nonneg(n, "n")
    _check_prob(p, "p")
    return float(n) * p


def expected_with_at_least_one(n_self: int, n_other: int, p: float) -> float:
    """Expected members of the first cohort with >= 1 match in the other.

    n_self * (1 - (1-p)**n_other), evaluated via expm1/log1p so the
    power does not underflow and the result never exceeds n_self.
    """
    _check_nonneg(n_self, "n_self")
    _check_nonneg(n_other, "n_other")
    _check_prob(p, "p")
    if p == 1.0:
        return float(n_self) if n_other > 0 else 0.0
    return float(n_self) * -math.expm1(n_other * math.log1p(-p))


# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n); series for n >= 16,
# direct lgamma below that (its cancellation is harmless at small n).
_S0, _S1, _S2, _S3, _S4 = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)
_LOG_SQRT2PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(n):
    if n < 16:
        return (math.lgamma(n + 1.0)
                - (n + 0.5) * math.log(n) + n - _LOG_SQRT2PI)
    z = 1.0 / (n * n)
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 * z) * z) * z) * z) / n


def _bd0(x, m):
    # binomial deviance x*log(x/m) + m - x without cancellation (Loader)
    if abs(x - m) < 0.1 * (x + m):
        v = (x - m) / (x + m)
        s = (x - m) * v
        ej = 2.0 * x * v
        j = 1
        while True:
            ej *= v * v
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                return s1
            s = s1
            j += 1
    return x * math.log(x / m) + m - x


def _binom_pmf(m, n, p, q):
    # saddle-point form: relative error ~1e-13 for any n, no overflow
    if m == 0:
        return math.exp(n * math.log1p(-p))
    if m == n:
        return math.exp(n * math.log(p))
    lc = (_stirlerr(n) - _stirlerr(m) - _stirlerr(n - m)
          - _bd0(m, n * p) - _bd0(n - m, n * q))
    return math.exp(lc) * math.sqrt(n / (2.0 * math.pi * m * (n - m)))


def _tail_sum(term, m, n, ratio):
    # term + term_{m+1} + ... for term_{j+1} = term_j * (n-j)/(j+1) * ratio,
    # stopped once terms no longer move the running sum; clamped at 1
    terms = [term]
    total = term
    while m < n:
        term *= (n - m) / (m + 1) * ratio
        terms.append(term)
        total += term
        m += 1
        if term <= total * _REL_CUTOFF:
            break
    total = math.fsum(terms)
    return total if total < 1.0 else 1.0


def at_least_k_exact(k: int, n: int, p: float) -> float:
    """Exact binomial upper tail P(X >= k) for X ~ Binomial(n, p).

    The boundary term is anchored in log space via the saddle-point
    density (Loader 2000: stirlerr plus binomial deviance, which avoids
    the lgamma cancellation that would cap accuracy near n ~ 1e7) and
    neighbors are accumulated with the term ratio (n-m)/(m+1) * p/(1-p),
    so only the O(sqrt(n p (1-p))) significant terms near the boundary
    are visited and nothing overflows.  Whichever of the two tails is
    the smaller side is summed directly, keeping the relative error of
    the result around 1e-13; the lower tail P(X <= k-1) is summed as the
    upper tail P(n-X >= n-k+1) of n-X ~ Binomial(n, 1-p).

    ``k`` and ``n`` must be integers (Python or NumPy) with
    0 <= k <= n <= 10**7; anything else raises ``ValueError``.
    """
    k = _index(k, "k")
    n = _index(n, "n")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k!r}, n={n!r}")
    if n > _MAX_N:
        raise ValueError(f"n={n!r} exceeds the supported bound {_MAX_N}")
    _check_prob(p, "p")
    if k == 0:
        return 1.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0

    q = 1.0 - p
    if k > n * p:
        return _tail_sum(_binom_pmf(k, n, p, q), k, n, p / q)
    return 1.0 - _tail_sum(_binom_pmf(k - 1, n, p, q), n - k + 1, n, q / p)


NormalTail = namedtuple("NormalTail", "value valid")
NormalTail.__doc__ = """Normal-approximation tail value plus its validity verdict.

``valid`` is False when the sample size fails the applicability
condition n > 9*max(p/(1-p), (1-p)/p); the value is still computed
so the caller can see how far off it lands.
"""


def normal_approx_valid(n: int, p: float) -> bool:
    """Applicability condition n > 9 * max(p/(1-p), (1-p)/p), strictly."""
    _check_nonneg(n, "n")
    _check_open_prob(p, "p")
    return n > 9.0 * max(p / (1.0 - p), (1.0 - p) / p)


def at_least_k_normal(k: int, n: int, p: float) -> NormalTail:
    """Normal approximation of P(X >= k) with a finite lower limit.

    Approximates the binomial sum by a Gaussian integral from 0 to k,
    which yields the correction term Phi(-sqrt(n p/(1-p))) on top of
    the familiar 1 - Phi((k - n p)/sd).  That term is evaluated as
    Phi((n p - k)/sd), which keeps its relative accuracy for k far above
    the mean.  No continuity correction is applied; the exact path is
    authoritative where they disagree.
    """
    k = _index(k, "k")
    n = _index(n, "n")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k!r}, n={n!r}")
    _check_open_prob(p, "p")
    if n == 0:
        # then k = 0, where Phi(a) + Phi(-a) below is 1 for every n
        return NormalTail(1.0, False)
    mean = n * p
    sd = math.sqrt(n * p * (1.0 - p))
    value = normal_cdf((mean - k) / sd) + normal_cdf(-math.sqrt(mean / (1.0 - p)))
    return NormalTail(_clamp_unit(value), normal_approx_valid(n, p))
