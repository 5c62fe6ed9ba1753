"""Population-level expectations built on a pair probability p.

Given two cohorts of sizes N1 and N2 where a random cross pair is
compatible with probability p: expected pair counts, mean counterparts
per person, the expected number of members with at least one match, and
binomial "at least k matches" tails in both an exact and a normal-
approximation form.
"""

import math
from collections import namedtuple

from .special import _check_nonneg, _check_open_prob, _check_prob, _clamp_unit, _index, _phi

__all__ = [
    "NormalTail",
    "expected_pairs", "mean_counterparts", "expected_with_at_least_one",
    "at_least_k_exact", "at_least_k_normal", "normal_approx_valid",
]

_REL_CUTOFF = 1e-18      # stop once terms no longer move the running sum


def expected_pairs(n1: int, n2: int, p: float) -> float:
    """Expected number of compatible cross pairs, N1*N2*p.

    Heavily overlapping pairs, so this counts pair combinations rather
    than distinct people; the product can exceed 2**53 for cohort sizes
    in the millions and is returned in floating point; one beyond the
    float range raises ValueError.
    """
    _check_nonneg(n1, "n1")
    _check_nonneg(n2, "n2")
    _check_prob(p, "p")
    pairs = float(n1) * float(n2) * p
    if not math.isfinite(pairs):
        raise ValueError(
            f"expected pair count is {pairs!r}, not finite: the inputs are too extreme")
    return pairs


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


def _deviance_series(x, d, s):
    # x*log(x/m) + m - x for d = x - m and s = x + m with |d| < 0.1*s, as
    # the series in v = d/s that cancels nothing (Loader)
    v = d / s
    total = d * v
    ej = 2.0 * x * v
    j = 1
    while True:
        ej *= v * v
        t = total + ej / (2 * j + 1)
        if t == total:
            return t
        total = t
        j += 1


def _bd0(x, m):
    # binomial deviance x*log(x/m) + m - x without cancellation (Loader);
    # the logarithm is split only where x / m overflows (m = n*p subnormal)
    if abs(x - m) < 0.1 * (x + m):
        return _deviance_series(x, x - m, x + m)
    ratio = x / m
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(x) - math.log(m)
    return x * log_ratio + m - x


def _log_binom_pmf(m, n, p, q):
    # log of the saddle-point density, which overflows nothing for n <= 1e154;
    # _bd0 takes n*p and n*q rounded, which costs up to 5.2e-14 * (1 + |ln P|)
    # relative in the tail P (the worst against 40-digit references on the
    # seeded 800-draw grids of tests/test_tail_accuracy.py, n from 1e3 to 1e7)
    if m == 0:
        return n * math.log1p(-p)
    if m == n:
        return n * math.log(p)
    lc = (_stirlerr(n) - _stirlerr(m) - _stirlerr(n - m)
          - _bd0(m, n * p) - _bd0(n - m, n * q))
    return lc + 0.5 * math.log(n / (2.0 * math.pi * m * (n - m)))


def _tail_sum(log_term, m, n, ratio):
    # exp(log_term) * (1 + r_m + r_m r_{m+1} + ...) for the term ratios
    # r_j = (n-j)/(j+1) * ratio, clamped at 1.  The ratios, positive and
    # decreasing, are summed into a running total from an anchor of 1.0 and
    # stopped once a term no longer moves it, so the stop test and the terms
    # stay normal floats even where the tail underflows, and only the final
    # exp rounds into the subnormals.
    # above = n - j and below = j + 1 are kept as floats.  Below 2**53 every
    # integer is exact in float64, so each quotient is the correctly rounded
    # one the integers give, without int arithmetic.  Above 2**53 a counter
    # can lag its integer by up to j after j steps, which moves the j-th
    # ratio by about j/(n - m) relative (j/m for below).  The sum stops
    # within about 1,300 steps (see at_least_k_exact), so that is under
    # 1.5e-13 per ratio, and the leading terms, which carry the sum, lag least
    term = total = 1.0
    above = float(n - m)
    below = float(m + 1)
    while above > 0.0:
        term *= above / below * ratio
        total += term
        above -= 1.0
        below += 1.0
        if term <= total * _REL_CUTOFF:
            break
    total = math.exp(log_term + math.log(total))
    return total if total < 1.0 else 1.0


# Temme's uniform expansion of I_x(a, b) (SIAM J. Math. Anal. 18, 1987) as
# DiDonato & Morris evaluate it in BASYM (ACM TOMS 18, 1992, Algorithm 708)
_E0 = 2.0 / math.sqrt(math.pi)
_E1 = 2.0 ** -1.5
_BASYM_EPS = 1e-15
_BASYM_ORDER = 20               # highest coefficient index; even
_BASYM_MIN_NPQ = 2000.0         # n*p*q above which the expansion costs less than the sum


def _lambda(k, n, p):
    # k - (n+1)*p correctly rounded: p is an exact ratio of integers, and
    # int / int true division rounds correctly
    num, den = p.as_integer_ratio()
    return (k * den - (n + 1) * num) / den


def _basym(a, b, lam):
    # I_x(a, b) for lam = a - (a + b)*x >= 0 and large a, b, following BASYM.
    # The exponent is bd0(a, a - lam) + bd0(b, b + lam) in terms of lam, and
    # BCORR is stirlerr(a) + stirlerr(b) - stirlerr(a + b).
    f = _deviance_series(a, lam, a + a - lam) + _deviance_series(b, -lam, b + b + lam)
    u = math.exp(-(_stirlerr(a) + _stirlerr(b) - _stirlerr(a + b)))
    t = u * math.exp(-f)
    z0 = math.sqrt(f)
    z2 = f + f
    z = math.sqrt(z2)
    if a < b:
        h = a / b
        r1 = (b - a) / b
        w0 = 1.0 / math.sqrt(a * (h + 1.0))
    else:
        h = b / a
        r1 = (b - a) / a
        w0 = 1.0 / math.sqrt(b * (h + 1.0))
    r0 = 1.0 / (h + 1.0)

    size = _BASYM_ORDER + 1
    a0, b0, c, d = [0.0] * size, [0.0] * size, [0.0] * size, [0.0] * size
    a0[0] = r1 * (2.0 / 3.0)
    c[0] = -0.5 * a0[0]
    d[0] = -c[0]
    # the recurrences carry exp(-f), so no exp(z0*z0) is ever formed; where
    # it underflows, the leading term still comes from erfc
    j0 = 0.5 / _E0 * u * math.erfc(z0)
    j1 = _E1 * t
    total = j0 + d[0] * w0 * j1

    s, h2, hn, w, znm1, zn = 1.0, h * h, 1.0, w0, t * z, t * z2
    for n in range(2, size, 2):
        hn *= h2
        a0[n - 1] = 2.0 * r0 * (h * hn + 1.0) / (n + 2.0)
        s += hn
        a0[n] = 2.0 * r1 * s / (n + 3.0)
        for i in (n, n + 1):
            # b0: the series of (1 + a0[0] x + a0[1] x**2 + ...)**r, by
            # J. C. P. Miller's power recurrence
            r = -0.5 * (i + 1.0)
            b0[0] = r * a0[0]
            for m in range(2, i + 1):
                bsum = 0.0
                for j in range(1, m):
                    bsum += (j * r - (m - j)) * a0[j - 1] * b0[m - j - 1]
                b0[m - 1] = r * a0[m - 1] + bsum / m
            c[i - 1] = b0[i - 1] / (i + 1.0)
            dsum = 0.0
            for j in range(1, i):
                dsum += d[i - j - 1] * c[j - 1]
            d[i - 1] = -(dsum + c[i - 1])

        j0 = _E1 * znm1 + (n - 1.0) * j0
        j1 = _E1 * zn + n * j1
        znm1 *= z2
        zn *= z2
        w *= w0
        t0 = d[n - 1] * w * j0
        w *= w0
        t1 = d[n] * w * j1
        total += t0 + t1
        if abs(t0) + abs(t1) <= _BASYM_EPS * total:
            break
    return _E0 * total


def _summed_tail(k, n, p):
    # P(X >= k) summed from the boundary term on the smaller side
    if k == 0:
        return 1.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    q = 1.0 - p
    if k > n * p:
        return _tail_sum(_log_binom_pmf(k, n, p, q), k, n, p / q)
    return 1.0 - _tail_sum(_log_binom_pmf(k - 1, n, p, q), n - k + 1, n, q / p)


def _tail_counts(k, n):
    # k and n of either binomial tail, as ints with 0 <= k <= n
    k = _index(k, "k")
    n = _index(n, "n")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k!r}, n={n!r}")
    return k, n


def at_least_k_exact(k: int, n: int, p: float) -> float:
    """Exact binomial upper tail P(X >= k) for X ~ Binomial(n, p).

    Two methods, chosen from the input:

    * Where n*p*(1-p) >= 2000 and |lam| <= 0.03 * min(k, n-k+1), with
      lam = k - (n+1)*p, P(X >= k) = I_p(k, n-k+1) is evaluated in
      constant time by Temme's uniform asymptotic expansion (Temme, SIAM
      J. Math. Anal. 18, 1987), as DiDonato & Morris implement it in
      BASYM (ACM TOMS 18, 1992, Algorithm 708).  That is BASYM's own
      domain in TOMS 708's BRATIO (the variance bound already makes
      min(k, n-k+1) > 100); the bound 2000 is where the expansion
      becomes cheaper than the sum.  lam is formed from p's exact
      integer ratio, so it carries no rounding of n*p or of 1 - p.
    * Everywhere else the boundary term is anchored in log space via the
      saddle-point density (Loader 2000: stirlerr plus binomial deviance,
      which avoids the lgamma cancellation that would cap accuracy near
      n ~ 1e7) and neighbors are accumulated with the term ratio
      (n-m)/(m+1) * p/(1-p), so only the O(sqrt(n p (1-p))) significant
      terms near the boundary are visited and nothing overflows.  The
      ratios are summed from 1.0 and the density's logarithm is added to
      the log of that sum, so the terms and the stop test stay normal
      floats even where P underflows, and only the final exp rounds.
      Whichever of the two tails is the smaller side is summed directly;
      the lower tail P(X <= k-1) is summed as the upper tail
      P(n-X >= n-k+1) of n-X ~ Binomial(n, 1-p).

    An absolute error in the exponent is the same relative error in P,
    so accuracy is stated per unit of 1 + |ln P|.  Against 40-digit
    references on seeded grids of 800 draws with n up to 10**7 and k up
    to 30 and to 45 sd from the mean (``tests/test_tail_accuracy.py``),
    the worst relative error is 3.7e-16 * (1 + |ln P|) on the
    expansion's side (1.1e-13 at P = 1.6e-157; 4.5e-15 within 6 sd of
    the mean) and 5.2e-14 * (1 + |ln P|) on the sum's (4.1e-12 at
    n = 7.7e6, where the sum's deviances take n*p and 1 - p rounded).
    Past that grid, on 2,500 seeded draws with n from 10**7 to 10**19
    (1,500 of them above 2**53), the worst is 5.7e-16 * (1 + |ln P|) on
    the expansion's side and 1.7e-14 * (1 + |ln P|) on the sum's, and no
    call of 20,000 took more than 1,263 steps of the sum.
    Below the least normal float, 2.2e-308, a result is also rounded to
    a multiple of 2**-1074; it exceeds the relative bound by at most
    0.49 of that unit on those grids, on the tests' near-underflow
    vectors and where n*p is subnormal: ``at_least_k_exact(1, 10, 1e-320)``
    is 9.99989e-320.

    ``k`` and ``n`` must be integers (Python or NumPy) with
    0 <= k <= n; anything else raises ``ValueError``.  The range measured
    is n <= 10**19.  Past n = 1e154 the density's 2*pi*m*(n - m) or the
    Stirling series' n*n can leave the float range, so such an n raises
    ``OverflowError``.
    """
    k, n = _tail_counts(k, n)
    _check_prob(p, "p")
    if n > 1e154:
        raise OverflowError(f"need n <= 1e154 to stay in the float range, "
                            f"got n of about 10**{math.log10(n):.2f}")
    if n * p * (1.0 - p) >= _BASYM_MIN_NPQ:
        lam = _lambda(k, n, p)
        if abs(lam) <= 0.03 * min(k, n - k + 1):
            if lam >= 0.0:
                return _basym(k, n - k + 1, lam)
            return 1.0 - _basym(n - k + 1, k, -lam)
    return _summed_tail(k, n, p)


NormalTail = namedtuple("NormalTail", "value valid")
NormalTail.__doc__ = """Normal-approximation tail value plus its validity verdict.

``valid`` is False when the sample size fails the applicability
condition n > 9*max(p/(1-p), (1-p)/p); the value is still computed
so the caller can see how far off it lands.
"""


def _approx_valid(n, p):
    return n > 9.0 * max(p / (1.0 - p), (1.0 - p) / p)


def normal_approx_valid(n: int, p: float) -> bool:
    """Applicability condition n > 9 * max(p/(1-p), (1-p)/p), strictly."""
    _check_nonneg(n, "n")
    _check_open_prob(p, "p")
    return _approx_valid(n, p)


def at_least_k_normal(k: int, n: int, p: float) -> NormalTail:
    """Normal approximation of P(X >= k) with a finite lower limit.

    Approximates the binomial sum by a Gaussian integral from 0 to k,
    which yields the correction term Phi(-sqrt(n p/(1-p))) on top of
    the familiar 1 - Phi((k - n p)/sd).  That term is evaluated as
    Phi((n p - k)/sd), which keeps its relative accuracy for k far above
    the mean.  No continuity correction is applied; the exact path is
    authoritative where they disagree.
    """
    k, n = _tail_counts(k, n)
    _check_open_prob(p, "p")
    if n == 0:
        # then k = 0, where Phi(a) + Phi(-a) below is 1 for every n
        return NormalTail(1.0, False)
    mean = n * p
    sd = math.sqrt(n * p * (1.0 - p))
    value = _phi((mean - k) / sd) + _phi(-math.sqrt(mean / (1.0 - p)))
    return NormalTail(_clamp_unit(value), _approx_valid(n, p))
