"""Relative-error contracts in the far tails, against 40-digit mpmath.

Every interval probability is a difference of two normal cdfs.  Far
from the median both cdfs sit near 1, so differencing them directly
cancels to a multiple of the float spacing near 1 (2.2e-16); these tests
pin relative, not absolute, accuracy on a far-gap grid where that
cancellation would show.

All five interval functions compute the same pair probability,
Phi((g + d)/S) - Phi((g - d)/S) with g = |a1 - a2|, d = t*s*min(a1, a2)
and S = s*hypot(a1, a2), each through its own closed form.  One 40-digit
reference per grid point, built from the exact grid inputs, serves all
five checks.  The functions see those inputs after float rounding (of
s*a, d, a ratio), which moves p by about z**2 * 1e-16 relative: a few
times 1e-15 on this grid, far inside the tolerance.
"""

import itertools
import math
import random
import sys

import pytest

from agecompat.compat import (
    CompatQuery,
    compat_prob,
    compat_prob_known,
    compat_prob_ratio_form,
    range_prob,
)
from agecompat.expect import (_BASYM_MIN_NPQ, _lambda, _summed_tail, at_least_k_exact,
                              at_least_k_normal)
from agecompat.model import Gaussian
from agecompat.policy import (
    DEFAULT_T,
    AgeLimitSpec,
    chrono_max_age,
    chrono_min_age,
    mental_limit_from_chrono,
    rule_probability,
    solve_m,
)
from agecompat.special import _cdf_diff

mpmath = pytest.importorskip("mpmath")

REL_TOL = 1e-12

# ages 15..90 against 14..20 reach gaps of 76 years, p down to ~1e-16
GRID = list(itertools.product(range(15, 91), range(14, 21),
                              (0.1, 0.15, 0.2), (1.0, DEFAULT_T, 1.981)))


def _mp_interval(hi, lo):
    # Phi(hi) - Phi(lo), differenced on the small side so that 40 digits
    # always leave far more than float64's 16 after cancellation
    if lo > 0:
        hi, lo = -lo, -hi
    return mpmath.ncdf(hi) - mpmath.ncdf(lo)


@pytest.fixture(scope="module")
def references():
    """The exact pair probability at every grid point, to 40 digits."""
    refs = {}
    with mpmath.workdps(40):
        for a1, a2, s, t in GRID:
            s_mp = mpmath.mpf(s)
            gap = abs(mpmath.mpf(a1) - a2)
            half = mpmath.mpf(t) * s_mp * min(a1, a2)
            scale = s_mp * mpmath.sqrt(mpmath.mpf(a1) ** 2 + mpmath.mpf(a2) ** 2)
            refs[a1, a2, s, t] = _mp_interval((gap + half) / scale, (gap - half) / scale)
    return refs


def _assert_rel_error(value_of, references):
    """Largest |value/reference - 1| over the grid is at most REL_TOL."""
    worst, worst_at = 0.0, None
    with mpmath.workdps(40):
        for point in GRID:
            reference = references[point]
            err = float(abs(mpmath.mpf(value_of(*point)) - reference) / reference)
            if err > worst:
                worst, worst_at = err, point
    assert worst <= REL_TOL, f"rel error {worst:.3g} at (a1, a2, s, t) = {worst_at}"


def _young_old(a1, a2):
    return (a1, a2) if a1 <= a2 else (a2, a1)


def _pair_law(a2, a1, s):
    # age a2 with the pair's combined sigma: P(|a1 - Y| <= d) for this Y
    # is the pair probability with person 1 held at its mean
    return Gaussian(a2, math.hypot(s * a1, s * a2))


class TestIntervalProbabilities:
    def test_compat_prob(self, references):
        def value(a1, a2, s, t):
            return compat_prob(CompatQuery(Gaussian(a1, s * a1), Gaussian(a2, s * a2), t=t))

        _assert_rel_error(value, references)

    def test_compat_prob_known(self, references):
        def value(a1, a2, s, t):
            return compat_prob_known(t * s * min(a1, a2), a1, _pair_law(a2, a1, s))

        _assert_rel_error(value, references)

    def test_range_prob(self, references):
        def value(a1, a2, s, t):
            d = t * s * min(a1, a2)
            return range_prob(a1 - d, a1 + d, _pair_law(a2, a1, s))

        _assert_rel_error(value, references)

    def test_compat_prob_ratio_form(self, references):
        def value(a1, a2, s, t):
            young, old = _young_old(a1, a2)
            return compat_prob_ratio_form(old / young, s, s, t)

        _assert_rel_error(value, references)

    def test_rule_probability(self, references):
        def value(a1, a2, s, t):
            young, old = _young_old(a1, a2)
            return rule_probability(young, old - young, s, s, t)

        _assert_rel_error(value, references)


@pytest.mark.parametrize("k, n, p", [(900, 1000, 0.5), (5000, 10000, 0.4),
                                     (60, 100, 0.3)])
def test_at_least_k_normal_far_tail(k, n, p):
    with mpmath.workdps(40):
        mean = mpmath.mpf(n) * p
        sd = mpmath.sqrt(mean * (1 - mpmath.mpf(p)))
        reference = (mpmath.ncdf((mean - k) / sd)
                     + mpmath.ncdf(-mpmath.sqrt(mean / (1 - mpmath.mpf(p)))))
        value = at_least_k_normal(k, n, p).value
        assert float(abs(mpmath.mpf(value) - reference) / reference) <= REL_TOL


def _mp_binomial_tail(k, n, p):
    # P(X >= k) for X ~ Binomial(n, p), p = num/scale exactly: the boundary
    # pmf at 50 digits (loggamma of 1e7 spends 9 of them, of 1e18 20) times
    # the sum of the term ratios on the smaller side, in 2**-200 fixed point
    # with the ratio (n-j)/(j+1) * num/(scale-num) exact; returned to 40
    # digits, of which 30 or more are right
    num, scale = p.as_integer_ratio()
    upper = k > n * p
    m = j = k if upper else k - 1
    one = 1 << 200
    term = total = one
    if upper:
        while j < n and term > total >> 170:
            term = term * (n - j) * num // ((j + 1) * (scale - num))
            total += term
            j += 1
    else:
        while j > 0 and term > total >> 170:
            term = term * j * (scale - num) // ((n - j + 1) * num)
            total += term
            j -= 1
    with mpmath.workdps(50):
        pmf = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(m + 1)
                         - mpmath.loggamma(n - m + 1)
                         + m * mpmath.log(mpmath.mpf(num) / scale)
                         + (n - m) * mpmath.log(mpmath.mpf(scale - num) / scale))
        side = pmf * total / one
        return +(side if upper else 1 - side)


# The exponent's absolute error becomes the tail's relative error, so each
# method's bound is per unit of 1 + |ln P|.  Worst measured on this grid:
# the sum 4.6e-14 (its deviances take n*p and 1 - p rounded), Temme's
# expansion 3.2e-16.  Below the least normal float a result is rounded to a
# multiple of 2**-1074, so there the error may exceed the relative bound by
# SUBNORMAL_ULPS of those units (0.49 at most, measured here).
SUM_REL_PER_LOG = 1e-13
EXPANSION_REL_PER_LOG = 1e-15
SUBNORMAL_ULPS = 2


def _tail_error(value, reference):
    """|value / reference - 1| per unit of 1 + |ln P|, less the subnormal slack."""
    with mpmath.workdps(40):
        err = abs(value - reference)
        if reference < sys.float_info.min:
            err = max(err - SUBNORMAL_ULPS * mpmath.mpf(2) ** -1074, 0)
        return float(err / reference / (1 + abs(mpmath.log(reference))))


def test_binomial_tail_relative_error():
    # n log-uniform in 1e3..1e7 and k up to 45 sd from the mean, so the grid
    # spans the switch to Temme's expansion at n*p*(1-p) = 2000, the edges
    # |lam| = 0.03 * min(k, n-k+1) of its domain, and tails that underflow
    rng = random.Random(1987)
    worst_sum, worst_expansion, worst_sum_inside = (0.0, None), (0.0, None), 0.0
    inside_count = underflow_count = 0
    for _ in range(800):
        n = round(10.0 ** rng.uniform(3.0, 7.0))
        p = rng.choice((rng.random(), 10.0 ** rng.uniform(-4.0, 0.0),
                        1.0 - 10.0 ** rng.uniform(-4.0, 0.0)))
        sd = math.sqrt(n * p * (1.0 - p))
        k = round(n * p + rng.uniform(-45.0, 45.0) * sd)
        if not 0 < k <= n:
            continue
        reference = _mp_binomial_tail(k, n, p)
        underflow_count += reference < sys.float_info.min
        value, summed = at_least_k_exact(k, n, p), _summed_tail(k, n, p)
        err_sum = _tail_error(summed, reference)
        worst_sum = max(worst_sum, (err_sum, (k, n, p)))
        if (n * p * (1.0 - p) >= _BASYM_MIN_NPQ
                and abs(_lambda(k, n, p)) <= 0.03 * min(k, n - k + 1)):
            inside_count += 1
            worst_expansion = max(worst_expansion, (_tail_error(value, reference), (k, n, p)))
            worst_sum_inside = max(worst_sum_inside, err_sum)
        else:
            assert value == summed, (k, n, p)
    assert inside_count > 100
    assert underflow_count > 30
    assert worst_sum[0] <= SUM_REL_PER_LOG, "sum: {:.3g} per log at (k, n, p) = {}".format(
        *worst_sum)
    assert worst_expansion[0] <= EXPANSION_REL_PER_LOG, (
        "expansion: {:.3g} per log at (k, n, p) = {}".format(*worst_expansion))
    assert worst_expansion[0] <= worst_sum_inside


def test_binomial_tail_relative_error_population_scale():
    # n log-uniform in 1e7..1e18, past 2**53 where _tail_sum's float counters
    # stop being exact, with p down to 1e-18 so that n*p stays small there
    # too.  Draws with n*p*(1-p) > 1e8 are skipped: the reference's exact
    # loop runs about 12 sd past k, 1e5 steps and more there (a 1e9 cap
    # doubled the test's time).  Inside the expansion's domain only the
    # expansion is checked: the sum does not answer there, and its rounded
    # n*p in _bd0 drifts to about 1e-11 relative near n = 1e10.
    rng = random.Random(2025)
    points = []
    while len(points) < 100:
        n = round(10.0 ** rng.uniform(7.0, 18.0))
        p = rng.choice((rng.random(), 10.0 ** rng.uniform(-4.0, 0.0),
                        1.0 - 10.0 ** rng.uniform(-4.0, 0.0), 10.0 ** rng.uniform(-18.0, 0.0)))
        npq = n * p * (1.0 - p)
        k = round(n * p + rng.uniform(-45.0, 45.0) * math.sqrt(npq))
        if npq <= 1e8 and 0 < k <= n:
            points.append((k, n, p))
    # just outside the expansion's domain (|lam| > 0.03 * k) at n*p = 1e5:
    # 880 or 1,064 steps of the sum, with counters past 2**53
    points += [(k, 10**e, 1e5 / 10**e) for e in (16, 17, 18) for k in (103_100, 104_000)]
    worst = {"sum": (0.0, ()), "expansion": (0.0, ())}
    above_2_53 = {"sum": 0, "expansion": 0}
    for k, n, p in points:
        value = at_least_k_exact(k, n, p)
        if (n * p * (1.0 - p) >= _BASYM_MIN_NPQ
                and abs(_lambda(k, n, p)) <= 0.03 * min(k, n - k + 1)):
            method = "expansion"
        else:
            method = "sum"
            assert value == _summed_tail(k, n, p), (k, n, p)
        err = _tail_error(value, _mp_binomial_tail(k, n, p))
        worst[method] = max(worst[method], (err, (k, n, p)))
        above_2_53[method] += n > 2**53
    assert above_2_53["sum"] >= 8 and above_2_53["expansion"] >= 1
    assert worst["sum"][0] <= SUM_REL_PER_LOG, "sum: {:.3g} per log at (k, n, p) = {}".format(
        *worst["sum"])
    assert worst["expansion"][0] <= EXPANSION_REL_PER_LOG, (
        "expansion: {:.3g} per log at (k, n, p) = {}".format(*worst["expansion"]))


@pytest.mark.parametrize("k, n, p", [
    (1_035_670, 10**7, 0.1), (1_036_429, 10**7, 0.1), (1_036_619, 10**7, 0.1),
    (526_465, 10**7, 0.05), (14_038, 10**7, 0.001), (474_362, 10**7, 0.05)])
def test_binomial_tail_near_underflow(k, n, p):
    # tails at and below the least normal float, and a mirrored lower tail
    # whose complement underflows; all are on the sum's side
    reference = _mp_binomial_tail(k, n, p)
    assert _tail_error(at_least_k_exact(k, n, p), reference) <= SUM_REL_PER_LOG


def test_cdf_diff_straddling_zero():
    # lo <= 0 <= hi: the two cdf values sit on either side of 1/2, so their
    # difference cancelled (relative error up to 0.1 over this sample)
    rng = random.Random(20211)
    worst, worst_at = 0.0, None
    with mpmath.workdps(40):
        for _ in range(4000):
            width = 10.0 ** rng.uniform(-15.0, 1.0)
            lo = -rng.random() * width
            hi = lo + width
            reference = (mpmath.erf(hi / mpmath.sqrt(2)) - mpmath.erf(lo / mpmath.sqrt(2))) / 2
            err = float(abs(mpmath.mpf(_cdf_diff(hi, lo)) - reference) / reference)
            if err > worst:
                worst, worst_at = err, (hi, lo)
    assert worst <= 1e-14, f"rel error {worst:.3g} at (hi, lo) = {worst_at}"


def _mp_ratio_prob(m, s1, s2, t):
    # the rule probability at slope m: young sigma s1, old s2 * (1 + m)
    m, s1, s2, t = (mpmath.mpf(x) for x in (m, s1, s2, t))
    den = mpmath.sqrt(s1 ** 2 + (s2 * (1 + m)) ** 2)
    return _mp_interval((m + t * s1) / den, (m - t * s1) / den)


# at t = 1.981 the root for p_min = 1e-11 lies past m = 64
@pytest.mark.parametrize("s1, s2, t", [(0.1, 0.1, 1.0), (0.1, 0.1, DEFAULT_T),
                                       (0.15, 0.15, DEFAULT_T), (0.2, 0.12, 1.5),
                                       (0.15, 0.15, 1.981)])
def test_solve_m_relative_residual(s1, s2, t):
    # solve_m stops at |p(m) - p_min| <= 4e-16 p_min in floats; what is
    # left is the closed form's own rounding, about 2e-14 at worst here.
    # An absolute stopping test gave 6.4% at 1e-9 and 136% at 1e-11.
    worst, worst_at = 0.0, None
    with mpmath.workdps(40):
        for p_min in (0.2, 0.1, 0.05, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-9, 1e-10, 1e-11):
            m = solve_m(p_min, s1, s2, t)
            err = float(abs(_mp_ratio_prob(m, s1, s2, t) - p_min) / p_min)
            if err > worst:
                worst, worst_at = err, p_min
    assert worst <= 1e-13, f"rel residual {worst:.3g} at p_min = {worst_at}"


def _mp_lower_quantile(p):
    # Phi^-1(p) for p <= 1/2 as the root of log Phi(z) = log p, by Newton
    # steps (log Phi is concave, so they converge from the asymptotic start);
    # unlike erfinv(1 - 2p), this needs no more digits as p shrinks
    p = mpmath.mpf(p)
    target = mpmath.log(p)
    z = -mpmath.sqrt(2 * mpmath.log(1 / p))
    for _ in range(50):
        cdf = mpmath.ncdf(z)
        step = (mpmath.log(cdf) - target) * cdf / mpmath.npdf(z)
        z -= step
        if abs(step) < mpmath.mpf(10) ** -30 * (1 + abs(z)):
            return z
    raise AssertionError(f"no reference quantile at p = {p}")


def test_limit_conversions_relative_error():
    # p_limit log-uniform in [1e-300, 0.5] puts each limit in a far tail: a
    # lower limit takes Phi^-1(1 - p_limit) = -Phi^-1(p_limit), where
    # 1 - p_limit rounds (to 1.0 below 2**-54), and an upper limit takes
    # Phi^-1(p_limit) itself.  The upper factor 1 + s * Phi^-1(p_limit) stays
    # above 0.5 for s <= 0.013, so no cancellation hides the quantile's error.
    rng = random.Random(300)
    worst, worst_at = 0.0, None
    with mpmath.workdps(40):
        for _ in range(200):
            p = 10.0 ** -rng.uniform(math.log10(2.0), 300.0)
            z = _mp_lower_quantile(p)
            for kind, s in (("min", rng.uniform(0.05, 0.5)), ("max", rng.uniform(0.001, 0.013))):
                factor = 1 + mpmath.mpf(s) * (-z if kind == "min" else z)
                mu, x = rng.uniform(10.0, 90.0), rng.uniform(10.0, 90.0)
                spec = AgeLimitSpec(kind, x, p, s)
                solver = chrono_min_age if kind == "min" else chrono_max_age
                for name, value, reference in (
                        ("mental_limit_from_chrono", mental_limit_from_chrono(mu, s, p, kind),
                         mu * factor),
                        (solver.__name__, solver(spec), x / factor)):
                    err = float(abs(mpmath.mpf(value) - reference) / reference)
                    if err > worst:
                        worst, worst_at = err, (name, kind, p, s)
    assert worst <= 2e-15, f"rel error {worst:.3g} at (function, kind, p_limit, s) = {worst_at}"
