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

import pytest

from agecompat.compat import (
    CompatQuery,
    compat_prob,
    compat_prob_known,
    compat_prob_ratio_form,
    range_prob,
)
from agecompat.expect import at_least_k_normal
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
