"""Relative-error contracts in the far tails, against 40-digit mpmath.

Every interval probability is a difference of two normal cdfs.  Far
from the median both cdfs sit near 1, so differencing them directly
cancels to a multiple of the float spacing near 1 (2.2e-16); these tests
pin relative, not absolute, accuracy on a far-gap grid where that
cancellation would show.  The references evaluate the same closed forms
from the same float inputs in 40-digit arithmetic.
"""

import itertools
import math

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
from agecompat.policy import DEFAULT_T, rule_probability

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


def _worst_rel_error(value_and_reference):
    """Largest |value/reference - 1| over the grid, with its grid point."""
    worst, worst_at = 0.0, None
    with mpmath.workdps(40):
        for point in GRID:
            value, reference = value_and_reference(*point)
            err = float(abs(mpmath.mpf(value) - reference) / reference)
            if err > worst:
                worst, worst_at = err, point
    return worst, worst_at


def _young_old(a1, a2):
    return (a1, a2) if a1 <= a2 else (a2, a1)


def _pair_law(a2, a1, s):
    # age a2 with the pair's combined sigma: P(|a1 - Y| <= d) for this Y
    # is the pair probability with person 1 held at its mean
    return Gaussian(a2, math.hypot(s * a1, s * a2))


class TestIntervalProbabilities:
    def test_compat_prob(self):
        def case(a1, a2, s, t):
            q = CompatQuery(Gaussian(a1, s * a1), Gaussian(a2, s * a2), t=t)
            gap = abs(mpmath.mpf(q.g1.mu) - q.g2.mu)
            scale = mpmath.sqrt(mpmath.mpf(q.g1.sigma) ** 2 + mpmath.mpf(q.g2.sigma) ** 2)
            return compat_prob(q), _mp_interval((gap + q.d) / scale,
                                                (gap - q.d) / scale)

        worst, at = _worst_rel_error(case)
        assert worst <= REL_TOL, f"rel error {worst:.3g} at (a1, a2, s, t) = {at}"

    def test_compat_prob_known(self):
        def case(a1, a2, s, t):
            g = _pair_law(a2, a1, s)
            d = t * s * min(a1, a2)
            off = mpmath.mpf(a1) - g.mu
            sigma = mpmath.mpf(g.sigma)
            return compat_prob_known(d, a1, g), _mp_interval((off + d) / sigma,
                                                             (off - d) / sigma)

        worst, at = _worst_rel_error(case)
        assert worst <= REL_TOL, f"rel error {worst:.3g} at (a1, a2, s, t) = {at}"

    def test_range_prob(self):
        def case(a1, a2, s, t):
            g = _pair_law(a2, a1, s)
            d = t * s * min(a1, a2)
            x_lo, x_hi = a1 - d, a1 + d
            mu, sigma = mpmath.mpf(g.mu), mpmath.mpf(g.sigma)
            return range_prob(x_lo, x_hi, g), _mp_interval((x_hi - mu) / sigma,
                                                           (x_lo - mu) / sigma)

        worst, at = _worst_rel_error(case)
        assert worst <= REL_TOL, f"rel error {worst:.3g} at (a1, a2, s, t) = {at}"

    def test_compat_prob_ratio_form(self):
        def case(a1, a2, s, t):
            young, old = _young_old(a1, a2)
            r = old / young
            den = mpmath.sqrt((mpmath.mpf(s) * r) ** 2 + mpmath.mpf(s) ** 2)
            gap, half = mpmath.mpf(r) - 1, mpmath.mpf(s) * t
            return compat_prob_ratio_form(r, s, s, t), _mp_interval((gap + half) / den,
                                                                     (gap - half) / den)

        worst, at = _worst_rel_error(case)
        assert worst <= REL_TOL, f"rel error {worst:.3g} at (a1, a2, s, t) = {at}"

    def test_rule_probability(self):
        def case(a1, a2, s, t):
            young, old = _young_old(a1, a2)
            rho = mpmath.mpf(old - young) / young
            den = mpmath.sqrt(mpmath.mpf(s) ** 2 + (mpmath.mpf(s) * (1 + rho)) ** 2)
            half = mpmath.mpf(s) * t
            return (rule_probability(young, old - young, s, s, t),
                    _mp_interval((rho + half) / den, (rho - half) / den))

        worst, at = _worst_rel_error(case)
        assert worst <= REL_TOL, f"rel error {worst:.3g} at (a1, a2, s, t) = {at}"


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
