"""Compatibility probabilities between two mental-age distributions.

The central quantity is the probability that two randomly drawn mental
ages lie within d years of each other.  Because the difference of two
Gaussians is Gaussian, it has the closed form

    p = Phi((mu1 - mu2 + d)/S) - Phi((mu1 - mu2 - d)/S),
    S = sqrt(sigma1**2 + sigma2**2),

and every other operation here is a specialization: a point mass for a
known mental age, normalization by the same-age probability, single
ranges, and a pure age-ratio form that exposes scale invariance.  Each
interval is evaluated by ``special._cdf_diff``, which keeps relative
accuracy far into the tails (``compat_prob`` repeats its two reachable
branches inline), and the ratio form has one kernel, ``_ratio_prob``,
which the rule audit in ``policy`` shares.
"""

import math
from collections import namedtuple

from .model import Gaussian, _Value
from .special import _INF, _SQRT2, _cdf_diff, _check_finite, _check_nonneg, _check_positive, _phi

__all__ = [
    "CompatQuery", "NormalizedProb",
    "compat_prob", "compat_prob_known", "compat_prob_normalized",
    "same_age_prob", "range_prob", "symmetric_range_prob",
    "prob_at_least", "prob_at_most", "compat_prob_ratio_form",
]

class CompatQuery(_Value):
    """Two mental-age densities plus an allowed difference.

    The difference may be given in absolute years (d) or as a multiple t
    of the smaller standard deviation; exactly one of the two must be
    supplied, finite and nonnegative, and the other is derived via
    d = t * min(sigma1, sigma2).  The derived value must be finite too: a
    t so large that d overflows, or a d so large next to min(sigma1,
    sigma2) that t does, is rejected.  A zero d or t, signed or not,
    stores +0.0 for both.
    """

    __slots__ = ("_g1", "_g2", "_d", "_t")

    def __init__(self, g1: Gaussian, g2: Gaussian, d: float | None = None,
                 t: float | None = None):
        # every pair-grid, certify and default query gives t alone, so that
        # branch settles a positive t whose d is finite with one test
        if d is None and t is not None:
            s1, s2 = g1._sigma, g2._sigma       # the slots: a property read costs more
            anchor = s1 if s1 <= s2 else s2     # min(s1, s2) without the call
            d = t * anchor
            if not (0.0 < t and d < _INF):
                _check_nonneg(t, "t")
                if d == _INF:
                    raise ValueError(f"t={t!r} is too large: d = t * min(sigma1, sigma2) "
                                     f"= {t!r} * {anchor!r} overflows, and d must be finite")
                t = d = 0.0                     # +0.0 for -0.0, which prints as -0
        elif d is None or t is not None:
            raise ValueError("give exactly one of d (years) or t (sigma multiple)")
        else:
            _check_nonneg(d, "d")
            s1, s2 = g1._sigma, g2._sigma
            anchor = s1 if s1 <= s2 else s2
            d = d or 0.0
            t = d / anchor
            if t == _INF:
                raise ValueError(f"d={d!r} is too large: t = d / min(sigma1, sigma2) "
                                 f"= {d!r} / {anchor!r} overflows, and t must be finite")
        self._g1 = g1
        self._g2 = g2
        self._d = d
        self._t = t

    @classmethod
    def from_profiles(cls, p1, p2, d=None, t=None) -> "CompatQuery":
        return cls(p1.gaussian, p2.gaussian, d=d, t=t)


# one global read per compat_prob call instead of a global and an attribute
_hypot, _erf, _erfc = math.hypot, math.erf, math.erfc

NormalizedProb = namedtuple("NormalizedProb", "value swapped denominator")
NormalizedProb.__doc__ = ("Pair probability over the younger cohort's same-age probability;"
                          " swapped is True if the inputs were reordered so mu2 <= mu1.")


def compat_prob(q: CompatQuery) -> float:
    """P(|X1 - X2| <= d) for the two densities in the query.

    Symmetric in the two persons, nondecreasing in d, and tends to 1 as
    d grows.  The gap enters via its absolute value, which makes the
    swap symmetry exact in floating point as well.  Where a bound
    overflows the float range, its limit is taken, so every query gets
    a value.
    """
    g1, g2, d = q._g1, q._g2, q._d          # the slots: a property read costs more
    gap = abs(g1._mu - g2._mu)
    scale = _hypot(g1._sigma, g2._sigma)
    # _cdf_diff inline: gap, d >= 0 give hi >= |lo|, so a finite hi passes its guard
    hi, lo = (gap + d) / scale, (gap - d) / scale
    if not hi < _INF:
        # gap + d, or its quotient, overflowed: take hi as gap/S + d/S, where
        # d/S <= t is finite, and halve every term if gap itself overflowed
        if gap == _INF:
            gap, d, scale = abs(0.5 * g1._mu - 0.5 * g2._mu), 0.5 * d, 0.5 * scale
            lo = (gap - d) / scale
        if lo == _INF:
            return 0.0
        hi = gap / scale + d / scale
        return _phi(-lo) if hi == _INF else _cdf_diff(hi, lo)
    if lo > 0.0:
        v = 0.5 * (_erfc(lo / _SQRT2) - _erfc(hi / _SQRT2))
    else:
        v = 0.5 * (_erf(hi / _SQRT2) - _erf(lo / _SQRT2))
    return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


def compat_prob_known(d: float, x1: float, g: Gaussian) -> float:
    """P(|x1 - X| <= d) when one mental age is known exactly.

    The known person's density degenerates to a point mass at x1, so
    only the other person's cdf is integrated.  Maximal over x1 at
    x1 = g.mu.
    """
    _check_nonneg(d, "d")
    _check_finite(x1, "x1")
    return _cdf_diff((x1 - g.mu + d) / g.sigma, (x1 - g.mu - d) / g.sigma)


def compat_prob_normalized(q: CompatQuery) -> NormalizedProb:
    """Compatibility probability relative to the younger cohort's own.

    The denominator is the same-age probability of the younger person,
    erf(d / (2 * sigma_younger)), which equals the numerator when both
    profiles coincide (value 1).  Inputs are reordered internally so the
    denominator always belongs to the younger profile; the returned
    record reports whether that swap happened.

    Raises:
        ValueError: d = 0, or d so small against the younger sigma that
            the denominator underflows to 0; the message names d.
    """
    if q.d == 0:
        raise ValueError("normalization is undefined at d = 0 (0/0)")
    swapped = q.g1.mu < q.g2.mu
    younger = q.g1 if swapped else q.g2
    two_sigma = 2.0 * younger.sigma
    # 2 sigma overflows above 2**1023, so there d / sigma is halved instead;
    # elsewhere that could round twice where d / (2 sigma) is subnormal
    denom = math.erf(q.d / two_sigma if two_sigma < math.inf else q.d / younger.sigma * 0.5)
    if denom == 0.0:
        raise ValueError(f"d={q.d!r} is too small to normalize by: the younger "
                         f"cohort's same-age probability underflows to 0")
    return NormalizedProb(compat_prob(q) / denom, swapped, denom)


def same_age_prob(t: float) -> float:
    """P(|X1 - X2| <= t*sigma) within one cohort: erf(t/2).

    Independent of both the age and sigma; only the multiple t matters.
    """
    _check_nonneg(t, "t")
    return math.erf(0.5 * t)


def range_prob(x_lo: float, x_hi: float, g: Gaussian) -> float:
    """P(x_lo <= X <= x_hi) for a single mental-age density."""
    _check_finite(x_lo, "x_lo")
    _check_finite(x_hi, "x_hi")
    if x_lo > x_hi:
        raise ValueError(f"empty range: x_lo={x_lo!r} > x_hi={x_hi!r}")
    return _cdf_diff((x_hi - g.mu) / g.sigma, (x_lo - g.mu) / g.sigma)


def symmetric_range_prob(d: float, g: Gaussian) -> float:
    """P(|X - mu| <= d) = erf(d / (sqrt(2)*sigma))."""
    _check_nonneg(d, "d")
    return math.erf(d / (_SQRT2 * g.sigma))


def prob_at_least(x0: float, g: Gaussian) -> float:
    """P(X >= x0); complements :func:`prob_at_most` exactly."""
    _check_finite(x0, "x0")
    return _phi((g.mu - x0) / g.sigma)


def prob_at_most(x0: float, g: Gaussian) -> float:
    """P(X <= x0)."""
    _check_finite(x0, "x0")
    return _phi((x0 - g.mu) / g.sigma)


def compat_prob_ratio_form(r: float, s1: float, s2: float, t: float) -> float:
    """Compatibility probability in terms of the age ratio r = mu1/mu2.

    With sigma_i = s_i * mu_i and d = t * sigma2 (the younger person's
    scale, mu2 <= mu1), the ages enter only through their ratio:

        p = Phi((r - 1 + s2*t)/D) - Phi((r - 1 - s2*t)/D),
        D = sqrt(s1**2 * r**2 + s2**2).

    Hence a 16/24 pair is exactly as compatible as a 24/36 pair under
    the same (s1, s2, t).
    """
    if not 1.0 <= r < math.inf:
        raise ValueError(
            f"age ratio r must be at least 1 (swap the ages) and finite, got {r!r}")
    _check_positive(s1, "s1")
    _check_positive(s2, "s2")
    _check_nonneg(t, "t")
    return _ratio_prob(r - 1.0, s1, s2, t)


def _ratio_prob(rho, s_old, s_young, t):
    # rho = gap / mu_young; d = t * s_young * mu_young, all in units of mu_young
    den = math.hypot(s_young, s_old * (1.0 + rho))
    return _cdf_diff((rho + t * s_young) / den, (rho - t * s_young) / den)

