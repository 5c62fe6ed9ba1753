"""Scalar special functions: error function and the standard normal kernel.

Everything downstream reduces to these three primitives (erf, the normal
cdf, and its inverse), and they need no third-party package: erf and
erfc are the C library's, called through ``math``, the normal cdf is
``erfc(-z/sqrt(2))/2``, and the quantile is Wichura's AS 241 with one
Newton step.  The test suite checks all three against a 40-digit
reference.  The one interval kernel built on them, ``_cdf_diff`` for
Phi(hi) - Phi(lo), also lives here and differences whichever tail keeps
the result relatively accurate (erf terms for an interval that contains
0).  ``compat.compat_prob`` repeats its two branches for hi >= 0 inline
and calls it only for a bound that is not finite; every other interval
calls it.  All functions are pure and safe for concurrent use.

Inputs are validated once, at the public boundary, and the whole
package states its domain rule through six checks defined here:
``_check_finite`` (any finite value), ``_check_positive`` (finite and
> 0: ages, dispersions, ratios), ``_check_nonneg`` (finite and >= 0:
allowed differences, gaps, error budgets, counts), ``_check_prob`` (in
[0, 1]: pair probabilities), ``_check_open_prob`` (strictly inside
(0, 1): quantile arguments and limit probabilities) and ``_index`` (a
Python or NumPy integer, returned as an int: binomial k and n,
Monte-Carlo sample counts and seeds).  Each raises ``ValueError`` with a
message that names the argument, so NaN and +-inf are rejected by name
everywhere.  The public functions ``erf``,
``erfc``, ``normal_pdf``, ``normal_cdf`` and ``normal_quantile`` reject
non-finite (and, for the quantile, out-of-range) arguments; no other
module imports any of the five.  The internal kernels ``_phi``, ``_pdf``
and ``_quantile`` check nothing; ``_phi`` and ``_pdf`` return their exact
limits at +-inf.
``_cdf_diff`` is the one internal kernel with a guard of its own: a
single chained comparison that rejects a non-finite or reversed
interval.  Its callers have already checked their arguments, so the
guard is a safety net: finite ages near the float limit can still
overflow to an infinite bound inside it.

Reference:
    M. J. Wichura, "Algorithm AS 241: The percentage points of the
    normal distribution", Appl. Statist. 37 (1988), 477-484.
"""

import math
import operator

__all__ = ["erf", "erfc", "normal_pdf", "normal_cdf", "normal_quantile"]

_INF = math.inf
_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def _clamp_unit(v: float) -> float:
    # guard against sub-ulp excursions of cdf differences
    return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


# raised by verify's quadrature; defined here so the CLI catches it without loading verify
class QuadratureError(RuntimeError):
    """Adaptive refinement failed to converge (oracle infrastructure)."""


def _check_finite(x, name):
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


def _check_positive(x, name):
    if not 0.0 < x < _INF:
        raise ValueError(f"{name} must be finite and positive, got {x!r}")


def _check_nonneg(x, name):
    if not 0.0 <= x < _INF:
        raise ValueError(f"{name} must be finite and nonnegative, got {x!r}")


def _check_prob(x, name):
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")


def _check_open_prob(x, name):
    if not 0.0 < x < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {x!r}")


def _index(value, name):
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _phi(z):
    # Phi(z) = erfc(-z/sqrt(2))/2, unchecked
    return 0.5 * math.erfc(-z / _SQRT2)


def _pdf(z):
    # standard normal density, unchecked
    return math.exp(-0.5 * z * z) / _SQRT2PI


def erf(x: float) -> float:
    """Error function, |absolute error| < 1e-15 over the real line.

    Odd and strictly increasing with |erf(x)| < 1 for finite x.
    """
    _check_finite(x, "x")
    return math.erf(x)


def erfc(x: float) -> float:
    """Complementary error function 1 - erf(x), accurate in the tail."""
    _check_finite(x, "x")
    return math.erfc(x)


def normal_pdf(z: float) -> float:
    """Standard normal density exp(-z**2/2) / sqrt(2*pi)."""
    _check_finite(z, "z")
    return _pdf(z)


def normal_cdf(z: float) -> float:
    """Standard normal cdf via erfc, relatively accurate in both tails."""
    _check_finite(z, "z")
    return _phi(z)


def _cdf_diff(hi: float, lo: float) -> float:
    # Phi(hi) - Phi(lo) for finite lo <= hi, clamped to [0, 1]; above the
    # median the upper tails are differenced, so far-tail intervals keep
    # their relative accuracy instead of cancelling against 1, and an
    # interval around 0 adds two erf terms of opposite sign instead of
    # differencing two values near 1/2.  The guard is the only check
    # between the public callers and the kernel.
    if not -_INF < lo <= hi < _INF:
        raise ValueError(
            f"interval needs finite bounds lo <= hi, got lo={lo!r}, hi={hi!r}")
    if lo > 0.0:
        v = 0.5 * (math.erfc(lo / _SQRT2) - math.erfc(hi / _SQRT2))
    elif hi >= 0.0:
        v = 0.5 * (math.erf(hi / _SQRT2) - math.erf(lo / _SQRT2))
    else:
        v = 0.5 * (math.erfc(-hi / _SQRT2) - math.erfc(-lo / _SQRT2))
    return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


def _quantile(p):
    # Phi^-1(p) for 0 < p < 1, unchecked: Wichura's AS 241 (PPND16)
    # rational starting value and one Newton step.  The start lies in
    # [-38.47, 8.21] for every such p, where _pdf is at least 1.9e-322, so
    # the step never divides by zero
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r +
                    6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r +
                  1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r +
                1.3314166789178437745e2) * r + 3.3871328727963666080e0) * q
        den = (((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r +
                    3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r +
                  5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r +
                4.2313330701600911252e1) * r + 1.0)
    else:
        r = p if q < 0 else 1.0 - p
        r = math.sqrt(-math.log(r))
        if r <= 5.0:
            r -= 1.6
            num = (((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) * r +
                        2.41780725177450611770e-1) * r + 1.27045825245236838258e0) * r +
                      3.64784832476320460504e0) * r + 5.76949722146069140550e0) * r +
                    4.63033784615654529590e0) * r + 1.42343711074968357734e0)
            den = (((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) * r +
                        1.51986665636164571966e-2) * r + 1.48103976427480074590e-1) * r +
                      6.89767334985100004550e-1) * r + 1.67638483018380384940e0) * r +
                    2.05319162663775882187e0) * r + 1.0)
        else:
            r -= 5.0
            num = (((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) * r +
                        1.24266094738807843860e-3) * r + 2.65321895265761230930e-2) * r +
                      2.96560571828504891230e-1) * r + 1.78482653991729133580e0) * r +
                    5.46378491116411436990e0) * r + 6.65790464350110377720e0)
            den = (((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) * r +
                        1.84631831751005468180e-5) * r + 7.86869131145613259100e-4) * r +
                      1.48753612908506148525e-2) * r + 1.36929880922735805310e-1) * r +
                    5.99832206555887937690e-1) * r + 1.0)
        if q < 0:
            num = -num
    x = num / den
    return x - (_phi(x) - p) / _pdf(x)


def normal_quantile(p: float) -> float:
    """Inverse of the standard normal cdf on 0 < p < 1.

    AS 241 starting value refined by one Newton step against
    :func:`normal_cdf`, giving round-trip error below 1e-15 for
    p in [1e-10, 1 - 1e-10].

    Raises:
        ValueError: for p outside the open interval (0, 1); the
            quantile is unbounded at the endpoints.
    """
    _check_open_prob(p, "p")
    return _quantile(p)
