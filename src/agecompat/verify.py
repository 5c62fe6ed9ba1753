"""Certification machinery and independent oracles.

Three groups live here:

* Truncation bound: mental ages are physically nonnegative, but the
  closed forms integrate over the whole real line.  The per-slice bound
  certifies that the x < 0 sector contributes less than
  Phi(-mu12/sigma12), with a looser closed-form chain on top.

* First-order error propagation of the pair probability in (d, sigma1,
  sigma2), the ratio of the two error channels, and its printed bounds.

* Oracles: an adaptive Gauss-Kronrod quadrature of the defining double
  integral (inner integral reduced analytically to a cdf difference, so
  the convolution identity under test is never used) and a seeded
  Monte-Carlo sampler.  Both exist to check the closed forms and never
  call them.  The quadrature's outer variable is the narrower density's,
  in its own standard units, so eight fixed panels meet the tolerance,
  and a budget of 10,000 panels bounds the work of every call.

The quadrature rule is QUADPACK's published G10/K21 table, held here as
one table of 11 rows (node, Kronrod weight, Gauss weight) for the
nonnegative nodes.  Importing this module mirrors it onto [-1, 1] and
lays it once onto the quadrature oracle's eight seed panels, 168 rows of
node and weights, and needs no third-party code; only the Monte-Carlo
sampler needs numpy, which it imports when it samples.
"""

import math
from collections import namedtuple

from .compat import CompatQuery
from .model import _Value
from .special import (_SQRT2, _SQRT2PI, QuadratureError, _check_finite, _check_nonneg,
                      _check_positive, _clamp_unit, _index, _pdf, _phi)

__all__ = [
    "SliceParams", "ErrorBudget", "TruncationBound", "McEstimate",
    "QuadratureError", "slice_params", "truncation_bound",
    "error_propagation", "error_ratio", "error_ratio_bounds",
    "quad_oracle", "mc_oracle",
]

# quad_oracle's work bound: the most panels one call evaluates, 42 erfc
# calls each.  The test suite's largest converging call takes 12
_MAX_PANELS = 10_000
_MC_CHUNK = 1 << 19
_MC_MIN_SAMPLES = 10 ** 4
# mc_oracle's screen margin rests on these: twice the worst |cos32 - cos| and
# |sin32 - sin| at float32(x), x = theta + phi in [0, 2 pi + pi/2), and more
# than twice the screen's float32 rounding, 3.5 * 2**-24 of its scale in units of R
_TRIG32_ERR = 1e-6
_F32_ERR = 7.2e-7
# quad_oracle calls erfc twice per node, 336 times per query
_exp = math.exp
_erfc = math.erfc
# quad_oracle's seed cuts on [-10, 10], in the outer density's standard units,
# and the factor 1/(2 sqrt(2 pi)) of its integral
_Z_CUTS = (-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0)
_Z_FACTOR = 0.5 / _SQRT2PI

# QUADPACK's qk21 rule on [-1, 1] (Piessens et al., QUADPACK, Springer 1983):
# the 21-point Kronrod rule and the 10-point Gauss-Legendre rule whose nodes
# it keeps, adding eleven that interleave with them, the center among them.
# Both are symmetric, so the table holds the rows (x, w_K21, w_G10) for
# x >= 0: the center, the G10 nodes descending, then the Kronrod-only nodes
# descending, whose G10 weight is 0
_QK21 = (
    (0.0, 0.149445554002916905664936468389821, 0.0),
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390,
     0.066671344308688137593568809893332),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190,
     0.149451349150580593145776339657697),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805,
     0.219086362515982043995534934228163),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707,
     0.269266719309996355091226921569469),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068,
     0.295524224714752870173892994651338),
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192, 0.0),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580, 0.0),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366, 0.0),
    (0.562757134668604683339000099272694, 0.123491976262065851077958109831074, 0.0),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717, 0.0),
)
# the same rule as 21 rows on [-1, 1]: the center, then each other node's mirror pair
_UNIT_ROWS = tuple((y, wk, wg) for x, wk, wg in _QK21 for y in ((-x, x) if x else (x,)))


def _gauss_rows(a, b):
    """The G10/K21 rule on [a, b] with exp(-z*z/2) folded in: 21 rows
    (z, h w_K21 e, h w_G10 e), z = c + h x and e = exp(-z*z/2), where c and
    h are the midpoint and half-width of [a, b].
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    rows = []
    for x, wk, wg in _UNIT_ROWS:
        z = c + h * x
        e = _exp(-0.5 * z * z)
        rows.append((z, h * wk * e, h * wg * e))
    return tuple(rows)


# quad_oracle's seed panels on [-10, 10], cut at _Z_CUTS: (a, b, rows)
_SEED_PANELS = tuple((a, b, _gauss_rows(a, b))
                     for a, b in zip((-10.0, *_Z_CUTS), (*_Z_CUTS, 10.0)))


SliceParams = namedtuple("SliceParams", "mu12 sigma12")
SliceParams.__doc__ = """Gaussian profile of one diagonal slice x2 = x1 + delta.

The product density restricted to the slice is Gaussian in x1 with
mean mu12 and width sigma12 <= min(sigma1, sigma2).
"""


class ErrorBudget(_Value):
    """Absolute uncertainties of d, sigma1, sigma2 (years each)."""

    __slots__ = ("_d_err", "_sigma1_err", "_sigma2_err")

    def __init__(self, d_err: float, sigma1_err: float, sigma2_err: float):
        _check_nonneg(d_err, "d_err")
        _check_nonneg(sigma1_err, "sigma1_err")
        _check_nonneg(sigma2_err, "sigma2_err")
        self._d_err = d_err
        self._sigma1_err = sigma1_err
        self._sigma2_err = sigma2_err


TruncationBound = namedtuple("TruncationBound", "worst_slice loose")
TruncationBound.__doc__ = "Per-slice certificate and its looser closed-form majorant."


def _z(gap, delta, unit):
    """(gap + delta)/unit, taken as gap/unit + delta/unit where gap + delta
    overflows, as compat_prob takes its upper bound."""
    total = gap + delta
    return total / unit if abs(total) < math.inf else gap / unit + delta / unit


def _slice(g1, g2, delta):
    """z, w1 and sigma12 of slice_params, raising where the gap or z overflows."""
    _check_finite(delta, "delta")
    unit = math.hypot(g1.sigma, g2.sigma)
    gap = g1.mu - g2.mu
    if abs(gap) == math.inf:
        raise ValueError(f"slice_params cannot place the slice x2 = x1 + {delta!r} of {g1!r} "
                         f"and {g2!r}: the gap mu1 - mu2 = {gap!r} overflows")
    z = _z(gap, delta, unit)
    if abs(z) == math.inf:
        raise ValueError(f"slice_params cannot place the slice x2 = x1 + {delta!r} of {g1!r} "
                         f"and {g2!r}: z = (mu1 - mu2 + delta)/R = {z!r} overflows, "
                         f"with R = hypot(sigma1, sigma2) = {unit!r}")
    return z, g1.sigma / unit, max(g1.sigma, g2.sigma) / unit * min(g1.sigma, g2.sigma)


def slice_params(g1, g2, delta: float) -> SliceParams:
    """Slice mean/width for x2 = x1 + delta.

    mu12 = mu1 - z w1 sigma1 and sigma12 = (max sigma / R) min sigma, at
    least min sigma / sqrt(2), in units of R = hypot(sigma1, sigma2), with
    z = (mu1 - mu2 + delta)/R (z+ at delta = d) and w1 = sigma1/R.  Where
    mu1 - mu2 + delta overflows, z is taken as (mu1 - mu2)/R + delta/R; a
    gap mu1 - mu2, a z or a mu12 that overflows raises ValueError describing
    the arguments.
    """
    z, w1, sigma12 = _slice(g1, g2, delta)
    mu12 = g1.mu - z * w1 * g1.sigma
    if abs(mu12) == math.inf:
        raise ValueError(f"slice_params cannot place the slice x2 = x1 + {delta!r} of {g1!r} "
                         f"and {g2!r}: mu12 = mu1 - z w1 sigma1 = {mu12!r} overflows, "
                         f"with z = {z!r} and w1 = sigma1/R = {w1!r}")
    return SliceParams(mu12=mu12, sigma12=sigma12)


def truncation_bound(q: CompatQuery) -> TruncationBound:
    """Bound on the x < 0 sector's share of any slice of the integral.

    The slice ratio Phi(-mu12/sigma12) is maximal at delta = d (mu12
    decreases in delta), giving the worst-slice certificate.  The loose
    companion Phi(-(mu - d)/sigma), evaluated for the younger person,
    majorizes it when the age-to-dispersion ratios agree, and is the
    quantity quoted against the 4-sigma yardstick.  Where mu12 leaves the
    float range, the ratio is formed from mu12/4, which cannot, since
    |z sigma1| <= |mu1 - mu2| + d.
    """
    z, w1, sigma12 = _slice(q.g1, q.g2, q.d)
    mu12 = q.g1.mu - z * w1 * q.g1.sigma
    if abs(mu12) == math.inf:
        ratio = (q.g1.mu / 4 - z * w1 * (q.g1.sigma / 4)) / sigma12 * 4
    else:
        ratio = mu12 / sigma12
    worst = _phi(-ratio)
    younger = q.g1 if q.g1.mu <= q.g2.mu else q.g2
    loose = _phi(-(younger.mu - q.d) / younger.sigma)
    return TruncationBound(worst_slice=worst, loose=loose)


def error_propagation(q: CompatQuery, budget: ErrorBudget) -> float:
    """First-order uncertainty of the pair probability.

    In units of R = hypot(s1, s2), with z+- = (g +- d)/R, g = mu1 - mu2
    and the weights wi = si/R,

        dp = (dd [pdf(z+) + pdf(z-)] + (w1 ds1 + w2 ds2) |z+ pdf(z+) - z- pdf(z-)|) / R.

    This is exactly |dp/dd| dd + |dp/ds1| ds1 + |dp/ds2| ds2 of the
    closed form; one beyond the float range raises ValueError.  Where g +- d
    overflows, z+- is taken as g/R +- d/R, and where the gap g itself
    overflows, z+- are infinite and dp is its limit 0, as p is.
    """
    unit = math.hypot(q.g1.sigma, q.g2.sigma)
    w1, w2 = q.g1.sigma / unit, q.g2.sigma / unit
    g = q.g1.mu - q.g2.mu
    zp, zm = _z(g, q.d, unit), _z(g, -q.d, unit)
    ep, em = _pdf(zp), _pdf(zm)
    # z pdf(z) is taken as its limit 0 where pdf(z) is 0, since an overflowed
    # z = +-inf would give inf * 0.0 = nan; for a finite z, z * 0.0 is 0 anyway
    zep = zp * ep if ep else 0.0
    zem = zm * em if em else 0.0
    dp = (budget.d_err * (ep + em)
          + (w1 * budget.sigma1_err + w2 * budget.sigma2_err) * abs(zep - zem)) / unit
    if not math.isfinite(dp):
        raise ValueError(f"uncertainty of p is {dp!r}, not finite: the inputs are too extreme")
    return dp


def error_ratio(q: CompatQuery, budget: ErrorBudget) -> float:
    """The paper's ratio of sigma-channel to d-channel error.

        |a tanh(2 a b) + b| (w1 ds1 + w2 ds2) / dd

    with a = g/R, b = d/R and wi = si/R in units of R = hypot(s1, s2).  At
    equal means the tanh term vanishes and the expression coincides with
    the quotient of the two :func:`error_propagation` channels.  Away from
    equal means it does not: that quotient is
    |b - a tanh(a b)| (w1 ds1 + w2 ds2) / dd.  Where the gap g overflows,
    a is infinite and, for d > 0, the ratio is inf, which is its limit.
    Where b is 0, a tanh(2 a b) is taken as its limit 0, so such a gap
    with d = 0 gives 0.0, not inf * tanh(0) = nan.
    """
    _check_positive(budget.d_err, "d_err")
    unit = math.hypot(q.g1.sigma, q.g2.sigma)
    w1, w2 = q.g1.sigma / unit, q.g2.sigma / unit
    a, b = (q.g1.mu - q.g2.mu) / unit, q.d / unit
    a_tanh = a * math.tanh(2.0 * a * b) if b else 0.0
    return abs(a_tanh + b) * (w1 * budget.sigma1_err + w2 * budget.sigma2_err) / budget.d_err


def error_ratio_bounds(a: float, b: float, c: float) -> tuple[float, float]:
    """Bracket ((a+b)/(1+c), 2(a+b)) for the error ratio.

    Applies under d = a*sigma1, mu1-mu2 = b*sigma1, sigma1 = c*sigma2
    with finite a, b, c > 1 and roughly equal budget entries.  An upper
    bound past the float range raises ValueError naming a and b.
    """
    for name, x in (("a", a), ("b", b), ("c", c)):
        if not 1.0 < x < math.inf:
            raise ValueError(f"{name} must be finite and greater than 1, got {x!r}")
    hi = 2.0 * (a + b)
    if hi == math.inf:
        raise ValueError(f"a={a!r} and b={b!r} are too large: "
                         f"the upper bound 2*(a + b) overflows")
    return ((a + b) / (1.0 + c), hi)


def _bisect(work, window, tol):
    """quad_oracle's loop over ``work``, the (lo, hi, rows) panels of [a, b] in order.

    A panel's K21 and G10 estimates are ``_erfc_sums(rows, window)``, and
    each half of a panel that is bisected gets its rows from _gauss_rows.
    Panels are evaluated, and their estimates summed, from left to right.
    """
    a, b = work[0][0], work[-1][1]
    width = b - a
    total = 0.0
    stack = list(reversed(work))
    for _ in range(_MAX_PANELS):
        lo, hi, rows = stack.pop()
        kronrod, gauss = _erfc_sums(rows, window)
        if abs(kronrod - gauss) <= tol * (hi - lo) / width:
            total += kronrod
            if not stack:
                return total
            continue
        mid = 0.5 * (lo + hi)
        stack.append((mid, hi, _gauss_rows(mid, hi)))
        stack.append((lo, mid, _gauss_rows(lo, mid)))
    raise QuadratureError(f"no convergence on [{a!r}, {b!r}] within {_MAX_PANELS} panels")


def _erfc_sums(rows, window):
    """K21 and G10 estimates of quad_oracle's inner factor at ``window`` = (lo, hi, b)."""
    lo, hi, b = window
    erfc = _erfc
    kronrod = gauss = 0.0
    for z, wk, wg in rows:
        bz = b * z
        if hi < bz:
            v = erfc(bz - hi) - erfc(bz - lo)
        else:
            v = erfc(lo - bz) - erfc(hi - bz)
        kronrod += wk * v
        gauss += wg * v
    return kronrod, gauss


def quad_oracle(q: CompatQuery, tol: float = 1e-11) -> float:
    """Pair probability by direct numerical integration.

    Integrates the defining double integral with the outer variable taken
    from the narrower density (g1 on a tie), in its standard units z on
    [-10, 10], and the other density's exact cdf difference inside:

        p = 1/(2 sqrt(2 pi)) * integral of exp(-z*z/2) (erfc(lo - b z) - erfc(hi - b z)),

    with lo, hi = (mu_in - mu_out -+ d)/(sqrt(2) sigma_in) and
    b = sigma_out/(sqrt(2) sigma_in) <= 1/sqrt(2).  Where hi < b z the
    difference is taken as erfc(b z - hi) - erfc(b z - lo), the same value
    from two upper tails, so it keeps its relative accuracy where the
    window lies below the node.  The inner factor is at most 1, so the
    omitted outer mass is at most 2 Phi(-10), about 1.5e-23; each edge of
    the inner factor is at least sqrt(2) wide in z, so the seven fixed
    cuts at 0, +-2, +-4 and +-8 leave no feature narrower than a panel,
    and the eight seed panels meet tol on every query measured.

    The seed panels, with their nodes and Gaussian factors, are the table
    _SEED_PANELS, built at import; the adaptive loop, _bisect, starts from
    them, within one budget of 10,000 panels for the call.  Swapping g1
    and g2 gives the same float wherever sigma1 != sigma2.  Independent of
    the closed form it is used to check, and never calls it.  ``tol`` is
    the absolute error of p; it is scaled by 2 sqrt(2 pi) onto the
    integral, one above 1 is taken as 1, and one that is not finite and
    positive raises ValueError.

    Raises:
        ValueError: lo or hi overflows (finite ages near the float limit,
            or a sigma tiny next to the gap); the message describes the
            query.
        QuadratureError: the panel budget ran out before convergence.
    """
    _check_positive(tol, "tol")
    if tol > 1.0:
        tol = 1.0       # bounds nothing more on p, and tol / _Z_FACTOR stays finite
    g_out, g_in = (q.g2, q.g1) if q.g2.sigma < q.g1.sigma else (q.g1, q.g2)
    gap, d = g_in.mu - g_out.mu, q.d
    scale = _SQRT2 * g_in.sigma
    lo = (gap - d) / scale
    hi = (gap + d) / scale
    if not (-math.inf < lo and hi < math.inf):
        raise ValueError(
            f"quad_oracle cannot integrate {q!r}: the inner density's window, "
            f"(mu_in - mu_out -+ d)/(sqrt(2) sigma_in), is [{lo!r}, {hi!r}], which overflows")
    total = _bisect(_SEED_PANELS, (lo, hi, g_out.sigma / scale), tol / _Z_FACTOR)
    return _clamp_unit(_Z_FACTOR * total)


McEstimate = namedtuple("McEstimate", "estimate stderr")
McEstimate.__doc__ = "Monte-Carlo estimate with its binomial standard error."


def _screen_margin(mu1, s1, mu2, s2, d):
    """gamma, delta and the margin of mc_oracle's float32 screen, in units of R.

    The margin is inf where the screen cannot run, and mc_oracle decides
    the query without sampling; see :func:`mc_oracle` for the bound.
    """
    unit = math.hypot(s1, s2)
    gamma = (mu1 - mu2) / unit
    delta = d / unit
    scale = 8.6 + abs(gamma) + delta
    margin = 8.6 * _TRIG32_ERR + _F32_ERR * scale + 2.0 ** -50 * scale
    return gamma, delta, (margin if scale + margin < 2.0 ** 127 else math.inf)


def _screen(log_v, angle, gamma, f32):
    """|r * cos(angle) + gamma| and |r * sin(angle) + gamma| in float32.

    ``log_v`` = ln v and ``angle`` = theta + phi are float64 arrays of
    size n, and ``f32`` a (4, n) float32 array, clobbered: rows r, the
    angle, and the two products, which are returned as its last two rows.
    r is sqrt(float32(-2 ln v)), a float64 product rounded into float32 and
    so exactly -2 float32(ln v), as doubling commutes with rounding for ln v
    = 0 or 2**-53 <= |ln v| <= 36.8; it is within 1.5 * 2**-24 of the float64
    r relative.  The angle is rounded to float32 once; every later step is float32.
    """
    import numpy as np
    r, ang, cos, sin = f32
    np.multiply(log_v, -2.0, out=r)
    np.sqrt(r, out=r)
    ang[...] = angle
    np.cos(ang, out=cos)
    np.sin(ang, out=sin)
    out = f32[2:]
    out *= r
    out += np.float32(gamma)
    return np.abs(out, out=out)


def mc_oracle(q: CompatQuery, samples: int, seed: int) -> McEstimate:
    """Estimate the pair probability by seeded sampling.

    Draws pairs of mental ages via a Box-Muller transform of uniforms
    from a PCG64 stream, using both variates of each draw.  The samples
    come in chunks of m <= 2**19, whose substreams derive from (seed,
    chunk index), making the result independent of evaluation order.
    A chunk fills a (2, n) array, n = ceil(m/2), in one call: in C order,
    n uniforms u1 and then n uniforms u2, so the stream position is a
    fixed function of the sample count and identical seeds give identical output.

    The transform is taken in units of R = hypot(sigma1, sigma2), with
    phi = atan2(sigma2, sigma1), gamma = (mu1 - mu2)/R and delta = d/R.
    For r = sqrt(-2 ln v), v = 1 - u1, and theta = 2 pi u2, draw j of a
    chunk gives two samples of the pair's difference,

        (x1 - x2) / R = r * cos(theta + phi) + gamma    (sample j),
        (x1 - x2) / R = r * sin(theta + phi) + gamma    (sample n + j),

    the second only for j < m - n.  The sin sample is the cos sample's
    person pair (z2, -z1) of the same draw, (z1, z2) = r (cos theta,
    sin theta), so the two are independent and the standard error is
    binomial.  A sample is a hit where its value, in float64, is at most
    delta in absolute value.  Each chunk first screens its samples in
    float32: r as sqrt(float32(-2 ln v)) from the float64 logarithm, c
    as the float32 cos or sin of float32(theta + phi), and |r * c +
    gamma| in float32, compared with delta.  With the scale S = 8.6 +
    |gamma| + delta it is within a margin

        8.6e-6 + 7.2e-7 * S + 2**-50 * S

    of the float64 transform's value.  The first term covers the trig:
    r < 8.58 for every v >= 2**-53, rounding theta + phi to float32
    moves it by at most 2**-22 and float32 cos and sin are within a few
    ulp (6e-8), so c is within 5e-7, half of 1e-6, of the float64 cosine
    or sine.  The second covers the float32 roundings: r is within
    1.5 * 2**-24 relative (rounding -2 ln v costs 2**-24, which the
    square root halves, and the square root rounds once), and gamma,
    r * c and the sum round by 2**-24 relative each (gamma may underflow
    by 2**-150, which r < 8.58 leaves room for): 3.5 * 2**-24 of S, under
    half of 7.2e-7 of it, about 6.04 * 2**-24.  The logarithm stays
    float64: taken in float32, of v rounded to float32, it would be off
    by up to 2**-25 absolute near v = 1, a relative error in r that grows
    without bound as r nears 0.  The third covers the float64 roundings,
    since both decisions share gamma, delta and R: 2**-53 relative each
    in r, r * c and the sum, 3 * 2**-53 of S, under half of 2**-50 of it.
    So a sample below float32(delta - margin) or above float32(delta +
    margin), each nudged one ulp outward, is a hit or a miss exactly as
    the float64 transform decides it.  Only the rest, typically none or
    one per call, go through that transform, with float64 cos or sin of
    the same float64 theta + phi, so every estimate is the one it alone
    gives, for every seed.

    A query whose S plus margin reaches 2**127 is decided without
    sampling: the estimate is 1.0 if |gamma| <= delta and 0.0 otherwise,
    with standard error 0.0, as every sample would decide it.  Where
    |gamma| >= 2**60, |r * c| < 8.58 is below a quarter ulp of gamma, so
    every sample reads |gamma|; otherwise delta > 2**126 exceeds |gamma|
    + 8.58, so every sample is a hit.

    ``samples`` and ``seed`` must be integers (Python or NumPy), with
    ``samples >= 10000`` and ``seed >= 0``; anything else raises
    ``ValueError`` naming the argument.  A query whose gamma or delta
    overflows raises ``ValueError`` describing the query.

    Needs numpy, which this function imports only when it samples; the
    rest of the package does not use it.
    """
    samples = _index(samples, "samples")
    if samples < _MC_MIN_SAMPLES:
        raise ValueError(f"samples must be >= {_MC_MIN_SAMPLES}, got {samples!r}")
    seed = _index(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    s1, s2 = q.g1.sigma, q.g2.sigma
    gamma, delta, margin = _screen_margin(q.g1.mu, s1, q.g2.mu, s2, q.d)
    if not (abs(gamma) < math.inf and delta < math.inf):
        raise ValueError(
            f"mc_oracle cannot sample {q!r}: the gap and d in units of R = hypot(sigma1, "
            f"sigma2), (mu1 - mu2)/R and d/R, are {gamma!r} and {delta!r}, and one overflows")
    if margin == math.inf:
        return McEstimate(1.0 if abs(gamma) <= delta else 0.0, 0.0)
    import numpy as np

    phi = math.atan2(s2, s1)
    lo, hi = np.nextafter(np.float32([delta - margin, delta + margin]),
                          np.float32([-np.inf, np.inf]))
    # one flat block holds each chunk's arrays: u1 and u2, then ln v and theta + phi
    # in their place, and, viewed as four float32 rows, the screen's.  glibc hands a
    # freed heap top back to the OS once it exceeds twice the largest freed mmap'd
    # block, so with separate arrays, depending on heap layout, every call could
    # fault their pages in again: about 150 faults at 20,000 samples
    block = np.empty(4 * ((min(_MC_CHUNK, samples) + 1) // 2))
    hits = 0
    for chunk_idx, done in enumerate(range(0, samples, _MC_CHUNK)):
        m = min(_MC_CHUNK, samples - done)
        n = (m + 1) // 2               # draws: sample j takes draw j's cos, n + j its sin
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(chunk_idx,))))
        a, b = rng.random(out=block[:2 * n].reshape(2, n))   # C order: u1, then u2
        np.subtract(1.0, a, out=a)     # u1 in (0, 1]: keeps log finite
        np.log(a, out=a)               # ln v, kept in float64
        b *= 2.0 * np.pi               # theta
        b += phi                       # theta + phi, in float64 for both decisions
        x = _screen(a, b, gamma, block[2 * n:4 * n].view(np.float32).reshape(4, n))
        if m < 2 * n:
            x[1, -1] = np.inf          # an odd chunk has no sample 2n - 1: a decided miss
        inside = x < lo
        outside = x > hi
        decided = int(np.count_nonzero(inside))
        hits += decided
        if decided + int(np.count_nonzero(outside)) == 2 * n:
            continue
        # the masks are disjoint, so the undecided samples, which get the float64
        # transform, are where both are False: flat index k < n is draw k's cos
        # sample, n + j draw j's sin sample
        k = np.flatnonzero(inside == outside)
        j = k % n
        x = np.sqrt(-2.0 * a[j])
        x *= np.where(k < n, np.cos(b[j]), np.sin(b[j]))
        x += gamma
        hits += int(np.count_nonzero(np.abs(x) <= delta))
    est = hits / samples
    return McEstimate(est, math.sqrt(est * (1.0 - est) / samples))
