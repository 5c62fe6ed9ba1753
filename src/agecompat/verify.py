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
  call them.

The quadrature rule is QUADPACK's published G10/K21 table, held here as
constants, so importing this module (and the package) needs no
third-party code and computes no rule; only the Monte-Carlo sampler
needs numpy, which it imports when called.
"""

import math
from collections import namedtuple
from collections.abc import Callable

from .compat import CompatQuery
from .model import _Value
from .special import (_SQRT2, _SQRT2PI, QuadratureError, _check_finite, _check_nonneg,
                      _check_positive, _clamp_unit, _index, normal_cdf)

__all__ = [
    "SliceParams", "ErrorBudget", "TruncationBound", "McEstimate",
    "QuadratureError", "slice_params", "truncation_bound",
    "error_propagation", "error_ratio", "error_ratio_bounds",
    "integrate", "quad_oracle", "mc_oracle",
]

_MAX_DEPTH = 48
_MC_CHUNK = 1 << 19
_MC_MIN_SAMPLES = 10 ** 4
# twice the worst |cos32 - cos| at float32(x), x = theta + phi in
# [0, 2 pi + pi/2); mc_oracle's screen margin rests on it
_TRIG32_ERR = 1e-6
# the screen runs only where R is at least the least normal float32 and its
# scale and margin stay below _F32_LIMIT; its float32 rounding is at most
# 5.25 * 2**-24 of that scale, and _F32_ERR is more than twice that
_F32_TINY = 2.0 ** -126
_F32_LIMIT = 2.0 ** 127
_F32_ERR = 7.2e-7
# the quadrature integrand calls these 21 times per panel, about 230 to
# 315 times per quad_oracle
_exp = math.exp
_erfc = math.erfc

# The G10/K21 Gauss-Kronrod pair on [-1, 1], from QUADPACK's qk21 table
# (Piessens et al., QUADPACK, Springer 1983).  Both rules are symmetric,
# so only the positive nodes are stored, descending.  The 21-point Kronrod
# rule keeps the ten nodes of the Gauss-Legendre rule and adds eleven that
# interleave with them, the center among them.
_G10_NODES = (
    0.973906528517171720077964012084452, 0.865063366688984510732096688423493,
    0.679409568299024406234327365114874, 0.433395394129247190799265943165784,
    0.148874338981631210884826001129720,
)
_G10_WEIGHTS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# Kronrod weights of the shared nodes
_K21_GAUSS_WEIGHTS = (
    0.032558162307964727478818972459390, 0.075039674810919952767043140916190,
    0.109387158802297641899210590325805, 0.134709217311473325928054001771707,
    0.147739104901338491374841515972068,
)
# the Kronrod rule's own nodes and weights, apart from the center
_K21_NODES = (
    0.995657163025808080735527280689003, 0.930157491355708226001207180059508,
    0.780817726586416897063717578345042, 0.562757134668604683339000099272694,
    0.294392862701460198131126603103866,
)
_K21_WEIGHTS = (
    0.011694638867371874278064396062192, 0.054755896574351996031381300244580,
    0.093125454583697605535065465083366, 0.123491976262065851077958109831074,
    0.142775938577060080797094273138717,
)
_K21_CENTER_WEIGHT = 0.149445554002916905664936468389821
_SHARED = tuple(zip(_G10_NODES, _G10_WEIGHTS, _K21_GAUSS_WEIGHTS))
_KRONROD_ONLY = tuple(zip(_K21_NODES, _K21_WEIGHTS))


class SliceParams(_Value):
    """Gaussian profile of one diagonal slice x2 = x1 + delta.

    The product density restricted to the slice is Gaussian in x1 with
    mean mu12 and width sigma12 <= min(sigma1, sigma2).
    """

    __slots__ = ("mu12", "sigma12")

    def __init__(self, mu12: float, sigma12: float):
        self._store((mu12, sigma12))


class ErrorBudget(_Value):
    """Absolute uncertainties of d, sigma1, sigma2 (years each)."""

    __slots__ = ("d_err", "sigma1_err", "sigma2_err")

    def __init__(self, d_err: float, sigma1_err: float, sigma2_err: float):
        _check_nonneg(d_err, "d_err")
        _check_nonneg(sigma1_err, "sigma1_err")
        _check_nonneg(sigma2_err, "sigma2_err")
        self._store((d_err, sigma1_err, sigma2_err))


TruncationBound = namedtuple("TruncationBound", "worst_slice loose")
TruncationBound.__doc__ = "Per-slice certificate and its looser closed-form majorant."


def slice_params(g1, g2, delta: float) -> SliceParams:
    """Slice mean/width for x2 = x1 + delta."""
    v1, v2 = g1.sigma ** 2, g2.sigma ** 2
    total = v1 + v2
    return SliceParams(
        mu12=((g2.mu - delta) * v1 + g1.mu * v2) / total,
        sigma12=g1.sigma * g2.sigma / math.sqrt(total),
    )


def truncation_bound(q: CompatQuery) -> TruncationBound:
    """Bound on the x < 0 sector's share of any slice of the integral.

    The slice ratio Phi(-mu12/sigma12) is maximal at delta = d (mu12
    decreases in delta), giving the worst-slice certificate.  The loose
    companion Phi(-(mu - d)/sigma), evaluated for the younger person,
    majorizes it when the age-to-dispersion ratios agree, and is the
    quantity quoted against the 4-sigma yardstick.
    """
    sp = slice_params(q.g1, q.g2, q.d)
    worst = normal_cdf(-sp.mu12 / sp.sigma12)
    younger = q.g1 if q.g1.mu <= q.g2.mu else q.g2
    loose = normal_cdf(-(younger.mu - q.d) / younger.sigma)
    return TruncationBound(worst_slice=worst, loose=loose)


def error_propagation(q: CompatQuery, budget: ErrorBudget) -> float:
    """First-order uncertainty of the pair probability.

        dp = dd/sqrt(2 pi S2) * [e+ + e-]
           + (s1 ds1 + s2 ds2)/(sqrt(2 pi) S2^(3/2)) * |(g+d) e+ - (g-d) e-|

    with g = mu1 - mu2, S2 = s1**2 + s2**2 and
    e+- = exp(-(g +- d)**2 / (2 S2)).  This is exactly
    |dp/dd| dd + |dp/ds1| ds1 + |dp/ds2| ds2 of the closed form.
    """
    s1, s2 = q.g1.sigma, q.g2.sigma
    s2sum = s1 * s1 + s2 * s2
    g = q.g1.mu - q.g2.mu
    ep = math.exp(-0.5 * (g + q.d) ** 2 / s2sum)
    em = math.exp(-0.5 * (g - q.d) ** 2 / s2sum)
    d_part = budget.d_err / math.sqrt(2.0 * math.pi * s2sum) * (ep + em)
    sigma_part = ((s1 * budget.sigma1_err + s2 * budget.sigma2_err)
                  / (_SQRT2PI * s2sum ** 1.5)
                  * abs((g + q.d) * ep - (g - q.d) * em))
    return d_part + sigma_part


def error_ratio(q: CompatQuery, budget: ErrorBudget) -> float:
    """Sigma-channel error relative to the d-channel error.

        (1/S2) |g tanh(2 d g / S2) + d| (s1 ds1 + s2 ds2) / dd

    At equal means the tanh term vanishes and the expression coincides
    with the quotient of the two :func:`error_propagation` channels.
    """
    _check_positive(budget.d_err, "d_err")
    s1, s2 = q.g1.sigma, q.g2.sigma
    s2sum = s1 * s1 + s2 * s2
    g = q.g1.mu - q.g2.mu
    return (abs(g * math.tanh(2.0 * q.d * g / s2sum) + q.d) / s2sum
            * (s1 * budget.sigma1_err + s2 * budget.sigma2_err) / budget.d_err)


def error_ratio_bounds(a: float, b: float, c: float) -> tuple[float, float]:
    """Bracket ((a+b)/(1+c), 2(a+b)) for the error ratio.

    Applies under d = a*sigma1, mu1-mu2 = b*sigma1, sigma1 = c*sigma2
    with a, b, c > 1 and roughly equal budget entries.
    """
    if not (a > 1 and b > 1 and c > 1):
        raise ValueError("bounds require a, b, c > 1")
    return ((a + b) / (1.0 + c), 2.0 * (a + b))


def _panel(f, a, b):
    """K21 estimate of f over [a, b] and its error estimate |K21 - G10|."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    kronrod = _K21_CENTER_WEIGHT * f(c)
    gauss = 0.0
    for x, wg, wk in _SHARED:
        pair = f(c - h * x) + f(c + h * x)
        gauss += wg * pair
        kronrod += wk * pair
    for x, wk in _KRONROD_ONLY:
        kronrod += wk * (f(c - h * x) + f(c + h * x))
    return h * kronrod, abs(h * (kronrod - gauss))


def integrate(f: Callable[[float], float], a: float, b: float,
              tol: float = 1e-12, breakpoints=()) -> float:
    """Adaptive quadrature of f over [a, b] to absolute tolerance tol.

    Each panel is evaluated once, with 21 calls of f: the 21-point
    Gauss-Kronrod rule gives its estimate, and the difference from the
    10-point Gauss-Legendre rule embedded in it gives its error
    estimate.  A panel whose error estimate is at most its share of tol,
    tol * (hi - lo) / (b - a), is accepted; any other is bisected and
    both halves are evaluated.  Optional breakpoints seed the initial
    panels (useful when the integrand's mass is far narrower than the
    interval).

    Raises:
        ValueError: a or b is not finite, or tol is not finite and
            positive (named), or a > b.
        QuadratureError: refinement depth exhausted without convergence.
    """
    _check_finite(a, "a")
    _check_finite(b, "b")
    _check_positive(tol, "tol")
    if a == b:
        return 0.0
    if a > b:
        raise ValueError(f"need a <= b, got a={a!r}, b={b!r}")
    cuts = sorted({a, b, *(x for x in breakpoints if a < x < b)})
    width = b - a
    total = 0.0
    # stack entries: (lo, hi, depth)
    stack = [(lo, hi, 0) for lo, hi in zip(cuts, cuts[1:])]
    while stack:
        lo, hi, depth = stack.pop()
        estimate, error = _panel(f, lo, hi)
        if error <= tol * (hi - lo) / width:
            total += estimate
            continue
        if depth >= _MAX_DEPTH:
            raise QuadratureError(
                f"no convergence on [{lo}, {hi}] after {_MAX_DEPTH} splits")
        mid = 0.5 * (lo + hi)
        stack.append((lo, mid, depth + 1))
        stack.append((mid, hi, depth + 1))
    return total


def quad_oracle(q: CompatQuery, tol: float = 1e-11) -> float:
    """Pair probability by direct numerical integration.

    Integrates g1(x1) times the exact inner cdf difference of g2 over
    x1; the outer interval spans 10 standard deviations beyond both
    means (omitted tail mass < 1e-23).  Independent of the closed form
    it is used to check, and never calls it.  ``tol`` goes to
    :func:`integrate`, which rejects one that is not finite and positive.

    Raises:
        ValueError: the outer interval or its width overflows (finite
            ages or sigmas near the float limit); the message describes
            the query.
    """
    g1, g2, d = q.g1, q.g2, q.d
    mu1, s1, mu2, s2 = g1.mu, g1.sigma, g2.mu, g2.sigma
    smax = max(s1, s2)
    a = min(mu1, mu2) - 10.0 * smax
    b = max(mu1, mu2) + 10.0 * smax
    if not b - a < math.inf:
        raise ValueError(
            f"quad_oracle cannot integrate this query: its outer interval, 10 "
            f"sigma beyond both means (mu1={mu1!r}, mu2={mu2!r}, largest "
            f"sigma={smax!r}), is [{a!r}, {b!r}], whose width overflows")

    # gaussian_pdf(x1, g1) * (_phi(hi) - _phi(lo)), written with
    # _phi(y) = erfc(-y / sqrt2) / 2 and its per-query constants formed
    # once; z keeps its division by s1, so a tiny sigma cannot form 0 * inf
    lo_edge = mu2 - d
    hi_edge = mu2 + d
    scale1 = 2.0 * _SQRT2PI * s1
    scale2 = _SQRT2 * s2

    def f(x1):
        z = (x1 - mu1) / s1
        return (_exp(-0.5 * z * z)
                * (_erfc((lo_edge - x1) / scale2) - _erfc((hi_edge - x1) / scale2)) / scale1)

    # seed panels at the bump of g1 and the kinks of the inner factor
    cuts = [mu1 + j * s1 for j in (-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0)]
    cuts += [lo_edge, mu2, hi_edge]
    return _clamp_unit(integrate(f, a, b, tol=tol, breakpoints=cuts))


McEstimate = namedtuple("McEstimate", "estimate stderr")
McEstimate.__doc__ = "Monte-Carlo estimate with its binomial standard error."


def _screen_margin(mu1, s1, mu2, s2, d):
    """Margin of mc_oracle's float32 screen, or inf where it cannot run.

    The screen needs R = hypot(s1, s2) to be a normal float32 and its
    scale and margin to stay below 2**127; an overflowing margin is inf
    as well.  See :func:`mc_oracle` for the bound.
    """
    scale = 8.6 * (s1 + s2) + abs(mu1 - mu2) + d
    margin = (8.6 * _TRIG32_ERR * (s1 + s2) + _F32_ERR * scale
              + 1e-12 * (abs(mu1) + abs(mu2) + d))
    if _F32_TINY <= math.hypot(s1, s2) and scale + margin < _F32_LIMIT:
        return margin
    return math.inf


def _screen(r, theta, mu1, s1, mu2, s2, cos, out):
    """|x1 - x2| = |r * R * cos(theta + phi) + (mu1 - mu2)| in float32, into out.

    R = hypot(s1, s2) and phi = atan2(s2, s1); ``r`` and ``theta`` are
    float64, ``cos`` and ``out`` float32 arrays of their size, and
    ``cos`` is clobbered.  theta + phi is summed in float64 and rounded
    to float32 once; every later step is float32.
    """
    import numpy as np
    np.add(theta, math.atan2(s2, s1), out=cos)
    np.cos(cos, out=cos)
    out[...] = r
    out *= cos
    out *= np.float32(math.hypot(s1, s2))
    out += np.float32(mu1 - mu2)
    return np.abs(out, out=out)


def mc_oracle(q: CompatQuery, samples: int, seed: int) -> McEstimate:
    """Estimate the pair probability by seeded sampling.

    Draws (x1, x2) pairs via a Box-Muller transform of uniforms from a
    PCG64 stream, so the stream position is a fixed function of the
    sample count and identical seeds give identical output.  Chunk
    substreams derive from (seed, chunk index), making the result
    independent of evaluation order.

    A pair is a hit where the float64 transform, x1 = r*cos(theta)*sigma1
    + mu1 and x2 = r*sin(theta)*sigma2 + mu2, gives |x1 - x2| <= d.  Each
    chunk first screens its pairs in float32 with one cosine, from

        x1 - x2 = r * R * cos(theta + phi) + (mu1 - mu2),

    R = hypot(sigma1, sigma2) and phi = atan2(sigma2, sigma1): the screen
    forms |r * c * R + (mu1 - mu2)| with c the float32 cos of
    float32(theta + phi), every step in float32.  That is |x1 - x2| to
    within a margin,

        8.6 * 1e-6 * (sigma1 + sigma2)
        + 7.2e-7 * (8.6 * (sigma1 + sigma2) + |mu1 - mu2| + d)
        + 1e-12 * (|mu1| + |mu2| + d).

    It holds because r = sqrt(-2 log u1) < 8.6 for every u1 >= 2**-53
    and R <= sigma1 + sigma2.  Rounding theta + phi to float32 moves it
    by at most 2**-22 and float32 cos is within a few ulp (6e-8), so c
    is within 5e-7, half of 1e-6, of the exact cosine.  The screen
    rounds six times to float32: r, R and mu1 - mu2, its two products and
    its sum.  Each rounding errs by at most 2**-24 relative, or by 2**-150
    below the least normal float32, which is at most 2**-24 * R while R
    is normal.  Together they move it by at most 5.25 * 2**-24 of the
    second term's scale, under half of 7.2e-7 of it.  The 1e-12 term
    covers the float64 rounding of both forms.  So a pair whose
    screened value lies below float32(d - margin), nudged one ulp down,
    is a hit, and one above float32(d + margin), nudged one ulp up, a
    miss, exactly as the float64 transform decides them.  Only the rest,
    typically none or one per call, go through the float64 transform, so
    every estimate is the one that transform alone gives, for every
    seed.  A query whose R is below the least normal float32, or whose
    scales and margin reach 2**127, skips the screen and sends every
    pair through the float64 transform, as does an overflowing margin.

    ``samples`` and ``seed`` must be integers (Python or NumPy), with
    ``samples >= 10000`` and ``seed >= 0``; anything else raises
    ``ValueError`` naming the argument.

    Needs numpy, which this function imports when called; the rest of
    the package does not use it.
    """
    samples = _index(samples, "samples")
    if samples < _MC_MIN_SAMPLES:
        raise ValueError(f"samples must be >= {_MC_MIN_SAMPLES}, got {samples!r}")
    seed = _index(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    import numpy as np

    g1, g2, d = q.g1, q.g2, q.d
    mu1, s1, mu2, s2 = g1.mu, g1.sigma, g2.mu, g2.sigma
    margin = _screen_margin(mu1, s1, mu2, s2, d)
    screened = margin < math.inf
    if screened:
        lo = np.nextafter(np.float32(d - margin), np.float32(-np.inf))
        hi = np.nextafter(np.float32(d + margin), np.float32(np.inf))
    # one block holds each chunk's arrays: r, theta and, viewed as two
    # float32 rows, the screen's.  glibc hands a freed heap top back to the
    # OS once it exceeds twice the largest freed mmap'd block, so with
    # separate arrays, depending on heap layout, every call could fault
    # their pages in again: about 150 faults at 20,000 samples
    width = min(_MC_CHUNK, samples)
    scratch = np.empty((3, width))
    cos32, x32 = scratch[2].view(np.float32).reshape(2, width)
    hits = 0
    for chunk_idx, done in enumerate(range(0, samples, _MC_CHUNK)):
        n = min(_MC_CHUNK, samples - done)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(chunk_idx,))))
        a, b = scratch[:2, :n]
        rng.random(out=a)
        np.subtract(1.0, a, out=a)     # u1 in (0, 1]: keeps log finite
        rng.random(out=b)              # u2
        np.log(a, out=a)
        a *= -2.0
        np.sqrt(a, out=a)              # r
        b *= 2.0 * np.pi               # theta
        keep = slice(None)
        if screened:
            x = _screen(a, b, mu1, s1, mu2, s2, cos32[:n], x32[:n])
            inside = x < lo
            outside = x > hi
            decided = int(np.count_nonzero(inside))
            hits += decided
            decided += int(np.count_nonzero(outside))
            if decided == n:
                continue
            # the undecided samples, NaN included, get the float64 transform
            keep = np.flatnonzero(~(inside | outside))
        r, theta = a[keep], b[keep]
        x1 = r * np.cos(theta) * s1 + mu1
        x2 = r * np.sin(theta) * s2 + mu2
        hits += int(np.count_nonzero(np.abs(x1 - x2) <= d))
    est = hits / samples
    return McEstimate(est, math.sqrt(est * (1.0 - est) / samples))
