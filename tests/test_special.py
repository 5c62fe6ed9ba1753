"""Kernel accuracy checks against independent references.

Frozen expected values were produced with a 40-digit reference
evaluation (series/continued-fraction implementation, mpmath), so the
file still checks values where mpmath is not installed.  erf and erfc
are the C library's, called through ``math``; comparing them with
``math`` would compare the kernel with itself, so the dense-point checks
use 40-digit mpmath instead and are skipped without it.
"""

import math
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agecompat import special
from agecompat.special import erf, erfc, normal_cdf, normal_pdf, normal_quantile

# reference evaluations, 40-digit oracle rounded to float64
ERF_HALF = 0.5204998778130465
ERF_0_9905 = 0.8387196902071829
PHI_2_368 = 0.9910577320496295
PHI_MINUS_4 = 3.1671241833119924e-05
PHI_ONE = 0.8413447460685429
Q_0_8413 = 0.9998150936147444
Q_3_17EM5 = -3.9997852068574804


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_reference_values(self):
        assert erf(0.5) == pytest.approx(ERF_HALF, abs=1e-15)
        assert erf(0.9905) == pytest.approx(ERF_0_9905, abs=1e-15)

    @given(st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
    def test_odd(self, x):
        assert erf(-x) == -erf(x)

    @given(st.floats(min_value=-40.0, max_value=40.0, allow_nan=False))
    def test_bounded_and_increasing_locally(self, x):
        assert abs(erf(x)) < 1.0 or abs(x) > 5.8
        assert erf(x + 1e-3) >= erf(x)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            erf(bad)


class TestNormalCdf:
    def test_median(self):
        assert normal_cdf(0.0) == 0.5

    def test_reference_values(self):
        assert normal_cdf(-4.0) == pytest.approx(PHI_MINUS_4, rel=1e-12)
        assert normal_cdf(2.368) == pytest.approx(PHI_2_368, abs=1e-14)
        assert normal_cdf(1.0) == pytest.approx(PHI_ONE, abs=1e-14)

    def test_matches_erf_identity(self):
        for i in range(-80, 81):
            z = i / 10.0
            assert normal_cdf(z) == pytest.approx(
                0.5 * (1.0 + erf(z / math.sqrt(2.0))), abs=1e-14)

    @given(st.floats(min_value=-38.0, max_value=38.0, allow_nan=False))
    def test_reflection(self, z):
        assert abs(normal_cdf(z) + normal_cdf(-z) - 1.0) <= 1e-12

    def test_monotone_on_dense_grid(self):
        prev = 0.0
        z = -9.0
        while z <= 9.0:
            cur = normal_cdf(z)
            if z > -9.0:
                assert cur >= prev
            prev = cur
            z += 0.004

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            normal_cdf(bad)


class TestNormalPdf:
    def test_peak(self):
        assert normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-16)

    def test_symmetry(self):
        assert normal_pdf(1.7) == normal_pdf(-1.7)


class TestNormalQuantile:
    def test_median(self):
        # exact zero: the limit conversions return the limit itself at
        # p = 0.5 through their general path, 1 + s * 0.0 == 1.0
        assert normal_quantile(0.5) == 0.0
        assert normal_quantile(1.0 - 0.5) == 0.0

    def test_reference_values(self):
        assert normal_quantile(0.8413) == pytest.approx(Q_0_8413, abs=1e-12)
        assert normal_quantile(3.17e-5) == pytest.approx(Q_3_17EM5, abs=1e-3)
        assert normal_quantile(3.17e-5) == pytest.approx(-4.0, abs=1e-3)

    def test_round_trip_of_phi_one(self):
        assert normal_quantile(normal_cdf(1.0)) == pytest.approx(1.0, abs=1e-6)
        assert normal_quantile(normal_cdf(1.0)) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=1e-10, max_value=1.0 - 1e-10,
                     allow_nan=False, exclude_min=False))
    def test_round_trip(self, p):
        assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-9

    @given(st.floats(min_value=1e-9, max_value=0.5, allow_nan=False))
    def test_antisymmetry(self, p):
        assert abs(normal_quantile(1.0 - p) + normal_quantile(p)) <= 1e-7

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, math.nan])
    def test_domain_rejected(self, bad):
        with pytest.raises(ValueError):
            normal_quantile(bad)

    @pytest.mark.parametrize("p", [1e-300, 1e-100, 1e-20, 1e-16])
    def test_extreme_tail_round_trip(self, p):
        # relative round-trip accuracy survives far beyond the central range
        x = normal_quantile(p)
        assert x < -8.0
        assert abs(normal_cdf(x) - p) / p <= 1e-12


def _kernel_points():
    # seeded points in four bands of |x| < 40, each band edge with its three
    # neighbouring floats on either side, tiny |x|, and both signs of each
    rng = random.Random(20261018)
    pts = [0.0]
    for lo, hi in ((0.0, 0.46875), (0.46875, 4.0), (4.0, 26.6), (26.6, 40.0)):
        pts += [rng.uniform(lo, hi) for _ in range(1500)]
    pts += [math.exp(rng.uniform(-40.0, 0.0)) for _ in range(500)]
    for edge in (0.46875, 4.0, 26.6):
        lo = hi = edge
        pts.append(edge)
        for _ in range(3):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
            pts += [lo, hi]
    return pts + [-x for x in pts]


_POINTS = _kernel_points()
# Phi's argument is scaled by sqrt(2), so Phi sees the same bands at z = -sqrt(2) * x
_Z_POINTS = _POINTS + [-x * math.sqrt(2.0) for x in _POINTS]


@pytest.fixture(scope="module")
def mp():
    return pytest.importorskip("mpmath")


@pytest.fixture(scope="module")
def erfc_refs(mp):
    # one 40-digit erfc per point serves the erfc and the erf check
    with mp.workdps(40):
        return [mp.erfc(mp.mpf(x)) for x in _POINTS]


def _worst_error(mp, kernel, refs, relative):
    """Largest kernel error on _POINTS against 40-digit references.

    Only points whose reference value is a normal float are compared;
    below that the result holds fewer than 53 significant bits by design.
    """
    worst, worst_at = 0.0, None
    with mp.workdps(40):
        for x, ref in zip(_POINTS, refs):
            if abs(ref) < sys.float_info.min:
                continue
            err = abs(mp.mpf(kernel(x)) - ref)
            err = float(err / abs(ref)) if relative else float(err)
            if err > worst:
                worst, worst_at = err, x
    return worst, worst_at


class TestStraightLineKernels:
    def test_erfc_vs_mpmath(self, mp, erfc_refs):
        worst, at = _worst_error(mp, erfc, erfc_refs, relative=True)
        assert worst <= 2e-15, f"erfc rel error {worst:.3g} at x = {at!r}"

    def test_erf_vs_mpmath(self, mp, erfc_refs):
        with mp.workdps(40):
            refs = [1 - r for r in erfc_refs]
        worst, at = _worst_error(mp, erf, refs, relative=False)
        assert worst <= 1e-15, f"erf abs error {worst:.3g} at x = {at!r}"

    def test_normal_cdf_vs_mpmath(self, mp):
        # the rounding of -z/sqrt(2) is amplified by about z**2 in the lower
        # tail, so the contract is relative 1e-12 rather than a few ulps
        with mp.workdps(40):
            refs = [mp.ncdf(mp.mpf(z)) for z in _POINTS]
        worst, at = _worst_error(mp, normal_cdf, refs, relative=True)
        assert worst <= 1e-12, f"normal_cdf rel error {worst:.3g} at z = {at!r}"

    def test_phi_and_normal_cdf_bit_identical(self):
        bad = [z for z in _Z_POINTS if special._phi(z).hex() != normal_cdf(z).hex()]
        assert not bad, bad[:5]

    def test_values_stay_in_range(self):
        # callers return erf and normal_cdf unclamped as probabilities
        assert all(-1.0 <= erf(x) <= 1.0 and 0.0 <= erfc(x) <= 2.0 for x in _POINTS)
        assert all(0.0 <= normal_cdf(z) <= 1.0 for z in _Z_POINTS)


class TestSubnormalBand:
    # erfc(y) reaches the subnormal floats near y = 26.55 and underflows to
    # 0 only near y = 27.2, so Phi is a tiny positive number, not 0, for z
    # between about -38.5 and -37.6
    ZS = [-38.6 + i / 1000.0 for i in range(1101)]

    def test_normal_cdf_nonnegative_and_nondecreasing(self):
        vals = [normal_cdf(z) for z in self.ZS]
        assert all(v >= 0.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert 0.0 < normal_cdf(-38.0) < sys.float_info.min

    @pytest.mark.parametrize("p", [5e-324, 1e-320, 1e-310, 2e-308])
    def test_quantile_newton_step_in_band(self, p):
        # the density stays positive here, so the Newton step runs; it must
        # land in the band and round-trip to within two subnormal spacings
        x = normal_quantile(p)
        assert special._pdf(x) > 0.0
        assert -38.6 < x < -37.5
        assert abs(normal_cdf(x) - p) <= max(1e-12 * p, 1e-323)

    def test_quantile_monotone_across_band(self):
        ps = [5e-324, 1e-322, 1e-320, 1e-315, 1e-310, 2e-308]
        xs = [normal_quantile(p) for p in ps]
        assert xs == sorted(xs)


class TestPdfKernel:
    def test_normal_pdf_wraps_unchecked_kernel(self):
        for z in (0.0, 0.3, -1.7, 5.0, 38.0):
            assert normal_pdf(z) == special._pdf(z) == \
                math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_normal_pdf_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            normal_pdf(bad)


class TestCdfDiffGuard:
    @pytest.mark.parametrize("hi, lo", [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf),
        (math.inf, math.inf), (-math.inf, -math.inf), (1.0, 2.0),
    ])
    def test_rejects_nonfinite_or_reversed(self, hi, lo):
        with pytest.raises(ValueError):
            special._cdf_diff(hi, lo)

    def test_empty_interval_is_zero(self):
        assert special._cdf_diff(0.7, 0.7) == 0.0
        assert special._cdf_diff(-3.0, -3.0) == 0.0


def _three_branch_cdf_diff(hi, lo):
    # the kernel's earlier form: a lower-tail branch of its own, and a clamp
    # to [0, 1] on every branch
    if lo > 0.0:
        v = 0.5 * (math.erfc(lo / math.sqrt(2.0)) - math.erfc(hi / math.sqrt(2.0)))
    elif hi >= 0.0:
        v = 0.5 * (math.erf(hi / math.sqrt(2.0)) - math.erf(lo / math.sqrt(2.0)))
    else:
        v = 0.5 * (math.erfc(-hi / math.sqrt(2.0)) - math.erfc(-lo / math.sqrt(2.0)))
    return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


def _cdf_diff_corpus(size):
    # (hi, lo) pairs: every ordered pair of the edge values, among them
    # signed zeros, lo = 0.0 with hi = -0.0, +-1e308 and the subnormal band
    # of Phi near -38, then seeded intervals around centres in both tails
    # and around 0, with half-widths from 1e-16 up to far past the centre
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 8.3, -8.3,
             26.5, -26.5, 37.6, -37.6, 38.5, -38.5, 1e308, -1e308,
             sys.float_info.max, -sys.float_info.max]
    pairs = [(max(a, b), min(a, b)) for a in edges for b in edges]
    pairs.append((-0.0, 0.0))
    rng = random.Random(1241)
    while len(pairs) < size:
        centre = rng.choice((
            rng.uniform(-10.0, 10.0), rng.uniform(-40.0, 40.0), rng.choice((0.0, -0.0)),
            math.copysign(10.0 ** rng.uniform(-300.0, 308.0), rng.random() - 0.5)))
        if rng.random() < 0.5:
            half = 10.0 ** rng.uniform(-16.0, 3.0)
        else:
            half = abs(centre) * 10.0 ** rng.uniform(-16.0, 0.5)
        lo, hi = rng.choice(((centre - half, centre + half), (centre, centre + half),
                             (centre - half, centre)))
        if -math.inf < lo <= hi < math.inf:
            pairs.append((hi, lo))
    return pairs


def test_cdf_diff_same_bits_as_three_branch_form():
    # reflecting an interval below 0 onto the upper tail, and returning the
    # erf branch unclamped, change no bit and no sign of zero
    pairs = _cdf_diff_corpus(120_000)
    bad = [(hi, lo) for hi, lo in pairs
           if special._cdf_diff(hi, lo).hex() != _three_branch_cdf_diff(hi, lo).hex()]
    assert not bad, bad[:5]
    # every branch of the earlier form is well represented
    upper = sum(lo > 0.0 for hi, lo in pairs)
    lower = sum(hi < 0.0 for hi, lo in pairs)
    assert min(upper, lower, len(pairs) - upper - lower) > 20_000
    assert special._cdf_diff(-0.0, 0.0).hex() == "-0x0.0p+0"
