"""Kernel accuracy checks against independent references.

Frozen expected values were produced with a 40-digit reference
evaluation (series/continued-fraction implementation, mpmath); the
dense-grid comparisons use the C library's erf/erfc via ``math`` as a
second, structurally unrelated implementation.
"""

import math
import random

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

    def test_dense_grid_vs_libm(self):
        # contract: absolute error <= 1e-12 on |x| <= 6
        worst = 0.0
        for i in range(-6000, 6001):
            x = i / 1000.0
            worst = max(worst, abs(erf(x) - math.erf(x)))
        assert worst <= 1e-12

    def test_erfc_dense_grid_vs_libm(self):
        worst = 0.0
        worst_rel = 0.0
        for i in range(-6000, 6001):
            x = i / 1000.0
            mine, ref = erfc(x), math.erfc(x)
            worst = max(worst, abs(mine - ref))
            if ref > 0:
                worst_rel = max(worst_rel, abs(mine - ref) / ref)
        assert worst <= 1e-12
        assert worst_rel <= 1e-11

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


# --------------------------------------------------------------------------
# Reference copy of Cody's rational forms as coefficient tuples evaluated by
# loops.  The kernels in ``special`` write the same Horner chains out as
# straight-line expressions; both must agree bit for bit.

_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
      3.20937758913846947e03, 1.85777706184603153e-1)
_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
      2.84423683343917062e03)
_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
      2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
      2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
      1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
      3.43936767414372164e03, 1.23033935480374942e03)
_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
      1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_Q = (2.56852019228982242e00, 1.87295284992346047e00, 5.27905102951428412e-1,
      6.05183413124413191e-2, 2.33520497626869185e-3)


def _ref_rational(num_coefs, den_coefs, x):
    # numerator starts at its last coefficient times x, denominator at x
    n = len(den_coefs) - 1
    num = num_coefs[-1] * x
    den = x
    for i in range(n):
        num = (num + num_coefs[i]) * x
        den = (den + den_coefs[i]) * x
    return num + num_coefs[n], den + den_coefs[n]


def _ref_exp_split(y):
    ysq = math.floor(y * 16.0) / 16.0
    return math.exp(-ysq * ysq) * math.exp(-(y - ysq) * (y + ysq))


def _ref_erf_core(x):
    num, den = _ref_rational(_A, _B, x * x)
    return x * num / den


def _ref_erfc_pos(y):
    if y <= 0.46875:
        return 1.0 - _ref_erf_core(y)
    if y <= 4.0:
        num, den = _ref_rational(_C, _D, y)
        return _ref_exp_split(y) * num / den
    if y >= 26.6:
        return 0.0
    z = 1.0 / (y * y)
    num, den = _ref_rational(_P, _Q, z)
    return _ref_exp_split(y) * (0.56418958354775628695 - z * num / den) / y


def _ref_erf(x):
    if abs(x) <= 0.46875:
        return _ref_erf_core(x)
    v = 1.0 - _ref_erfc_pos(abs(x))
    return v if x > 0 else -v


def _ref_erfc(x):
    return _ref_erfc_pos(x) if x >= 0 else 2.0 - _ref_erfc_pos(-x)


def _ref_normal_cdf(z):
    return 0.5 * _ref_erfc(-z / math.sqrt(2.0))


def _kernel_points():
    # seeded points in every branch of |x|, each branch edge with its three
    # neighbouring floats on either side, and both signs of each
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


class TestStraightLineKernels:
    @pytest.mark.parametrize("name, kernel, reference", [
        ("erf", erf, _ref_erf),
        ("erfc", erfc, _ref_erfc),
        ("_erf_core", special._erf_core, _ref_erf_core),
    ])
    def test_bit_identical_to_loop_form(self, name, kernel, reference):
        xs = _POINTS if name != "_erf_core" else [x for x in _POINTS if abs(x) <= 0.46875]
        bad = [x for x in xs if kernel(x).hex() != reference(x).hex()]
        assert not bad, f"{name} differs at {bad[:5]}"

    def test_erfc_pos_bit_identical(self):
        bad = [y for y in _POINTS if y >= 0.0
               and special._erfc_pos(y).hex() != _ref_erfc_pos(y).hex()]
        assert not bad, bad[:5]

    def test_phi_and_normal_cdf_bit_identical(self):
        # Phi's argument is scaled by sqrt(2), so the branch edges of erfc
        # are hit at z = -sqrt(2) * edge; include those arguments as well
        zs = _POINTS + [-x * math.sqrt(2.0) for x in _POINTS]
        bad = [z for z in zs if not special._phi(z).hex()
               == normal_cdf(z).hex() == _ref_normal_cdf(z).hex()]
        assert not bad, bad[:5]

    def test_values_stay_in_range(self):
        # callers return erf and normal_cdf unclamped as probabilities
        assert all(-1.0 <= erf(x) <= 1.0 and 0.0 <= erfc(x) <= 2.0 for x in _POINTS)
        assert all(0.0 <= special._erfc_pos(y) <= 1.0 for y in _POINTS if y >= 0.0)
        zs = _POINTS + [-x * math.sqrt(2.0) for x in _POINTS]
        assert all(0.0 <= normal_cdf(z) <= 1.0 for z in zs)


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
