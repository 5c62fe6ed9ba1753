"""Model types, the convolution identity, and half-normal moments."""

import math
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agecompat.model import (
    _SIGMA_MAX,
    D_SCOPE_UPPER_COEF,
    AgeProfile,
    DiffStats,
    Gaussian,
    convolve_diff,
    d_scope,
    gaussian_pdf,
    same_age_diff_stats,
)
from agecompat.compat import CompatQuery, compat_prob
from agecompat.verify import quad_oracle

PEAK_UNIT_SIGMA = 0.3989422804014327  # 1/sqrt(2*pi)

# difference-density values for (18, 1.8) vs (14, 1.4), 40-digit quadrature
CONV_DENSITY_POINTS = {
    0.0: 0.03756323932092022,
    2.5: 0.14091280278845097,
    4.0: 0.174947763133355,
    5.5: 0.14091280278845097,
    9.0: 0.01580997830737062,
}

sigmas = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)


def _quad(f, a, b):
    """mpmath.quad of the float function f over [a, b], as a float."""
    mpmath = pytest.importorskip("mpmath")
    return float(mpmath.quad(lambda x: f(float(x)), [a, b]))


class TestGaussian:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            Gaussian(10.0, 0.0)
        with pytest.raises(ValueError):
            Gaussian(10.0, -1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Gaussian(math.nan, 1.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_or_nonfinite_sigma_message(self, sigma):
        with pytest.raises(ValueError, match=f"^sigma must be finite and positive, got {sigma!r}$"):
            Gaussian(10.0, sigma)

    def test_sigma_bound(self):
        # the float maximum over sqrt(2): above it sqrt(2) sigma overflows,
        # and hypot(sigma, sigma) with it, so every window bound became 0
        top = sys.float_info.max / math.sqrt(2.0)
        assert math.isfinite(math.sqrt(2.0) * top) and math.isfinite(math.hypot(top, top))
        g = Gaussian(1e308, top)
        q = CompatQuery(g, g, t=1.0)
        assert compat_prob(q) == pytest.approx(math.erf(0.5), rel=1e-15)
        assert quad_oracle(q) == pytest.approx(math.erf(0.5), abs=1e-11)
        above = math.nextafter(top, math.inf)
        for sigma in (above, 1.5e308, sys.float_info.max):
            message = f"sigma must be at most {top!r} (the float maximum over sqrt(2)), got {sigma!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Gaussian(10.0, sigma)

    def test_immutable(self):
        g = Gaussian(10.0, 1.0)
        with pytest.raises(AttributeError):
            g.mu = 11.0


class TestAgeProfile:
    def test_sigma_is_ratio_times_age(self):
        prof = AgeProfile(20.0, 0.15)
        assert prof.sigma == pytest.approx(3.0)
        assert prof.gaussian == Gaussian(20.0, prof.sigma)

    def test_from_sigma_round_trip(self):
        prof = AgeProfile.from_sigma(16.0, 2.4)
        assert prof.s == pytest.approx(0.15)
        assert prof.sigma == pytest.approx(2.4)

    @pytest.mark.parametrize("s,inside", [(0.05, False), (0.1, True),
                                          (0.15, True), (0.2, True),
                                          (0.25, False)])
    def test_supported_band_flag(self, s, inside):
        assert AgeProfile(30.0, s).in_supported_band is inside

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AgeProfile(0.0, 0.1)
        with pytest.raises(ValueError):
            AgeProfile(20.0, 0.0)


class TestGaussianPdf:
    def test_peak_value(self):
        g = Gaussian(7.0, 1.0)
        assert gaussian_pdf(7.0, g) == pytest.approx(PEAK_UNIT_SIGMA, abs=1e-15)

    def test_one_sigma_identity(self):
        g = Gaussian(3.0, 2.5)
        peak = gaussian_pdf(3.0, g)
        assert gaussian_pdf(3.0 + 2.5, g) == pytest.approx(
            peak * math.exp(-0.5), rel=1e-14)
        assert gaussian_pdf(3.0 - 2.5, g) == pytest.approx(
            peak * math.exp(-0.5), rel=1e-14)

    def test_normalizes_to_one(self):
        g = Gaussian(40.0, 4.0)
        total = _quad(lambda x: gaussian_pdf(x, g), g.mu - 8 * g.sigma, g.mu + 8 * g.sigma)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestConvolveDiff:
    def test_three_four_five(self):
        out = convolve_diff(Gaussian(5.0, 3.0), Gaussian(5.0, 4.0))
        assert out.mu == 0.0
        assert out.sigma == pytest.approx(5.0, rel=1e-15)

    def test_cohort_pair(self):
        out = convolve_diff(Gaussian(18.0, 1.8), Gaussian(14.0, 1.4))
        assert out.mu == pytest.approx(4.0)
        assert out.sigma == pytest.approx(math.sqrt(5.2), rel=1e-15)

    def test_against_numerical_convolution(self):
        # density of X1 - X2 evaluated by direct integration
        g1, g2 = Gaussian(18.0, 1.8), Gaussian(14.0, 1.4)
        out = convolve_diff(g1, g2)
        for y, frozen in CONV_DENSITY_POINTS.items():
            numeric = _quad(lambda x: gaussian_pdf(x, g1) * gaussian_pdf(x - y, g2),
                            g1.mu - 10 * g1.sigma, g1.mu + 10 * g1.sigma)
            assert numeric == pytest.approx(frozen, abs=1e-11)
            assert gaussian_pdf(y, out) == pytest.approx(frozen, abs=1e-12)

    def test_self_convolution_scale(self):
        out = convolve_diff(Gaussian(9.0, 2.0), Gaussian(9.0, 2.0))
        assert out.mu == 0.0
        assert out.sigma == pytest.approx(math.sqrt(2.0) * 2.0, rel=1e-15)

    @given(sigmas, sigmas)
    def test_variance_additive(self, s1, s2):
        out = convolve_diff(Gaussian(1.0, s1), Gaussian(2.0, s2))
        assert out.sigma ** 2 == pytest.approx(s1 * s1 + s2 * s2, rel=1e-12)

    @pytest.mark.parametrize("mu1, mu2", [(1e308, -1e308), (-1e308, 1e308)])
    def test_overflowing_mean_gap_named(self, mu1, mu2):
        message = f"mu1 - mu2 overflows: mu1 = {mu1!r}, mu2 = {mu2!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            convolve_diff(Gaussian(mu1, 1.0), Gaussian(mu2, 1.0))
        assert convolve_diff(Gaussian(mu1, 1.0), Gaussian(0.0, 1.0)).mu == mu1

    def test_overflowing_scale_named(self):
        message = (f"hypot(sigma1, sigma2) = {math.hypot(1.2e308, 1.2e308)!r} is above "
                   f"{_SIGMA_MAX!r}, the largest sigma of a Gaussian: "
                   f"sigma1 = 1.2e+308, sigma2 = 1.2e+308")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            convolve_diff(Gaussian(0.0, 1.2e308), Gaussian(0.0, 1.2e308))
        # hypot rounds back to sigma1 at Gaussian's bound
        assert convolve_diff(Gaussian(0.0, _SIGMA_MAX), Gaussian(0.0, 1.0)).sigma == _SIGMA_MAX


class TestSameAgeDiffStats:
    def test_unit_sigma_values(self):
        stats = same_age_diff_stats(1.0)
        assert stats.sigma_d == pytest.approx(1.4142135623730951, abs=1e-15)
        assert stats.mean_d == pytest.approx(1.1283791670955126, abs=1e-15)
        assert stats.disp_d == pytest.approx(0.8525024664274217, abs=1e-15)

    def test_ratio_contracts(self):
        stats = same_age_diff_stats(3.7)
        assert stats.mean_d / 3.7 == pytest.approx(1.128, abs=1e-3)
        assert stats.disp_d / 3.7 == pytest.approx(0.853, abs=1e-3)

    def test_linear_in_sigma(self):
        one = same_age_diff_stats(1.0)
        two = same_age_diff_stats(2.0)
        assert two == DiffStats(2 * one.sigma_d, 2 * one.mean_d, 2 * one.disp_d)

    def test_mean_by_quadrature(self):
        sigma = 1.6
        scale = math.sqrt(2.0) * sigma
        half_normal = lambda u: 2.0 * gaussian_pdf(u, Gaussian(0.0, scale))
        mean = _quad(lambda u: u * half_normal(u), 0.0, 12.0 * scale)
        assert mean == pytest.approx(same_age_diff_stats(sigma).mean_d, abs=1e-9)

    def test_half_normal_density_normalizes(self):
        sigma = 2.2
        scale = math.sqrt(2.0) * sigma
        total = _quad(lambda u: 2.0 * gaussian_pdf(u, Gaussian(0.0, scale)), 0.0, 12.0 * sigma)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_lower_edge_justification(self):
        # mean minus dispersion falls short of one sigma (~0.276 sigma)
        stats = same_age_diff_stats(1.0)
        gap = stats.mean_d - stats.disp_d
        assert gap == pytest.approx(0.276, abs=1e-3)
        assert gap < 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            same_age_diff_stats(0.0)

    def test_sigma_d_overflow_edge(self):
        # Gaussian's bound, the float maximum over sqrt(2): above it
        # sigma_d = sqrt(2) sigma overflows
        top = sys.float_info.max / math.sqrt(2.0)
        for sigma in (math.nextafter(top, 0.0), top):
            assert all(math.isfinite(v) for v in same_age_diff_stats(sigma))
        for sigma in (math.nextafter(top, math.inf), 1.3e308):
            message = f"sigma must be at most {top!r} (the float maximum over sqrt(2)), got {sigma!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                same_age_diff_stats(sigma)


class TestDScope:
    def test_cohort_pair(self):
        lo, hi = d_scope(1.8, 1.4)
        assert lo == 1.4
        assert hi == pytest.approx(1.4 * D_SCOPE_UPPER_COEF, rel=1e-15)
        assert hi == pytest.approx(2.7734, abs=2.5e-3)

    def test_symmetric(self):
        lo, hi = d_scope(2.0, 2.0)
        assert lo == 2.0
        assert hi == pytest.approx(3.962, abs=2.5e-3)

    def test_benchmark_configuration(self):
        lo, hi = d_scope(3.0, 2.4)
        assert lo == 2.4
        assert hi == pytest.approx(4.754, abs=2.5e-3)

    def test_lower_edge_is_min_sigma(self):
        assert d_scope(5.0, 0.5)[0] == 0.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            d_scope(-1.0, 2.0)
        with pytest.raises(ValueError):
            d_scope(1.0, 0.0)

    def test_upper_edge_overflow(self):
        # the largest smaller sigma whose upper edge 1.981 sigma is finite
        top = float.fromhex("0x1.02788458b298fp+1023")
        big = sys.float_info.max
        for sigma in (math.nextafter(top, 0.0), top):
            assert d_scope(sigma, big) == (sigma, D_SCOPE_UPPER_COEF * sigma)
            assert math.isfinite(d_scope(big, sigma)[1])
        for sigma in (math.nextafter(top, math.inf), 1e308):
            for args, name in (((sigma, big), "sigma1"), ((big, sigma), "sigma2")):
                message = f"{name}={sigma!r} is too large: the upper edge 1.9809 * {name} overflows"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    d_scope(*args)
        with pytest.raises(ValueError, match=r"^sigma1=1e\+308 is too large"):
            d_scope(1e308, 1e308)
