"""Pair-probability closed forms and their invariances."""

import math
import random
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agecompat.compat import (
    CompatQuery,
    compat_prob,
    compat_prob_known,
    compat_prob_normalized,
    compat_prob_ratio_form,
    prob_at_least,
    prob_at_most,
    range_prob,
    same_age_prob,
    symmetric_range_prob,
)
from agecompat.model import _SIGMA_MAX, AgeProfile, Gaussian
from agecompat.special import _cdf_diff

T_BENCH = 2.0 / math.sqrt(math.pi)

# 40-digit oracle evaluations of the closed form, rounded to float64
P_18_VS_14 = 0.11816571303152744       # d=1.4, (18, 1.8) vs (14, 1.4)
P_16_20_LOW = 0.15997634713153338      # s=0.1, t=1
P_16_20_HIGH = 0.6542640845471642      # s=0.2, t=1.981
P_16_20_BENCH = 0.32793429868208324    # s=0.15, t=2/sqrt(pi)
P0_18_VS_14 = 0.22702351733110352      # normalized, s=0.1, d=1.4
ERF_INV_SQRT2 = 0.6826894921370859
KNOWN_FAR_TAIL = 0.001349898030350282  # Phi(-3) - Phi(-7)

SAME_AGE_TABLE = {
    1.0: 0.5204998778130465,
    T_BENCH: 0.575062516316638,
    math.sqrt(2.0): 0.6826894921370859,
    1.981: 0.8387196902071829,
}

ages = st.floats(min_value=5.0, max_value=90.0, allow_nan=False)
ratios = st.floats(min_value=0.05, max_value=0.3, allow_nan=False)
t_values = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


def _query(mu1, s1, mu2, s2, d=None, t=None):
    return CompatQuery(Gaussian(mu1, s1 * mu1), Gaussian(mu2, s2 * mu2), d=d, t=t)


class TestCompatQuery:
    def test_requires_exactly_one_of_d_t(self):
        g = Gaussian(20.0, 2.0)
        message = r"^give exactly one of d \(years\) or t \(sigma multiple\)$"
        with pytest.raises(ValueError, match=message):
            CompatQuery(g, g)
        with pytest.raises(ValueError, match=message):
            CompatQuery(g, g, d=1.0, t=1.0)

    @pytest.mark.parametrize("d, t", [(None, None), (1.0, 1.0), (-1.0, math.nan)])
    def test_both_or_neither_raises_before_any_sigma_is_read(self, d, t):
        class Unread:
            @property
            def sigma(self):
                raise AssertionError("sigma was read")

        with pytest.raises(ValueError, match="^give exactly one of d"):
            CompatQuery(Unread(), Unread(), d=d, t=t)

    def test_t_anchors_on_smaller_sigma(self):
        q = _query(18.0, 0.1, 14.0, 0.1, t=1.0)
        assert q.d == pytest.approx(1.4, rel=1e-15)
        assert q.t == 1.0

    def test_d_derives_t(self):
        q = _query(18.0, 0.1, 14.0, 0.1, d=2.8)
        assert q.t == pytest.approx(2.0, rel=1e-15)

    def test_negative_rejected(self):
        g = Gaussian(20.0, 2.0)
        with pytest.raises(ValueError, match=r"^d must be finite and nonnegative, got -0\.5$"):
            CompatQuery(g, g, d=-0.5)
        with pytest.raises(ValueError, match=r"^t must be finite and nonnegative, got -0\.5$"):
            CompatQuery(g, g, t=-0.5)

    def test_t_whose_d_overflows_rejected_by_name(self):
        g1, g2 = Gaussian(18.0, 2.7), Gaussian(14.0, 2.1)
        t_max = _largest_t(g1, g2)
        assert CompatQuery(g1, g2, t=t_max).d == t_max * 2.1 < math.inf
        for t in (math.nextafter(t_max, math.inf), 1e308, sys.float_info.max):
            message = (f"t={t!r} is too large: d = t * min(sigma1, sigma2) "
                       f"= {t!r} * 2.1 overflows, and d must be finite")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CompatQuery(g1, g2, t=t)

    def test_d_whose_t_overflows_rejected_by_name(self):
        g1, g2 = Gaussian(18.0, 1e-300), Gaussian(14.0, 1.0)
        d_max = _largest_d(g1, g2)
        assert CompatQuery(g1, g2, d=d_max).t == d_max / 1e-300 < math.inf
        for d in (math.nextafter(d_max, math.inf), 1e10, sys.float_info.max):
            message = (f"d={d!r} is too large: t = d / min(sigma1, sigma2) "
                       f"= {d!r} / 1e-300 overflows, and t must be finite")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CompatQuery(g1, g2, d=d)

    @pytest.mark.parametrize("field", ["d", "t"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_rejected_at_construction(self, field, bad):
        g = Gaussian(20.0, 2.0)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CompatQuery(g, g, **{field: bad})

    @pytest.mark.parametrize("field", ["d", "t"])
    @pytest.mark.parametrize("bad", [-math.inf, -0.5])
    def test_negative_values_rejected_by_exact_message(self, field, bad):
        g = Gaussian(20.0, 2.0)
        with pytest.raises(ValueError) as info:
            CompatQuery(g, g, **{field: bad})
        assert type(info.value) is ValueError
        assert str(info.value) == f"{field} must be finite and nonnegative, got {bad!r}"

    @pytest.mark.parametrize("field, value, stored", [
        ("t", -0.0, (0.0, 0.0)), ("d", -0.0, (0.0, 0.0)),
        # 5e-324 * 2.0 is exact, and 5e-324 / 2.0 ties to the even +0.0
        ("t", 5e-324, (1e-323, 5e-324)), ("d", 5e-324, (5e-324, 0.0)),
    ])
    def test_signed_zero_and_least_subnormal_stored(self, field, value, stored):
        g = Gaussian(20.0, 2.0)
        q = CompatQuery(g, g, **{field: value})
        assert (q.d, q.t) == stored
        assert math.copysign(1.0, q.d) == math.copysign(1.0, q.t) == 1.0

    def test_frozen_hashable_and_equal_by_value(self):
        q = _query(18.0, 0.1, 14.0, 0.1, t=1.0)
        same = _query(18.0, 0.1, 14.0, 0.1, t=1.0)
        other = _query(18.0, 0.1, 14.0, 0.1, t=1.5)
        for name in ("g1", "g2", "d", "t"):
            # the messages of dataclasses.FrozenInstanceError, an AttributeError
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(q, name, 1.0)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(q, name)
        assert q == same and hash(q) == hash(same)
        assert q != other
        assert len({q, same, other}) == 2
        assert CompatQuery.__match_args__ == ("g1", "g2", "d", "t")
        assert repr(q) == ("CompatQuery(g1=Gaussian(mu=18.0, sigma=1.8), "
                           "g2=Gaussian(mu=14.0, sigma=1.4000000000000001), "
                           f"d={q.d!r}, t=1.0)")

    def test_fields_live_in_slots(self):
        # no per-instance dict: a pair-grid request builds thousands of these
        q = _query(18.0, 0.1, 14.0, 0.1, t=1.0)
        assert not hasattr(q, "__dict__")

    def test_from_profiles(self):
        q = CompatQuery.from_profiles(AgeProfile(18.0, 0.1),
                                      AgeProfile(14.0, 0.1), t=1.0)
        assert q.g1 == Gaussian(18.0, 1.8)
        assert q.d == pytest.approx(1.4, rel=1e-15)


def _largest_t(g1, g2):
    """The largest float t for which t * min(sigma1, sigma2) is finite."""
    anchor = min(g1.sigma, g2.sigma)
    t = sys.float_info.max / anchor
    while t * anchor == math.inf:
        t = math.nextafter(t, 0.0)
    while math.nextafter(t, math.inf) * anchor < math.inf:
        t = math.nextafter(t, math.inf)
    return t


def _largest_d(g1, g2):
    """The largest float d for which d / min(sigma1, sigma2) is finite."""
    anchor = min(g1.sigma, g2.sigma)
    d = sys.float_info.max * anchor
    while d / anchor == math.inf:
        d = math.nextafter(d, 0.0)
    while math.nextafter(d, math.inf) / anchor < math.inf:
        d = math.nextafter(d, math.inf)
    return d


def _reference_pair(g1, g2, d=None, t=None):
    """(d, t, p) of a pair computed with min(), math.hypot and _cdf_diff."""
    anchor = min(g1.sigma, g2.sigma)
    if d is None:
        d = t * anchor
    else:
        t = d / anchor
    gap = abs(g1.mu - g2.mu)
    scale = math.hypot(g1.sigma, g2.sigma)
    return d, t, _cdf_diff((gap + d) / scale, (gap - d) / scale)


def _mp_pair(g1, g2, d):
    """p of a pair to 40 digits, from the exact gap and d over the float math.hypot S."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        scale = mp.mpf(math.hypot(g1.sigma, g2.sigma))
        gap = abs(mp.mpf(g1.mu) - mp.mpf(g2.mu))
        hi, lo = (gap + d) / scale, (gap - d) / scale
        if lo > 40:
            return 0.0      # p < Phi(-40) < 1e-349, and mpmath's ncdf fails near 1e300
        # upper tails above the median, so a far window does not cancel
        return float(mp.ncdf(-lo) - mp.ncdf(-hi) if lo > 0 else mp.ncdf(hi) - mp.ncdf(lo))


class TestHotPathBitIdentical:
    """CompatQuery and compat_prob give exactly the reference's floats."""

    AGES = [float(a) for a in range(15, 81)]

    def _grid(self, s1, s2):
        return ([Gaussian(a, s1 * a) for a in self.AGES],
                [Gaussian(a, s2 * a) for a in self.AGES])

    @pytest.mark.parametrize("seed", range(4))
    def test_t_form_over_the_age_grid(self, seed):
        rng = random.Random(seed)
        s1, t = rng.uniform(0.1, 0.2), rng.uniform(1.0, 2.0)
        # odd seeds share one s, so every diagonal pair has equal sigmas
        s2 = s1 if seed % 2 else rng.uniform(0.1, 0.2)
        rows, cols = self._grid(s1, s2)
        for g1 in rows:
            for g2 in cols:
                q = CompatQuery(g1, g2, t=t)
                assert (q.d, q.t, compat_prob(q)) == _reference_pair(g1, g2, t=t)

    @pytest.mark.parametrize("seed", range(4))
    def test_d_form_over_the_age_grid(self, seed):
        rng = random.Random(100 + seed)
        s1 = rng.uniform(0.1, 0.2)
        s2 = s1 if seed % 2 else rng.uniform(0.1, 0.2)
        rows, cols = self._grid(s1, s2)
        for g1 in rows:
            for g2 in cols:
                d = rng.uniform(0.0, 20.0)
                q = CompatQuery(g1, g2, d=d)
                assert (q.d, q.t, compat_prob(q)) == _reference_pair(g1, g2, d=d)


def _outcome(pair, g1, g2, **kw):
    """pair(g1, g2, **kw), or the text of the ValueError it raises."""
    try:
        return pair(g1, g2, **kw)
    except ValueError as exc:
        return str(exc)


def _hot_path(g1, g2, **kw):
    q = CompatQuery(g1, g2, **kw)
    return q.d, q.t, compat_prob(q)


class TestWideDomainBitIdentical:
    """Far beyond the age grid, the hot path gives the reference's floats or its error."""

    TINY = sys.float_info.min           # the least normal float

    def _check(self, g1, g2, **kw):
        got = _outcome(_hot_path, g1, g2, **kw)
        want = _outcome(_reference_pair, g1, g2, **kw)
        if isinstance(want, str) and want.endswith("hi=inf"):
            # hi = (gap + d)/S overflows, which _cdf_diff's guard rejects: the
            # hot path takes the bounds' limits, checked against 40 digits
            p = _mp_pair(g1, g2, CompatQuery(g1, g2, **kw).d)
            assert got[2] == pytest.approx(p, rel=1e-15, abs=0.0), (g1, g2, kw)
        else:
            assert got == want, (g1, g2, kw)
        if not isinstance(got, str):
            assert math.copysign(1.0, got[0]) == math.copysign(1.0, got[1]) == 1.0
        return got

    @pytest.mark.parametrize("field", ["d", "t"])
    def test_zero_gap_and_signed_zero_windows(self, field):
        rng = random.Random(1)
        for _ in range(300):
            mu = 10.0 ** rng.uniform(-3.0, 308.0)
            g1 = Gaussian(mu, mu * 10.0 ** rng.uniform(-6.0, 0.0))
            g2 = Gaussian(mu, mu * 10.0 ** rng.uniform(-6.0, 0.0))
            for value in (0.0, -0.0, rng.uniform(0.0, 5.0)):
                p = self._check(g1, g2, **{field: value})[2]
                assert (p == 0.0) == (value == 0.0)

    def test_gap_equal_to_d_takes_the_erf_sum_at_lo_zero(self):
        rng = random.Random(2)
        for _ in range(1000):
            mu2 = 10.0 ** rng.uniform(-3.0, 307.0)
            mu1 = mu2 * rng.uniform(1.0, 3.0)
            s = rng.uniform(0.01, 1.0)
            g1, g2 = Gaussian(mu1, s * mu1), Gaussian(mu2, s * mu2)
            p = self._check(g1, g2, d=abs(mu1 - mu2))[2]
            assert 0.0 <= p <= 0.5

    @pytest.mark.parametrize("field", ["d", "t"])
    def test_far_gaps_with_subnormal_p(self, field):
        rng = random.Random(3)
        subnormal = 0
        for _ in range(1000):
            mu2 = 10.0 ** rng.uniform(-2.0, 300.0)
            sigma = mu2 * rng.uniform(0.01, 0.3)
            g2 = Gaussian(mu2, sigma)
            # a gap of 37.3 to 38.6 joint standard deviations
            g1 = Gaussian(mu2 + rng.uniform(37.3, 38.6) * math.hypot(sigma, sigma), sigma)
            t = rng.uniform(0.0, 2.0)
            p = self._check(g1, g2, **({"t": t} if field == "t" else {"d": t * sigma}))[2]
            subnormal += 0.0 < p < self.TINY
        assert subnormal > 100

    @pytest.mark.parametrize("field", ["d", "t"])
    def test_subnormal_and_near_maximum_sigmas(self, field):
        rng = random.Random(4)
        sigmas = [5e-324, 1e-320, 1e-310, self.TINY, 1e307, 8.9e307, _SIGMA_MAX / 2.0,
                  _SIGMA_MAX]
        ages = [1e-300, 1e-10, 14.0, 18.0, 1e300, 1e308]
        for s1 in sigmas:
            for s2 in sigmas:
                for mu1 in ages:
                    g1, g2 = Gaussian(mu1, s1), Gaussian(rng.choice(ages), s2)
                    t = rng.uniform(0.0, 1.0)       # t * _SIGMA_MAX stays finite
                    value = t if field == "t" else t * min(s1, s2)
                    self._check(g1, g2, **{field: value})

    @pytest.mark.parametrize("field", ["d", "t"])
    def test_ages_near_the_float_maximum(self, field):
        rng = random.Random(5)
        for _ in range(1000):
            mu1 = rng.uniform(1e307, sys.float_info.max)
            mu2 = rng.choice([mu1, rng.uniform(1e307, sys.float_info.max)])
            g1 = Gaussian(mu1, mu1 * rng.uniform(0.001, 0.3))
            g2 = Gaussian(mu2, mu2 * rng.uniform(0.001, 0.3))
            t = rng.uniform(0.0, 3.0)
            value = t if field == "t" else t * min(g1.sigma, g2.sigma)
            self._check(g1, g2, **{field: value})


# the anchor 2.1 keeps 5e-324 * anchor subnormal; 0.3 rounds it to 0
EDGE_PAIRS = {"anchor-2.1": (Gaussian(18.0, 2.7), Gaussian(14.0, 2.1)),
              "anchor-0.3": (Gaussian(30.0, 0.3), Gaussian(31.0, 0.45))}


class TestEdgeInputsKeepTheirFloats:
    """Both branches of CompatQuery store the reference's d and t, zeros as +0.0."""

    @pytest.fixture(params=[0.0, -0.0, 5e-324, 2.2250738585072014e-308, "largest-t",
                            2, True, "numpy-1.5"])
    def value(self, request):
        if request.param == "largest-t":
            return _largest_t(*EDGE_PAIRS["anchor-2.1"])
        if request.param == "numpy-1.5":
            return pytest.importorskip("numpy").float64(1.5)
        return request.param

    @pytest.mark.parametrize("pair", EDGE_PAIRS)
    @pytest.mark.parametrize("field", ["d", "t"])
    def test_stored_difference_matches_reference(self, pair, field, value):
        g1, g2 = EDGE_PAIRS[pair]
        ref_d, ref_t, ref_p = _reference_pair(g1, g2, **{field: value})
        if ref_t == math.inf:
            # the largest t's d as a d next to min sigma 0.3: t overflows
            message = f"d={value!r} is too large: t = d / min(sigma1, sigma2)"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                CompatQuery(g1, g2, **{field: value})
            return
        q = CompatQuery(g1, g2, **{field: value})
        assert (q.d, q.t, compat_prob(q)) == (ref_d, ref_t, ref_p)
        assert math.copysign(1.0, q.d) == math.copysign(1.0, q.t) == 1.0


class TestCompatProb:
    def test_high_school_pair(self):
        q = _query(18.0, 0.1, 14.0, 0.1, d=1.4)
        assert compat_prob(q) == pytest.approx(P_18_VS_14, abs=1e-12)
        # the value the downstream cohort arithmetic rounds to
        assert compat_prob(q) == pytest.approx(1.0 / 9.0, abs=8e-3)

    def test_sixteen_twenty_bracket(self):
        low = compat_prob(_query(20.0, 0.1, 16.0, 0.1, t=1.0))
        high = compat_prob(_query(20.0, 0.2, 16.0, 0.2, t=1.981))
        bench = compat_prob(_query(20.0, 0.15, 16.0, 0.15, t=T_BENCH))
        assert low == pytest.approx(P_16_20_LOW, abs=1e-12)
        assert high == pytest.approx(P_16_20_HIGH, abs=1e-12)
        assert bench == pytest.approx(P_16_20_BENCH, abs=1e-12)
        assert low == pytest.approx(0.16, abs=5e-3)
        assert high == pytest.approx(0.65, abs=5e-3)
        assert bench == pytest.approx(0.33, abs=5e-3)

    def test_literal_d_values(self):
        assert compat_prob(_query(20.0, 0.15, 16.0, 0.15, d=2.708)) == \
            pytest.approx(0.33, abs=5e-3)
        assert compat_prob(_query(20.0, 0.2, 16.0, 0.2, d=6.339)) == \
            pytest.approx(0.65, abs=5e-3)

    def test_zero_width_window(self):
        assert compat_prob(_query(20.0, 0.1, 20.0, 0.1, d=0.0)) == 0.0

    @given(ages, ratios, ages, ratios, t_values)
    def test_swap_symmetry_exact(self, mu1, s1, mu2, s2, t):
        d = t * min(s1 * mu1, s2 * mu2)
        p12 = compat_prob(_query(mu1, s1, mu2, s2, d=d))
        p21 = compat_prob(_query(mu2, s2, mu1, s1, d=d))
        assert p12 == p21

    @given(ages, ratios, ages, ratios,
           st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=20.0))
    def test_monotone_in_d(self, mu1, s1, mu2, s2, d1, d2):
        lo, hi = sorted((d1, d2))
        assert compat_prob(_query(mu1, s1, mu2, s2, d=lo)) <= \
            compat_prob(_query(mu1, s1, mu2, s2, d=hi))

    @given(ages, ratios, st.floats(min_value=0.0, max_value=30.0),
           st.floats(min_value=0.0, max_value=30.0))
    def test_monotone_in_gap(self, mu, s, gap1, gap2):
        lo, hi = sorted((gap1, gap2))
        sigma = s * mu
        near = CompatQuery(Gaussian(mu + lo, sigma), Gaussian(mu, sigma), d=2.0)
        far = CompatQuery(Gaussian(mu + hi, sigma), Gaussian(mu, sigma), d=2.0)
        assert compat_prob(far) <= compat_prob(near) + 1e-15

    def test_bounds_beyond_the_float_range_give_zero(self):
        # both bounds are 4 / hypot(1.8e-309, 1.4e-309) = inf, and lo = inf
        # is an exact limit: the CLI record's `compat --s1 1e-310 --s2 1e-310 --t 1`
        q = _query(18.0, 1e-310, 14.0, 1e-310, t=1.0)
        assert compat_prob(q) == 0.0

    def test_overflowing_gap_plus_d_keeps_finite_bounds(self):
        # gap + d = 1.99999999e308 overflows, but in units of S the bounds
        # are sqrt(2) and -7.07e-9: the CLI record's
        # `compat --age1 1e308 --age2 1e300 --s1 1 --s2 1e8 --t 1`
        q = _query(1e308, 1.0, 1e300, 1e8, t=1.0)
        assert compat_prob(q) == pytest.approx(_mp_pair(q.g1, q.g2, q.d), rel=1e-15, abs=0.0)
        assert compat_prob(q) == pytest.approx(0.42135, abs=5e-6)

    def test_overflowing_upper_bound_gives_the_lower_tail(self):
        # hi = gap/S + d/S overflows in both: p = Phi(-lo), with lo = 0 at
        # gap = d and lo = -4.9e307 at gap < d
        g1, g2 = Gaussian(1.3e308, 1.0), Gaussian(0.0, 1.0)
        assert compat_prob(CompatQuery(g1, g2, d=1.3e308)) == 0.5
        assert compat_prob(CompatQuery(Gaussian(1e308, 1.0), g2, d=1.7e308)) == 1.0

    def test_overflowing_gap_is_halved(self):
        # mu1 - mu2 = -2e308 overflows, but (gap -+ d)/S are 2.12 and 0.71
        g1, g2 = Gaussian(-1e308, 1e308), Gaussian(1e308, 1e308)
        p = _mp_pair(g1, g2, 1e308)
        assert 0.2228 < p < 0.2229
        for q in (CompatQuery(g1, g2, d=1e308), CompatQuery(g2, g1, d=1e308)):
            assert compat_prob(q) == pytest.approx(p, rel=1e-15, abs=0.0)

    def test_saturates_with_large_d(self):
        assert compat_prob(_query(30.0, 0.2, 20.0, 0.2, d=500.0)) == \
            pytest.approx(1.0, abs=1e-15)


class TestCompatProbKnown:
    def test_one_sigma_window_at_center(self):
        g = Gaussian(25.0, 2.0)
        assert compat_prob_known(2.0, 25.0, g) == \
            pytest.approx(ERF_INV_SQRT2, abs=1e-12)

    def test_zero_window(self):
        assert compat_prob_known(0.0, 17.0, Gaussian(20.0, 2.0)) == 0.0

    def test_far_tail(self):
        g = Gaussian(10.0, 1.5)
        got = compat_prob_known(2 * 1.5, 10.0 + 5 * 1.5, g)
        assert got == pytest.approx(KNOWN_FAR_TAIL, rel=1e-12)

    def test_maximal_at_center(self):
        g = Gaussian(30.0, 3.0)
        center = compat_prob_known(2.0, 30.0, g)
        for x1 in (24.0, 27.0, 29.0, 31.5, 36.0):
            assert compat_prob_known(2.0, x1, g) <= center

    def test_negative_d_rejected(self):
        with pytest.raises(ValueError):
            compat_prob_known(-1.0, 20.0, Gaussian(20.0, 2.0))


class TestCompatProbNormalized:
    def test_identical_profiles_give_one(self):
        q = _query(20.0, 0.15, 20.0, 0.15, d=2.0)
        out = compat_prob_normalized(q)
        assert out.value == pytest.approx(1.0, rel=1e-12)
        assert not out.swapped

    @pytest.mark.parametrize("d", [1e-300, 1e-200, 1e-100, 1e-30, 1e-15, 1e-12,
                                   1e-8, 1e-3, 0.1, 1.0])
    @pytest.mark.parametrize("mu, sigma", [(20.0, 3.0), (45.0, 6.75), (15.0, 1.5)])
    def test_identical_profiles_give_one_for_any_d(self, mu, sigma, d):
        # the interval straddles 0; differencing two cdf values near 1/2
        # gave 1.0000457 at d = 1e-12 and 0 at d = 1e-300
        q = CompatQuery(Gaussian(mu, sigma), Gaussian(mu, sigma), d=d)
        assert abs(compat_prob_normalized(q).value - 1.0) <= 4 * sys.float_info.epsilon

    def test_denominator_is_same_age_form(self):
        q = _query(18.0, 0.1, 14.0, 0.1, d=1.4)
        out = compat_prob_normalized(q)
        assert out.denominator == pytest.approx(math.erf(1.4 / (2 * 1.4)), abs=1e-14)

    def test_high_school_pair(self):
        q = _query(18.0, 0.1, 14.0, 0.1, d=1.4)
        out = compat_prob_normalized(q)
        assert out.value == pytest.approx(P0_18_VS_14, abs=1e-12)
        assert out.value == pytest.approx(0.227, abs=1e-2)

    def test_auto_swap_uses_younger_denominator(self):
        forward = compat_prob_normalized(_query(18.0, 0.1, 14.0, 0.1, d=1.4))
        reversed_ = compat_prob_normalized(_query(14.0, 0.1, 18.0, 0.1, d=1.4))
        assert not forward.swapped
        assert reversed_.swapped
        assert forward.value == reversed_.value
        assert forward.denominator == reversed_.denominator

    def test_zero_d_rejected(self):
        with pytest.raises(ValueError):
            compat_prob_normalized(_query(18.0, 0.1, 14.0, 0.1, d=0.0))

    @pytest.mark.parametrize("d", [5e-324, 2e-323])
    def test_underflowing_denominator_rejected_by_name(self, d):
        # erf(d / 9) underflows to 0 for both; at d = 5e-323 it is 5e-324
        q = CompatQuery(Gaussian(30.0, 4.5), Gaussian(35.0, 5.25), d=d)
        with pytest.raises(ValueError, match=f"^d={d!r} is too small"):
            compat_prob_normalized(q)

    def test_smallest_nonzero_denominator_divides(self):
        q = CompatQuery(Gaussian(30.0, 4.5), Gaussian(35.0, 5.25), d=5e-323)
        assert compat_prob_normalized(q).denominator == 5e-324

    def test_sigma_whose_double_overflows(self):
        # 2 sigma = 1.9e308 overflowed, so the denominator was erf(0) and d
        # was blamed for it
        g = Gaussian(1e308, 0.95e308)
        out = compat_prob_normalized(CompatQuery(g, g, t=T_BENCH))
        assert abs(out.value - 1.0) <= 4 * sys.float_info.epsilon
        assert out.denominator == pytest.approx(SAME_AGE_TABLE[T_BENCH], rel=1e-15)

    def test_denominator_is_erf_of_d_over_two_sigma(self):
        # the same float wherever 2 sigma is finite, a subnormal d / (2 sigma)
        # included, where halving d / sigma would round twice
        rng = random.Random(4099)
        subnormal = 0
        for _ in range(10_000):
            sigma = 10.0 ** rng.uniform(-300.0, 307.9)
            d = sigma * 10.0 ** rng.uniform(-323.0, 3.0)
            want = math.erf(d / (2.0 * sigma))
            if want > 0.0 and d < math.inf:
                g = Gaussian(20.0, sigma)
                assert compat_prob_normalized(CompatQuery(g, g, d=d)).denominator == want
                subnormal += d / (2.0 * sigma) < sys.float_info.min
        assert subnormal > 100

    @given(st.floats(min_value=14.0, max_value=90.0), ratios,
           st.floats(min_value=0.1, max_value=3.0))
    def test_value_in_unit_interval_for_equal_ratios(self, mu1, s, t):
        # older-vs-younger with a shared s never exceeds the same-age value;
        # extreme gaps may underflow the numerator to an exact float zero
        q = _query(mu1, s, 14.0, s, t=t)
        out = compat_prob_normalized(q)
        assert 0.0 <= out.value <= 1.0 + 1e-12
        if compat_prob(q) > 0.0:
            assert out.value > 0.0


class TestSameAgeProb:
    def test_reference_table(self):
        for t, want in SAME_AGE_TABLE.items():
            assert same_age_prob(t) == pytest.approx(want, abs=1e-12)

    def test_zero(self):
        assert same_age_prob(0.0) == 0.0

    def test_t_three(self):
        assert same_age_prob(3.0) == pytest.approx(0.9661051464753107, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 5.0, 50.0])
    @pytest.mark.parametrize("t", [1.0, T_BENCH, 1.981])
    def test_scale_invariance(self, sigma, t):
        q = CompatQuery(Gaussian(40.0, sigma), Gaussian(40.0, sigma), d=t * sigma)
        assert compat_prob(q) == pytest.approx(same_age_prob(t), abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            same_age_prob(-0.1)


class TestRangeProb:
    def test_at_least_median(self):
        g = Gaussian(18.0, 2.7)
        assert prob_at_least(18.0, g) == 0.5

    def test_symmetric_one_sigma(self):
        g = Gaussian(12.0, 3.0)
        assert symmetric_range_prob(3.0, g) == pytest.approx(ERF_INV_SQRT2, abs=1e-12)
        assert range_prob(9.0, 15.0, g) == pytest.approx(ERF_INV_SQRT2, abs=1e-12)

    @given(ages, ratios, st.floats(min_value=-50.0, max_value=150.0))
    def test_split_complements(self, mu, s, x0):
        g = Gaussian(mu, s * mu)
        assert prob_at_least(x0, g) + prob_at_most(x0, g) == \
            pytest.approx(1.0, abs=1e-12)

    def test_arguments_beyond_the_float_range_give_the_exact_limits(self):
        # (x0 - mu)/sigma and d/(sqrt2 sigma) overflow to +-inf from finite input
        g = Gaussian(-1e308, 1e-5)
        assert symmetric_range_prob(1e308, Gaussian(0.0, 1e-10)) == 1.0
        assert prob_at_least(1e308, g) == 0.0
        assert prob_at_most(1e308, g) == 1.0

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            range_prob(5.0, 4.0, Gaussian(4.5, 1.0))


class TestRatioForm:
    def test_matches_absolute_form(self):
        for r in (1.0, 1.2, 1.5, 2.0, 3.0):
            for s in (0.1, 0.15, 0.2):
                for t in (1.0, T_BENCH, 1.981):
                    mu2 = 10.0
                    q = CompatQuery(Gaussian(mu2 * r, s * mu2 * r),
                                    Gaussian(mu2, s * mu2), d=t * s * mu2)
                    assert compat_prob_ratio_form(r, s, s, t) == \
                        pytest.approx(compat_prob(q), abs=1e-12)

    def test_sixteen_24_equals_24_36(self):
        p_a = compat_prob(CompatQuery(Gaussian(24.0, 2.4), Gaussian(16.0, 1.6),
                                      d=1.6))
        p_b = compat_prob(CompatQuery(Gaussian(36.0, 3.6), Gaussian(24.0, 2.4),
                                      d=2.4))
        assert p_a == pytest.approx(p_b, abs=1e-12)
        assert p_a == pytest.approx(compat_prob_ratio_form(1.5, 0.1, 0.1, 1.0),
                                    abs=1e-12)

    def test_equal_ages_reduce_to_same_age_form(self):
        for t in (0.5, 1.0, 2.0):
            assert compat_prob_ratio_form(1.0, 0.13, 0.13, t) == \
                pytest.approx(same_age_prob(t), abs=1e-12)

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ValueError):
            compat_prob_ratio_form(0.9, 0.1, 0.1, 1.0)
