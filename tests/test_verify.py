"""Truncation bound, error propagation, and the two oracles."""

import math
import random
import re
import statistics
import sys
import types

import pytest

from agecompat import compat, verify
from agecompat.compat import CompatQuery, compat_prob, same_age_prob
from agecompat.model import _SIGMA_MAX, Gaussian, gaussian_pdf
from agecompat.special import _clamp_unit, _phi
from agecompat.verify import (
    ErrorBudget,
    McEstimate,
    QuadratureError,
    error_propagation,
    error_ratio,
    error_ratio_bounds,
    mc_oracle,
    quad_oracle,
    slice_params,
    truncation_bound,
)
from agecompat.verify import _MAX_PANELS, _MC_CHUNK, _SEED_PANELS, _UNIT_ROWS, _Z_CUTS

PHI_MINUS_4 = 3.1671241833119924e-05


def _query(mu1, s1, mu2, s2, d):
    return CompatQuery(Gaussian(mu1, s1), Gaussian(mu2, s2), d=d)


def _units_of_r(mu1, s1, mu2, s2, d):
    """phi, gamma and delta of the Box-Muller transform in units of R = hypot(s1, s2)."""
    unit = math.hypot(s1, s2)
    return math.atan2(s2, s1), (mu1 - mu2) / unit, d / unit


def _float64_mc(q, samples, seed):
    """Reference sampler: every sample decided in float64 in units of R.  A
    chunk of m samples takes n = ceil(m/2) draws (r, theta); sample j is
    |r_j cos(theta_j + phi) + gamma| <= delta and sample n + j, j < m - n,
    the same with sin, with no float32 screen."""
    np = pytest.importorskip("numpy")
    phi, gamma, delta = _units_of_r(q.g1.mu, q.g1.sigma, q.g2.mu, q.g2.sigma, q.d)
    hits = 0
    done = 0
    chunk_idx = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        n = (m + 1) // 2
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(chunk_idx,))))
        u1 = 1.0 - rng.random(n)
        u2 = rng.random(n)
        r = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2 + phi
        x = np.concatenate((r * np.cos(angle), (r * np.sin(angle))[:m - n]))
        hits += int(np.count_nonzero(np.abs(x + gamma) <= delta))
        done += m
        chunk_idx += 1
    est = hits / samples
    return McEstimate(est, math.sqrt(est * (1.0 - est) / samples))


class TestSliceParams:
    def test_symmetric_reduction(self):
        # equal profiles at zero offset: mean mu, width sigma/sqrt(2)
        sp = slice_params(Gaussian(20.0, 2.0), Gaussian(20.0, 2.0), 0.0)
        assert sp.mu12 == pytest.approx(20.0, rel=1e-15)
        assert sp.sigma12 == pytest.approx(2.0 / math.sqrt(2.0), rel=1e-15)

    def test_width_below_both_sigmas(self):
        for s1, s2 in ((1.0, 3.0), (2.5, 0.7), (4.0, 4.0)):
            sp = slice_params(Gaussian(30.0, s1), Gaussian(25.0, s2), 1.0)
            assert sp.sigma12 <= min(s1, s2)

    @pytest.mark.parametrize("s1, s2", [(1e200, 1e-200), (1e-200, 1e200)])
    def test_far_apart_sigmas_keep_a_positive_width(self, s1, s2):
        # formed as (sigma2 / R) sigma1, the width underflowed to 0 with the
        # larger sigma first, and truncation_bound divided by it
        g1, g2 = Gaussian(10.0, s1), Gaussian(10.0, s2)
        assert slice_params(g1, g2, 1e-200).sigma12 == 1e-200
        assert truncation_bound(CompatQuery(g1, g2, t=1.0)).worst_slice == 0.0

    def test_overflowing_gap_describes_the_arguments(self):
        g1, g2 = Gaussian(-1e308, 1.0), Gaussian(1e308, 1.0)
        message = (f"slice_params cannot place the slice x2 = x1 + 1.0 of {g1!r} and {g2!r}: "
                   f"the gap mu1 - mu2 = -inf overflows")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            slice_params(g1, g2, 1.0)
        with pytest.raises(ValueError, match="^slice_params cannot place"):
            truncation_bound(CompatQuery(g1, g2, d=1.0))

    @pytest.mark.parametrize("g1, g2, delta", [
        (Gaussian(0.0, 1e-300), Gaussian(0.0, 1e-300), 1e308),  # delta/R overflows
        (Gaussian(1.7e308, 0.5), Gaussian(0.0, 0.5), 0.5),  # the gap over R < 1 does
    ])
    def test_overflowing_z_describes_the_arguments(self, g1, g2, delta):
        unit = math.hypot(g1.sigma, g2.sigma)
        message = (f"slice_params cannot place the slice x2 = x1 + {delta!r} of {g1!r} "
                   f"and {g2!r}: z = (mu1 - mu2 + delta)/R = inf overflows, "
                   f"with R = hypot(sigma1, sigma2) = {unit!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            slice_params(g1, g2, delta)

    def test_overflowing_mu12_named(self):
        # z = 1 and w1 = 1 are finite; mu12 = -1.7e308 - 1e308 is not
        g1, g2 = Gaussian(-1.7e308, 1e308), Gaussian(-1.7e308, 1.0)
        message = (f"slice_params cannot place the slice x2 = x1 + 1e+308 of {g1!r} "
                   f"and {g2!r}: mu12 = mu1 - z w1 sigma1 = -inf overflows, "
                   f"with z = 1.0 and w1 = sigma1/R = 1.0")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            slice_params(g1, g2, 1e308)

    def test_truncation_bound_refuses_an_overflowing_z(self):
        # the true mu12 is 8.5e307 and the worst slice 0; an infinite z
        # would give mu12 = -inf and a worst slice of 1
        q = CompatQuery(Gaussian(1.7e308, 0.5), Gaussian(0.0, 0.5), d=0.5)
        with pytest.raises(ValueError, match="^slice_params cannot place"):
            truncation_bound(q)


def _mp_certificates(q, budget):
    """The worst slice Phi(-mu12/sigma12) and error_propagation's dp at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        mu1, s1, mu2, s2, d = map(mpmath.mpf, (q.g1.mu, q.g1.sigma, q.g2.mu, q.g2.sigma, q.d))
        unit = mpmath.sqrt(s1 ** 2 + s2 ** 2)
        zp, zm = (mu1 - mu2 + d) / unit, (mu1 - mu2 - d) / unit
        worst = mpmath.ncdf(-(mu1 - zp * s1 / unit * s1) / (max(s1, s2) / unit * min(s1, s2)))
        ep, em = mpmath.npdf(zp), mpmath.npdf(zm)
        dp = (budget.d_err * (ep + em) + (s1 * budget.sigma1_err + s2 * budget.sigma2_err)
              / unit * abs(zp * ep - zm * em)) / unit
        return float(worst), float(dp)


# positive ages whose g + d, or g - d once swapped, overflows while p is finite
OVERFLOWING_SUM = [
    _query(1.7e308, 1e308, 1.0, 1e308, d=1e308),
    _query(1.0, 1e308, 1.7e308, 1e308, d=1e308),
]


class TestTruncationBound:
    def test_overflowing_sum_within_1e_15_of_mpmath(self):
        # z+ is taken as g/R + d/R; mpmath gives 0.310309
        q = OVERFLOWING_SUM[0]
        want = _mp_certificates(q, ErrorBudget(0.0, 0.0, 0.0))[0]
        assert truncation_bound(q).worst_slice == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_overflowing_mu12_takes_its_limit(self):
        # mu12 is about -2.7e308 and sigma12 = 1, so the worst slice is 1
        q = CompatQuery(Gaussian(-1.7e308, 1e308), Gaussian(-1.7e308, 1.0), d=1e308)
        assert truncation_bound(q).worst_slice == 1.0

    def test_overflowing_mu12_within_1e_15_of_mpmath(self):
        # mu12 is about -2.2e308 and sigma12 8.5e307: an infinite mu12 would
        # give a worst slice of 1, and mpmath gives 0.995239
        q = CompatQuery(Gaussian(-1.7e308, 1.2e308), Gaussian(-1.7e308, 1.2e308), d=1e308)
        want = _mp_certificates(q, ErrorBudget(0.0, 0.0, 0.0))[0]
        assert truncation_bound(q).worst_slice == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_four_sigma_yardstick(self):
        # younger profile has mu = 5 sigma and d = sigma
        q = _query(10.0, 2.0, 5.0, 1.0, d=1.0)
        bound = truncation_bound(q)
        assert bound.loose == pytest.approx(PHI_MINUS_4, rel=1e-12)
        assert bound.loose == pytest.approx(3.167e-5, abs=1e-8)

    def test_high_school_pair_negligible(self):
        q = _query(18.0, 1.8, 14.0, 1.4, d=1.4)
        bound = truncation_bound(q)
        assert bound.loose < 1e-18
        assert bound.worst_slice < bound.loose

    def test_worst_slice_is_at_positive_offset(self):
        q = _query(12.0, 1.5, 10.0, 1.2, d=1.2)
        sp_hi = slice_params(q.g1, q.g2, q.d)
        from agecompat.special import normal_cdf
        assert truncation_bound(q).worst_slice == pytest.approx(
            normal_cdf(-sp_hi.mu12 / sp_hi.sigma12), rel=1e-14)
        # interior offsets give smaller per-slice ratios
        for delta in (-q.d, 0.0, 0.5 * q.d):
            sp = slice_params(q.g1, q.g2, delta)
            assert normal_cdf(-sp.mu12 / sp.sigma12) <= \
                truncation_bound(q).worst_slice

    @pytest.mark.parametrize("d, want", [(1e-300, (0.0, 0.0)), (20.0, (0.0, 1.0))])
    def test_tiny_sigmas_give_the_exact_limits(self, d, want):
        # mu12/sigma12 and (mu - d)/sigma are of order 1e301, far beyond any Phi argument
        bound = truncation_bound(_query(18.0, 1e-300, 14.0, 1e-300, d=d))
        assert tuple(bound) == want

    def test_monotone_in_age_to_sigma_ratio(self):
        bounds = []
        for ratio in (3.0, 4.0, 5.0, 7.0):
            q = _query(2.0 * ratio, 2.0, ratio, 1.0, d=1.0)
            bounds.append(truncation_bound(q).loose)
        assert all(a > b for a, b in zip(bounds, bounds[1:]))


class TestErrorPropagation:
    @pytest.mark.parametrize("budget", [(math.nan, 0.1, 0.1), (0.1, math.nan, 0.1),
                                        (0.1, 0.1, math.nan), (0.1, -0.1, 0.1)])
    def test_budget_rejects_negative_or_nan(self, budget):
        with pytest.raises(ValueError):
            ErrorBudget(*budget)

    def test_zero_budget(self):
        q = _query(20.0, 2.5, 17.0, 1.9, d=1.5)
        assert error_propagation(q, ErrorBudget(0.0, 0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("q, budget, value", [
        # dd / R * pdf(0) with R = 0.042 leaves the float range
        pytest.param(_query(18.0, 0.03, 16.0, 0.03, d=2.0), ErrorBudget(1e308, 1e308, 1e308),
                     "inf", id="2.0-inf"),
        # at d = 0 the sigma channel is an overflowing w1 ds1 + w2 ds2 times zero
        pytest.param(_query(18.0, 2.7, 14.0, 2.7, d=0.0), ErrorBudget(0.0, 1.7e308, 1.7e308),
                     "nan", id="0.0-nan"),
    ])
    def test_overflowing_uncertainty_names_the_result(self, q, budget, value):
        message = f"uncertainty of p is {value}, not finite: the inputs are too extreme"
        with pytest.raises(ValueError, match=f"^{message}$"):
            error_propagation(q, budget)

    @pytest.mark.parametrize("q", OVERFLOWING_SUM)
    def test_overflowing_sum_within_1e_12_of_mpmath(self, q):
        # z+- is taken as g/R +- d/R; dp = 3.4676e-310 is subnormal, so it
        # keeps only about 46 bits
        budget = ErrorBudget(0.1, 0.1, 0.1)
        want = _mp_certificates(q, budget)[1]
        assert error_propagation(q, budget) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert 3.4676e-310 < want < 3.4677e-310

    @pytest.mark.parametrize("mu1, mu2", [(-1e308, 1e308), (1e308, -1e308)])
    def test_overflowing_gap_gives_the_limit_zero(self, mu1, mu2):
        # mu1 - mu2 overflows, so z+- are infinite and pdf(z+-) is 0: z pdf(z)
        # is taken as its limit 0, not inf * 0.0 = nan, as p itself is 0
        q = _query(mu1, 1.0, mu2, 1.0, d=1.0)
        budget = ErrorBudget(0.1, 0.1, 0.1)
        assert compat_prob(q) == 0.0
        assert error_propagation(q, budget) == 0.0
        # the paper's ratio grows without bound in |mu1 - mu2|, and inf is its limit
        assert error_ratio(q, budget) == math.inf
        # at d = 0, a tanh(2 a b) is taken as its limit 0, not inf * tanh(0) = nan
        assert error_ratio(_query(mu1, 1.0, mu2, 1.0, d=0.0), budget) == 0.0

    def test_equal_means_reduction(self):
        # only the d-channel survives symmetric +-d exponents
        q = _query(20.0, 2.0, 20.0, 1.5, d=1.2)
        budget = ErrorBudget(0.01, 0.0, 0.0)
        s2sum = 2.0 ** 2 + 1.5 ** 2
        want = 0.01 * 2.0 * math.exp(-0.5 * 1.2 ** 2 / s2sum) / \
            math.sqrt(2.0 * math.pi * s2sum)
        assert error_propagation(q, budget) == pytest.approx(want, rel=1e-14)

    def test_matches_finite_differences(self):
        rng = random.Random(411)
        h = 1e-5
        for _ in range(50):
            mu1 = rng.uniform(10.0, 60.0)
            mu2 = rng.uniform(10.0, 60.0)
            s1 = rng.uniform(1.0, 6.0)
            s2 = rng.uniform(1.0, 6.0)
            d = rng.uniform(0.5, 6.0)
            budget = ErrorBudget(0.01, 0.01, 0.01)

            def p(dd=0.0, ds1=0.0, ds2=0.0):
                return compat_prob(_query(mu1, s1 + ds1, mu2, s2 + ds2, d + dd))

            fd = (abs(p(dd=h) - p(dd=-h)) / (2 * h) * budget.d_err
                  + abs(p(ds1=h) - p(ds1=-h)) / (2 * h) * budget.sigma1_err
                  + abs(p(ds2=h) - p(ds2=-h)) / (2 * h) * budget.sigma2_err)
            q = _query(mu1, s1, mu2, s2, d)
            assert error_propagation(q, budget) == pytest.approx(fd, abs=1e-6)

    def test_dominates_small_actual_perturbations(self):
        rng = random.Random(412)
        for _ in range(25):
            mu1 = rng.uniform(10.0, 60.0)
            mu2 = rng.uniform(10.0, 60.0)
            s1 = rng.uniform(1.0, 6.0)
            s2 = rng.uniform(1.0, 6.0)
            d = rng.uniform(0.5, 6.0)
            # small enough that the quadratic remainder sits inside the
            # 1e-8 slack of the first-order bound
            eps = 1e-5 * min(s1, s2)
            budget = ErrorBudget(eps, eps, eps)
            base = compat_prob(_query(mu1, s1, mu2, s2, d))
            moved = compat_prob(_query(mu1, s1 + eps, mu2, s2 + eps, d + eps))
            bound = error_propagation(_query(mu1, s1, mu2, s2, d), budget)
            assert abs(moved - base) <= bound + 1e-8


class TestErrorRatio:
    def test_equal_means_closed_form(self):
        q = _query(20.0, 2.0, 20.0, 1.5, d=1.2)
        budget = ErrorBudget(0.02, 0.01, 0.03)
        want = 1.2 * (2.0 * 0.01 + 1.5 * 0.03) / ((2.0 ** 2 + 1.5 ** 2) * 0.02)
        assert error_ratio(q, budget) == pytest.approx(want, rel=1e-14)

    def test_equal_means_matches_channel_quotient(self):
        q = _query(25.0, 2.2, 25.0, 1.7, d=2.0)
        budget = ErrorBudget(0.015, 0.015, 0.015)
        quotient = (error_propagation(q, ErrorBudget(0.0, 0.015, 0.015))
                    / error_propagation(q, ErrorBudget(0.015, 0.0, 0.0)))
        assert error_ratio(q, budget) == pytest.approx(quotient, rel=1e-12)

    def test_paper_form_differs_from_channel_quotient_at_unequal_means(self):
        # |a tanh(2ab) + b| against the channels' |b - a tanh(ab)|
        q = _query(22.0, 2.0, 20.0, 1.5, d=2.5)
        quotient = (error_propagation(q, ErrorBudget(0.0, 0.01, 0.01))
                    / error_propagation(q, ErrorBudget(0.01, 0.0, 0.0)))
        assert error_ratio(q, ErrorBudget(0.01, 0.01, 0.01)) == pytest.approx(2.432, abs=5e-4)
        assert quotient == pytest.approx(0.656, abs=5e-4)

    def test_zero_d_budget_rejected(self):
        q = _query(20.0, 2.0, 18.0, 1.5, d=1.2)
        with pytest.raises(ValueError):
            error_ratio(q, ErrorBudget(0.0, 0.01, 0.01))

    def test_stays_inside_printed_bounds(self):
        rng = random.Random(413)
        for _ in range(200):
            a = rng.uniform(1.0001, 4.0)
            b = rng.uniform(1.0001, 4.0)
            c = rng.uniform(1.0001, 4.0)
            sigma2 = rng.uniform(0.5, 3.0)
            sigma1 = c * sigma2
            mu2 = 40.0
            q = _query(mu2 + b * sigma1, sigma1, mu2, sigma2, d=a * sigma1)
            ratio = error_ratio(q, ErrorBudget(1.0, 1.0, 1.0))
            lo, hi = error_ratio_bounds(a, b, c)
            assert lo < ratio < hi


class TestScaleInvariance:
    """The certificates depend on the query only through (g +- d)/R and sigmai/R."""

    @pytest.mark.parametrize("lam", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    @pytest.mark.parametrize("mu1, s1, mu2, s2, d", [
        (18.0, 2.7, 14.0, 2.1, 2.0),
        (30.0, 4.5, 25.0, 3.75, 4.0),
        (40.0, 6.0, 32.0, 4.8, 5.0),
        (12.0, 1.5, 10.0, 1.2, 1.2),
    ])
    def test_scaled_copies_agree(self, mu1, s1, mu2, s2, d, lam):
        budget = (0.1, 0.05, 0.02)

        def certificates(scale):
            q = _query(mu1 * scale, s1 * scale, mu2 * scale, s2 * scale, d=d * scale)
            b = ErrorBudget(*(x * scale for x in budget))
            return (*truncation_bound(q), error_propagation(q, b), error_ratio(q, b))

        assert certificates(lam) == pytest.approx(certificates(1.0), rel=1e-13, abs=0.0)


class TestErrorRatioBounds:
    def test_direct_formula(self):
        assert error_ratio_bounds(2.0, 2.0, 2.0) == \
            (pytest.approx(4.0 / 3.0), pytest.approx(8.0))

    def test_rejects_parameters_at_or_below_one(self):
        with pytest.raises(ValueError):
            error_ratio_bounds(1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            error_ratio_bounds(2.0, 2.0, 0.5)

    def test_upper_bound_overflow_edge(self):
        # a + b = 2 + x rounds to x here, so 2*(a + b) overflows above half
        # the float maximum
        top = sys.float_info.max / 2.0
        for x in (math.nextafter(top, 0.0), top):
            assert all(math.isfinite(v) for v in error_ratio_bounds(x, 2.0, 2.0))
            assert all(math.isfinite(v) for v in error_ratio_bounds(2.0, x, 2.0))
        for a, b in ((math.nextafter(top, math.inf), 2.0), (2.0, math.nextafter(top, math.inf)),
                     (1e308, 1e308)):
            message = f"a={a!r} and b={b!r} are too large: the upper bound 2*(a + b) overflows"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                error_ratio_bounds(a, b, 2.0)
        assert all(math.isfinite(v) for v in error_ratio_bounds(2.0, 2.0, sys.float_info.max))

    def test_tanh_envelope(self):
        # x/(x+1) < tanh(x) < 1 on x > 0
        for i in range(1, 400):
            x = i / 40.0
            assert x / (x + 1.0) < math.tanh(x) < 1.0


def _rule(column):
    """Ascending nodes and weights of the rule in one column of the oracle's
    rows (x, w_K21, w_G10) on [-1, 1], leaving out the nodes it weighs 0."""
    rule = sorted((row[0], row[column]) for row in _UNIT_ROWS if row[column])
    return [x for x, _ in rule], [w for _, w in rule]


def _moment(k):
    return 2.0 / (k + 1) if k % 2 == 0 else 0.0


K21 = _rule(1)
G10 = _rule(2)


def _row_sums(f, a, b):
    """K21 estimate of f over [a, b] and |K21 - G10|, from the K21 and G10 rules."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    kronrod = math.fsum(h * w * f(c + h * x) for x, w in zip(*K21))
    gauss = math.fsum(h * w * f(c + h * x) for x, w in zip(*G10))
    return kronrod, abs(kronrod - gauss)


class TestGaussLegendreRule:
    """The panel rule: QUADPACK's G10/K21 Gauss-Kronrod pair.

    The 10-point Gauss-Legendre rule (G10) is exact through degree 19,
    and its 21-point Kronrod extension (K21) through degree 31; a panel
    returns the K21 estimate and |K21 - G10| as its error estimate.
    """

    def test_matches_numpy_leggauss(self):
        np = pytest.importorskip("numpy")
        nodes, weights = np.polynomial.legendre.leggauss(10)
        assert max(abs(a - float(b)) for a, b in zip(G10[0], nodes)) <= 4e-16
        assert max(abs(a - float(b)) for a, b in zip(G10[1], weights)) <= 2e-15

    @pytest.mark.parametrize("rule", [G10, K21], ids=["G10", "K21"])
    def test_symmetric_and_weights_sum_to_two(self, rule):
        nodes, weights = rule
        assert nodes == sorted(set(nodes))
        assert nodes == [-x for x in reversed(nodes)]
        assert weights == weights[::-1]
        assert math.fsum(weights) == pytest.approx(2.0, abs=4e-16)

    def test_kronrod_nodes_interleave_the_gauss_nodes(self):
        # every G10 node is a K21 node, and exactly one K21 node lies
        # between neighbors and beyond each end
        assert len(K21[0]) == 21
        assert K21[0][1::2] == G10[0]

    @pytest.mark.parametrize("k", range(20))
    def test_gauss_exact_through_degree_19(self, k):
        nodes, weights = G10
        got = math.fsum(w * x ** k for x, w in zip(nodes, weights))
        assert got == pytest.approx(_moment(k), abs=1e-15)

    @pytest.mark.parametrize("k", range(30))
    def test_panel_exact_through_degree_29(self, k):
        assert _row_sums(lambda x: x ** k, -1.0, 1.0)[0] == pytest.approx(_moment(k), abs=1e-15)

    @pytest.mark.parametrize("k", [30, 31])
    def test_panel_exact_through_degree_31(self, k):
        # K21 is exact through degree 3 * 10 + 1, two beyond the test above
        assert _row_sums(lambda x: x ** k, -1.0, 1.0)[0] == pytest.approx(_moment(k), abs=1e-15)

    def test_panel_error_estimate_is_the_gauss_error(self):
        # at degree 20, where K21 is still exact and G10 no longer is
        nodes, weights = G10
        g10 = math.fsum(w * x ** 20 for x, w in zip(nodes, weights))
        error = _row_sums(lambda x: x ** 20, -1.0, 1.0)[1]
        assert error == pytest.approx(abs(_moment(20) - g10), rel=1e-12)
        assert error > 1e-8


def _certify_queries(seed, n):
    """Queries drawn as the certify benchmark draws them: ages 15..80 at
    most 10 years apart, s in [0.1, 0.2], t in [1, 2]."""
    rng = random.Random(seed)
    for _ in range(n):
        a1 = rng.uniform(15.0, 80.0)
        a2 = min(80.0, max(15.0, a1 + rng.uniform(-10.0, 10.0)))
        s1, s2 = rng.uniform(0.1, 0.2), rng.uniform(0.1, 0.2)
        yield CompatQuery(Gaussian(a1, s1 * a1), Gaussian(a2, s2 * a2),
                          t=rng.uniform(1.0, 2.0))


class TestQuadOracle:
    def test_zero_window(self):
        q = _query(20.0, 2.0, 18.0, 1.5, d=0.0)
        assert quad_oracle(q) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("t", [1.0, 2.0 / math.sqrt(math.pi), 1.981])
    def test_same_age_closed_form(self, t):
        q = CompatQuery(Gaussian(30.0, 3.0), Gaussian(30.0, 3.0), d=t * 3.0)
        assert quad_oracle(q) == pytest.approx(same_age_prob(t), abs=1e-10)

    def test_matches_closed_form_on_small_grid(self):
        rng = random.Random(77)
        for _ in range(25):
            mu1 = rng.uniform(5.0, 90.0)
            mu2 = rng.uniform(5.0, 90.0)
            s1 = rng.uniform(0.05, 0.3) * mu1
            s2 = rng.uniform(0.05, 0.3) * mu2
            q = _query(mu1, s1, mu2, s2, d=rng.uniform(0.0, 3.0) * min(s1, s2))
            assert abs(quad_oracle(q) - compat_prob(q)) <= 1e-9

    def test_within_1e_15_of_mpmath(self):
        worst = max(_mp_error(q, quad_oracle(q))[0] for q in _certify_queries(2718, 200))
        assert worst <= 1e-15


def _mp_error(q, value):
    """|value - p| and p, with p from the convolution identity at 40 digits.

    p is taken on the lower tails, so a wide gap keeps its digits.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s = mpmath.sqrt(mpmath.mpf(q.g1.sigma) ** 2 + mpmath.mpf(q.g2.sigma) ** 2)
        g = abs(mpmath.mpf(q.g1.mu) - mpmath.mpf(q.g2.mu))
        ref = mpmath.ncdf((q.d - g) / s) - mpmath.ncdf((-q.d - g) / s)
        return float(abs(value - ref)), float(ref)


def _narrow_wide_pairs(seed, n):
    """(wider, narrower, d): the wider density as certify draws it; the
    narrower with 1e-9 to 1 times its sigma, its mean within 3 of those
    sigmas; d = t sigma_narrower with t from 0.5 to 2."""
    rng = random.Random(seed)
    for _ in range(n):
        mu = rng.uniform(15.0, 80.0)
        wide = Gaussian(mu, rng.uniform(0.1, 0.2) * mu)
        narrow = Gaussian(mu + rng.uniform(-3.0, 3.0) * wide.sigma,
                          10.0 ** rng.uniform(-9.0, 0.0) * wide.sigma)
        yield wide, narrow, rng.uniform(0.5, 2.0) * narrow.sigma


class QuadCost:
    """quad_oracle's work: its calls of verify._erfc, two at each node of
    each panel it evaluates."""

    def __init__(self, monkeypatch):
        self.erfc = 0
        erfc = verify._erfc

        def counted_erfc(x):
            self.erfc += 1
            return erfc(x)

        monkeypatch.setattr(verify, "_erfc", counted_erfc)

    def take(self):
        """erfc calls since the last take."""
        calls, self.erfc = self.erfc, 0
        return calls


@pytest.fixture
def quad_cost(monkeypatch):
    return QuadCost(monkeypatch)


# the eight seed panels and nothing else: two erfc calls at each of 168 nodes
SEED_COST = 2 * 168


class TestQuadOracleOuterVariable:
    """The outer variable is the narrower density's, so no spike hides between nodes."""

    def test_any_sigma_ratio_in_eight_panels(self, quad_cost):
        for wide, narrow, d in _narrow_wide_pairs(1009, 150):
            for q in (CompatQuery(wide, narrow, d=d), CompatQuery(narrow, wide, d=d)):
                assert abs(quad_oracle(q) - compat_prob(q)) <= 1e-9, q
                assert quad_cost.take() == SEED_COST, q

    def test_swap_gives_the_same_float(self):
        for wide, narrow, d in _narrow_wide_pairs(1013, 150):
            if wide.sigma != narrow.sigma:
                assert (quad_oracle(CompatQuery(wide, narrow, d=d))
                        == quad_oracle(CompatQuery(narrow, wide, d=d)))

    @pytest.mark.parametrize("g1, g2, d", [
        # g1 outer missed 39% of the mass, and 22% at 115,061 panels
        (Gaussian(30.0, 5.0), Gaussian(28.1, 5e-4), 5e-4),
        (Gaussian(30.0, 5.0), Gaussian(33.0189, 1.667e-9), 3.01e-9),
    ])
    def test_narrow_second_density_within_1e_15_of_mpmath(self, g1, g2, d):
        for q in (CompatQuery(g1, g2, d=d), CompatQuery(g2, g1, d=d)):
            assert _mp_error(q, quad_oracle(q))[0] <= 1e-15

    @pytest.mark.parametrize("age", [30.0, 45.0, 60.0, 90.0])
    def test_far_gap_within_1e_13_relative_of_mpmath(self, age):
        # the younger density is the narrower, so the older one's window
        # lies in its upper tail, where the erfc difference keeps its digits
        q = CompatQuery(Gaussian(age, 0.1 * age), Gaussian(14.0, 1.4), t=1.0)
        error, ref = _mp_error(q, quad_oracle(q))
        assert error / ref <= 1e-13

    @pytest.mark.parametrize("older, rel", [
        (Gaussian(25.0, 1.0), 1e-13),
        (Gaussian(30.0, 1.2), 1e-9),
    ])
    def test_older_narrower_keeps_relative_accuracy(self, older, rel):
        # the narrower density is the older one, so the younger one's window
        # lies below every node: erfc(lo - b z) - erfc(hi - b z) differences
        # two values near 2 and was off by 2.2e-9 and 4.4e-5 relative
        q = CompatQuery(older, Gaussian(14.0, 1.4), t=1.0)
        error, ref = _mp_error(q, quad_oracle(q))
        assert error / ref <= rel


class TestQuadOracleBounds:
    @pytest.mark.parametrize("g1, g2", [
        (Gaussian(1e308, 1e307), Gaussian(1.5e308, 1e307)),
        (Gaussian(1.0, 1.7e307), Gaussian(1.5, 1e307)),
    ])
    def test_values_near_the_float_limit_integrate(self, g1, g2):
        q = CompatQuery(g1, g2, t=1.0)
        assert abs(quad_oracle(q) - compat_prob(q)) <= 1e-9

    def test_overflowing_window_describes_the_query(self):
        # the message gives the query and quad_oracle's own window
        q = CompatQuery(Gaussian(-1e308, 1.0), Gaussian(1e308, 1.0), t=1.0)
        message = (f"quad_oracle cannot integrate {q!r}: the inner density's window, "
                   f"(mu_in - mu_out -+ d)/(sqrt(2) sigma_in), is [inf, inf], which overflows")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            quad_oracle(q)


def _reached_names(func):
    """The functions of verify that func reaches by name, and every name
    their code uses."""
    reached, names, todo = set(), set(), [func]
    while todo:
        func = todo.pop()
        if func in reached:
            continue
        reached.add(func)
        codes = [func.__code__]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        for name in names:
            value = getattr(verify, name, None)
            if isinstance(value, types.FunctionType) and value.__module__ == verify.__name__:
                todo.append(value)
    return {f.__name__ for f in reached}, names


class TestQuadOracleIndependence:
    def test_never_names_the_closed_form(self):
        # the oracle certifies the closed form, so neither it nor any helper
        # it reaches may call the closed form or its kernels
        reached, names = _reached_names(quad_oracle)
        assert {"quad_oracle", "_bisect", "_erfc_sums", "_gauss_rows"} <= reached
        forbidden = {"compat_prob", "_cdf_diff", "_ratio_prob", "_phi", *compat.__all__}
        assert not names & forbidden


class TestQuadOracleCost:
    def test_eight_panels_per_query(self, quad_cost):
        for q in _certify_queries(3141, 50):
            quad_oracle(q)
            assert quad_cost.take() == SEED_COST, q

    @pytest.mark.parametrize("g1, g2", [
        (Gaussian(30.0, 5.0), Gaussian(33.0189, 1.667e-9)),
        (Gaussian(33.0189, 1.667e-9), Gaussian(30.0, 5.0)),
    ])
    def test_spike_that_ran_out_the_budget_takes_eight_panels(self, g1, g2, quad_cost):
        # integrated in years with the wide density outer, this spike 1.7e-9
        # wide was chased through 115,061 panels to a value 22% low; with
        # the narrower density outer the seed panels meet tol in either order
        q = CompatQuery(g1, g2, d=3.01e-9)
        assert _mp_error(q, quad_oracle(q))[0] <= 1e-15
        assert quad_cost.take() == SEED_COST

    @pytest.mark.parametrize("tol", [1e-11, 5e-324])
    def test_zero_window_is_exactly_zero_in_eight_panels(self, tol, quad_cost):
        # at d = 0 the inner factor's two erfc terms are the same call, so
        # every panel sums to 0.0 and stands, even where tol's share of a
        # panel underflows to 0
        for q in _certify_queries(1618, 20):
            q = CompatQuery(q.g1, q.g2, d=0.0)
            assert quad_oracle(q, tol=tol) == 0.0, q
            assert quad_cost.take() == SEED_COST, q


def _closure_integrand(g_out, g_in, d):
    """quad_oracle's integrand as it was first written, in years of the outer
    variable: gaussian_pdf times _phi(hi) - _phi(lo)."""

    def f(x):
        inner = _phi((x - g_in.mu + d) / g_in.sigma) - _phi((x - g_in.mu - d) / g_in.sigma)
        return gaussian_pdf(x, g_out) * inner
    return f


def _closure_oracle(q):
    """The closure integrated by mpmath.quad in the narrower density's
    standard units z on [-10, 10], split at quad_oracle's cuts, whose
    integral is p itself: dx = sigma_out dz."""
    mpmath = pytest.importorskip("mpmath")
    g_out, g_in = (q.g2, q.g1) if q.g2.sigma < q.g1.sigma else (q.g1, q.g2)
    f = _closure_integrand(g_out, g_in, q.d)
    with mpmath.workdps(20):
        total = mpmath.quad(lambda z: g_out.sigma * f(g_out.mu + g_out.sigma * float(z)),
                            [-10.0, *_Z_CUTS, 10.0])
    return _clamp_unit(float(total))


class TestQuadOracleIntegrand:
    """The folded integrand keeps the closure's estimates to the oracle's accuracy."""

    def test_within_1e_15_of_closure(self):
        rng = random.Random(2024)
        for _ in range(60):
            a1, a2 = rng.uniform(15.0, 80.0), rng.uniform(15.0, 80.0)
            s1, s2 = rng.uniform(0.1, 0.2), rng.uniform(0.1, 0.2)
            q = CompatQuery(Gaussian(a1, s1 * a1), Gaussian(a2, s2 * a2),
                            t=rng.uniform(0.5, 2.5))
            assert abs(quad_oracle(q) - _closure_oracle(q)) <= 1e-15, q

    def test_seed_panels_match_rows(self):
        # each seed panel's row sums are the K21 and |K21 - G10| of
        # exp(-z*z/2) v(z) by the K21 and G10 rules, for the inner factor v of
        # certify-style queries
        for q in _certify_queries(577, 20):
            g_out, g_in = (q.g2, q.g1) if q.g2.sigma < q.g1.sigma else (q.g1, q.g2)
            scale = math.sqrt(2.0) * g_in.sigma
            lo, hi = (g_in.mu - g_out.mu - q.d) / scale, (g_in.mu - g_out.mu + q.d) / scale
            b = g_out.sigma / scale

            def inner(z):
                return math.erfc(lo - b * z) - math.erfc(hi - b * z)

            for z_lo, z_hi, rows in _SEED_PANELS:
                assert len(rows) == 21
                kronrod = math.fsum(wk * inner(z) for z, wk, _ in rows)
                gauss = math.fsum(wg * inner(z) for z, _, wg in rows)
                want, error = _row_sums(lambda z: math.exp(-0.5 * z * z) * inner(z), z_lo, z_hi)
                assert abs(kronrod - want) <= 4 * math.ulp(want), (q, z_lo)
                assert abs(abs(kronrod - gauss) - error) <= 4 * math.ulp(want), (q, z_lo)
        edges = (-10.0, *_Z_CUTS, 10.0)
        assert [panel[:2] for panel in _SEED_PANELS] == list(zip(edges, edges[1:]))

    def test_failed_seed_panels_are_bisected_to_tol(self, quad_cost):
        # at tol = 1e-14 seed panels miss their share ([0, 2] and [4, 8] with
        # glibc's erfc), so they are bisected; the rest stand
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.7)
        quad_oracle(q)
        assert quad_cost.take() == SEED_COST
        got = quad_oracle(q, tol=1e-14)
        assert quad_cost.take() > SEED_COST
        assert abs(got - _closure_oracle(q)) <= 1e-14

    @pytest.mark.parametrize("tol", [1e-17, 1e-300, 5e-324])
    def test_unmeetable_tol_raises_quadrature_error(self, tol, quad_cost):
        # one budget of 10,000 panels for the call; at 5e-324 a panel's
        # share of tol underflows to 0, and is still no bad argument
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.7)
        with pytest.raises(QuadratureError,
                           match=r"^no convergence on \[-10\.0, 10\.0\] within 10000 panels$"):
            quad_oracle(q, tol=tol)
        assert quad_cost.take() == 2 * 21 * _MAX_PANELS

    @pytest.mark.parametrize("d, tol", [
        (1.0, math.nan), (1.0, -1.0), (1.0, 0.0), (1.0, math.inf),
        # a zero window still checks tol
        (0.0, math.nan),
    ])
    def test_rejects_bad_tol_by_name(self, d, tol):
        q = _query(20.0, 2.0, 18.0, 1.5, d=d)
        with pytest.raises(ValueError, match="^tol must be finite and positive"):
            quad_oracle(q, tol=tol)

    def test_largest_tol_still_integrates(self):
        # the loop gets 2 sqrt(2 pi) tol, which would overflow above 3.6e307
        q = _query(20.0, 2.0, 18.0, 1.5, d=1.0)
        assert quad_oracle(q, tol=1.7e308) == quad_oracle(q, tol=1.0)


class TestMcOracle:
    def test_deterministic_per_seed(self):
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.7)
        a = mc_oracle(q, 10 ** 5, seed=42)
        b = mc_oracle(q, 10 ** 5, seed=42)
        assert a == b
        c = mc_oracle(q, 10 ** 5, seed=43)
        assert c.estimate != a.estimate

    def test_stream_canary(self):
        # pinned estimate: guards the fixed-stream contract (PCG64, and one
        # two-uniform draw per two samples, both Box-Muller variates used, so
        # the stream position is sample-count only)
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.7)
        assert mc_oracle(q, 10 ** 5, seed=42).estimate == 0.32726

    def test_chunking_invariant(self):
        # crossing the chunk boundary must not disturb earlier draws
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.7)
        small = mc_oracle(q, (1 << 19) + 1000, seed=9)
        assert 0.0 < small.estimate < 1.0

    def test_brackets_benchmark_value(self):
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.0 / math.sqrt(math.pi) * 2.4)
        est, se = mc_oracle(q, 10 ** 6, seed=42)
        assert abs(est - compat_prob(q)) <= 3.0 * se

    def test_unbiased_across_queries(self):
        # one call per query, with seed i for query i: the z-scores of the
        # estimates against the closed form centre on 0 with unit spread
        zs = []
        for seed, q in enumerate(_certify_queries(1958, 400)):
            est, se = mc_oracle(q, 20_000, seed)
            zs.append((est - compat_prob(q)) / se)
        assert abs(statistics.fmean(zs)) <= 0.2
        assert 0.85 <= statistics.stdev(zs) <= 1.15

    def test_zero_window_never_hits(self):
        q = _query(20.0, 2.0, 18.0, 1.5, d=0.0)
        assert mc_oracle(q, 10 ** 4, seed=1).estimate == 0.0

    def test_stderr_scaling(self):
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.7)
        one = mc_oracle(q, 10 ** 5, seed=11)
        two = mc_oracle(q, 2 * 10 ** 5, seed=11)
        assert two.stderr == pytest.approx(one.stderr / math.sqrt(2.0), rel=0.05)

    def test_sample_floor(self):
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.7)
        with pytest.raises(ValueError, match=r"^samples must be >= 10000, got 9999$"):
            mc_oracle(q, 9999, seed=1)

    @pytest.mark.parametrize("samples, seed, message", [
        (math.nan, 1, "samples must be an integer, got nan"),
        # at a sample count of inf the chunk loop would never end
        (math.inf, 1, "samples must be an integer, got inf"),
        (1e5, 1, "samples must be an integer, got 100000.0"),
        ("20000", 1, "samples must be an integer, got '20000'"),
        (20_000, None, "seed must be an integer, got None"),
        (20_000, 1.5, "seed must be an integer, got 1.5"),
        (20_000, -1, "seed must be >= 0, got -1"),
    ])
    def test_rejects_arguments_by_name(self, samples, seed, message):
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.7)
        with pytest.raises(ValueError) as info:
            mc_oracle(q, samples, seed)
        assert str(info.value) == message

    def test_accepts_numpy_integers(self):
        np = pytest.importorskip("numpy")
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.7)
        assert (mc_oracle(q, np.int64(10 ** 5), np.uint32(42))
                == mc_oracle(q, 10 ** 5, 42))


class TestFloat64Transform:
    """The oracle gives the float64 Box-Muller transform's estimates, in units of R."""

    def test_same_estimates_as_float64_transform(self):
        rng = random.Random(90210)
        for _ in range(60):
            mu1 = rng.uniform(15.0, 80.0)
            mu2 = min(80.0, max(15.0, mu1 + rng.uniform(-10.0, 10.0)))
            s1, s2 = rng.uniform(0.1, 0.2) * mu1, rng.uniform(0.1, 0.2) * mu2
            q = _query(mu1, s1, mu2, s2, d=rng.uniform(1.0, 2.0) * min(s1, s2))
            seed = rng.getrandbits(32)
            # an odd count leaves the last draw's sin sample unused
            for samples in (20_000, 20_001):
                assert mc_oracle(q, samples, seed) == _float64_mc(q, samples, seed)

    @pytest.mark.parametrize("samples", [_MC_CHUNK + 1000, _MC_CHUNK + 1001])
    def test_same_estimate_across_a_chunk_boundary(self, samples):
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.7)
        assert mc_oracle(q, samples, 9) == _float64_mc(q, samples, 9)

    def test_sin_samples_independent_of_cos_samples(self):
        # draw j's sin sample is the person pair (z2, -z1) of its cos sample's
        # (z1, z2), independent of it, so the estimates spread by the binomial
        # stderr; a sin half that repeated the cos half would spread 1.41 times it
        np = pytest.importorskip("numpy")
        q = _query(20.0, 3.0, 18.0, 2.4, d=2.95)
        p = compat_prob(q)
        assert 0.49 < p < 0.5
        estimates = [mc_oracle(q, 20_000, seed).estimate for seed in range(300)]
        ratio = np.std(estimates, ddof=1) / math.sqrt(p * (1.0 - p) / 20_000)
        assert 0.8 < ratio < 1.2


class TestMcOracleAtTheFloatLimits:
    """In units of R, queries at the edges of the float range are sampled right."""

    @pytest.mark.parametrize("mu1, s1, mu2, s2, d", [
        # x1 and x2 in years, of order 1e300, would round by far more than
        # the spread, or overflow
        (1e300, 3.0, 1e300, 2.4, 2.7),
        (1.5e308, 1e307, 1.5e308, 1e307, 1e307),
        (1.0, 7e307, 1.0, 7e307, 1e308),
        # sigmas at Gaussian's bound: x1 and x2 in years would overflow
        (1.0, _SIGMA_MAX, 1.0, _SIGMA_MAX, 1e308),
        # R a subnormal float64, and the least subnormal: x1 - x2 in years
        # would round by a sizeable share of R
        (1e-309, 1e-310, 1.2e-309, 1e-310, 1e-310),
        (5e-324, 5e-324, 1e-323, 5e-324, 5e-324),
    ])
    def test_within_5_standard_errors_of_the_closed_form(self, mu1, s1, mu2, s2, d):
        q = _query(mu1, s1, mu2, s2, d)
        p = compat_prob(q)
        for seed in (0, 1, 2):
            est, se = mc_oracle(q, 20_000, seed)
            assert abs(est - p) <= 5.0 * se, (seed, est, p)

    @pytest.mark.parametrize("g1, g2, d", [
        # the gap and d are finite, but the gap overflows in units of R
        (Gaussian(1e300, 1e-10), Gaussian(0.0, 1e-10), 1e297),
        # the gap itself overflows
        (Gaussian(-1e308, 1.0), Gaussian(1e308, 1.0), 1.0),
    ])
    def test_overflowing_gap_describes_the_query(self, g1, g2, d):
        q = CompatQuery(g1, g2, d=d)
        unit = math.hypot(g1.sigma, g2.sigma)
        message = (f"mc_oracle cannot sample {q!r}: the gap and d in units of R = "
                   f"hypot(sigma1, sigma2), (mu1 - mu2)/R and d/R, are "
                   f"{(g1.mu - g2.mu) / unit!r} and {d / unit!r}, and one overflows")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mc_oracle(q, 20_000, 0)


def _screen_draws(n):
    """ln v, v = 1 - u1, and theta for n pairs as mc_oracle draws them, with
    the largest r first (u1 = 1 - 2**-53) and r = 0 second (u1 = 0)."""
    np = pytest.importorskip("numpy")
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=1958, spawn_key=(0,))))
    log_v = np.log(1.0 - rng.random(n))
    log_v[:2] = (math.log(2.0 ** -53), 0.0)
    return log_v, 2.0 * np.pi * rng.random(n)


class TestFloat32Screen:
    """The oracle decides most hits with float32 trig and redoes the rest exactly."""

    def test_every_sample_refined_matches_exact_transform(self, monkeypatch):
        # a finite margin wider than any sample's spread decides nothing in
        # the screen, so the exact refinement runs on every sample of every chunk
        monkeypatch.setattr(verify, "_F32_ERR", 1.0)
        rng = random.Random(4711)
        for _ in range(100):
            mu1 = rng.uniform(15.0, 80.0)
            mu2 = min(80.0, max(15.0, mu1 + rng.uniform(-10.0, 10.0)))
            s1, s2 = rng.uniform(0.1, 0.2) * mu1, rng.uniform(0.1, 0.2) * mu2
            q = _query(mu1, s1, mu2, s2, d=rng.uniform(1.0, 2.0) * min(s1, s2))
            seed = rng.getrandbits(32)
            for samples in (20_000, 20_001):
                assert mc_oracle(q, samples, seed) == _float64_mc(q, samples, seed)

    @pytest.mark.parametrize("q, samples", [
        (_query(20.0, 2.0, 18.0, 1.5, d=0.0), 20_000),
        # means near the float limit: gamma and delta are of order 1 in
        # units of R, so the screen runs
        (_query(1e300, 3.0, 1e300, 2.4, d=2.7), 20_000),
        (_query(1e300, 1e299, 1.1e300, 2e299, d=1e299), 20_000),
        (_query(20.0, 1e-9, 20.0 + 1e-9, 2e-9, d=1.5e-9), 20_000),
        (_query(20.0, 2e3, 30.0, 2e3, d=2e3), 20_000),
        (_query(20.0, 3.0, 16.0, 2.4, d=2.7), 10 ** 6),
        (_query(1.5e308, 1e307, 1.5e308, 1e307, d=1e307), 10 ** 5),
        # R = hypot(sigma1, sigma2) just above and just below the least
        # normal float32, and large sigmas
        (_query(1e-37, 1e-38, 1.2e-37, 1e-38, d=1e-38), 20_000),
        (_query(1e-37, 8e-39, 1.2e-37, 8e-39, d=1e-38), 20_000),
        (_query(1e37, 9e36, 1.2e37, 9e36, d=4e36), 20_000),
        (_query(1e37, 1e37, 1.2e37, 1e37, d=4e36), 20_000),
        # small means, with sigmas up to Gaussian's bound
        (_query(1.0, 7e307, 1.0, 7e307, d=1e308), 20_000),
        (_query(1.0, _SIGMA_MAX, 1.0, _SIGMA_MAX, d=1e308), 20_000),
        # R a subnormal float64, and the least subnormal
        (_query(1e-309, 1e-310, 1.2e-309, 1e-310, d=1e-310), 20_000),
        (_query(5e-324, 5e-324, 1e-323, 5e-324, d=5e-324), 20_000),
        # the screen's scale in units of R just below and just above 2**127,
        # and a screen that decides every pair a hit
        (_query(20.0, 1e-37, 3.0, 1e-37, d=1e-37), 20_000),
        (_query(30.0, 1e-37, 3.0, 1e-37, d=1e-37), 20_000),
        (_query(10.0, 1e-37, 3.0, 1e-37, d=8.0), 20_000),
    ])
    def test_edge_queries_match_exact_transform(self, q, samples):
        for seed in (0, 1, 2):
            assert mc_oracle(q, samples, seed) == _float64_mc(q, samples, seed)

    @pytest.mark.parametrize("q", [
        # |gamma| = delta near 1e300 in units of R, and 1e-15 relative to
        # either side of it
        _query(7e299, 1.0, 0.0, 1.0, d=7e299),
        _query(7e299, 1.0, 0.0, 1.0, d=7e299 * (1.0 - 1e-15)),
        _query(7e299, 1.0, 0.0, 1.0, d=7e299 * (1.0 + 1e-15)),
        # |gamma| past 2**127 with a small delta, of either sign
        _query(1e39, 1.0, 0.0, 1.0, d=1.0),
        _query(0.0, 1.0, 1e39, 1.0, d=1.0),
        # delta past 2**127 with a small |gamma|
        _query(20.0, 1.0, 18.0, 1.0, d=1e39),
        # opposite-sign means
        _query(-1e200, 1.0, 1e200, 1.0, d=2e200),
        _query(-1e200, 1.0, 1e200, 1.0, d=1.9e200),
    ])
    def test_far_range_decided_as_exact_transform(self, q):
        # where the screen's scale reaches 2**127 every sample decides alike,
        # so the oracle returns 1.0 or 0.0 without sampling
        assert verify._screen_margin(q.g1.mu, q.g1.sigma, q.g2.mu, q.g2.sigma, q.d)[2] == math.inf
        for samples in (20_000, 20_001):
            for seed in (0, 1, 2):
                assert mc_oracle(q, samples, seed) == _float64_mc(q, samples, seed)

    def test_only_sampling_imports_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert mc_oracle(_query(20.0, 1.0, 18.0, 1.0, d=1e39), 20_000, 0) == McEstimate(1.0, 0.0)
        with pytest.raises(ImportError):
            mc_oracle(_query(20.0, 3.0, 16.0, 2.4, d=2.7), 20_000, 0)

    def test_pairs_on_the_boundary_decided_as_exact_transform(self, monkeypatch):
        # draws crafted so that the exact |r cos(theta + phi) + gamma| of the
        # first half and |r sin(theta + phi) + gamma| of the second lie within
        # rounding of delta (gamma = 0 here): the float32 screen alone would
        # get about half of those samples wrong
        np = pytest.importorskip("numpy")
        q = _query(20.0, 3.0, 20.0, 2.4, d=2.7)
        phi, _, delta = _units_of_r(20.0, 3.0, 20.0, 2.4, 2.7)
        samples = 20_000
        n = samples // 2
        rng = np.random.default_rng(7)
        u1, u2 = [], []
        for trig in (np.cos, np.sin):
            v = rng.random(4 * n)
            r = delta / np.abs(trig(2.0 * np.pi * v + phi))
            keep = (0.5 < r) & (r < 8.0)
            u2.append(v[keep][:n // 2])
            u1.append(np.exp(-0.5 * r[keep][:n // 2] ** 2))
        u1, u2 = np.concatenate(u1), np.concatenate(u2)
        assert u2.size == n

        class Draws:
            # stands in for numpy's Generator: the chunk's 1 - u1, then u2, as
            # two calls of size n or as the rows of one (2, n) out
            def __init__(self, bit_generator):
                self.draws = iter((1.0 - u1, u2))

            def random(self, size=None, out=None):
                if out is None:
                    return next(self.draws).copy()
                out[...] = (1.0 - u1, u2)
                return out

        monkeypatch.setattr(np.random, "Generator", Draws)
        exact = _float64_mc(q, samples, 0)
        assert 0.1 < exact.estimate < 0.9
        assert mc_oracle(q, samples, 0) == exact

    def test_screen_decides_all_but_a_few_samples(self, monkeypatch):
        # an inf or needlessly wide margin passes every identity test above,
        # but sends the samples through the float64 transform; its float64
        # cos and sin each see every sample that the screen leaves undecided,
        # 67 of 4e6 here (134 counted), while the screen's cos and sin are float32
        np = pytest.importorskip("numpy")
        refined = 0

        def counting(trig):
            def call(x, *args, **kwargs):
                nonlocal refined
                if x.dtype == np.float64:
                    refined += x.size
                return trig(x, *args, **kwargs)
            return call
        monkeypatch.setattr(np, "cos", counting(np.cos))
        monkeypatch.setattr(np, "sin", counting(np.sin))
        for seed, q in enumerate(_certify_queries(1618, 200)):
            mc_oracle(q, 20_000, seed)
        assert refined <= 1e-4 * 200 * 20_000

    def test_float32_trig_within_half_the_bound(self):
        # the margin allows _TRIG32_ERR per unit r; half of it must cover
        # float32 cos and sin of float32(theta + phi), theta + phi in
        # [0, 2 pi + pi/2), on this platform
        np = pytest.importorskip("numpy")
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=2021, spawn_key=(0,))))
        x = 2.5 * np.pi * rng.random(1 << 19)
        x[:7] = (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, 2.0 * np.pi, 2.5 * np.pi,
                 np.nextafter(2.5 * np.pi, 0.0))
        x32 = x.astype(np.float32)
        for trig in (np.cos, np.sin):
            assert np.max(np.abs(trig(x32) - trig(x))) <= verify._TRIG32_ERR / 2

    @pytest.mark.parametrize("mu1, s1, mu2, s2, d", [
        (20.0, 3.0, 16.0, 2.4, 2.7),
        # mu1 - mu2 is not a float32 and dwarfs the spread, so the float32
        # rounding far exceeds the margin's other terms
        (80.3, 0.01, 15.1, 0.01, 65.2),
        (20.0, 1e-9, 20.0 + 1e-9, 2e-9, 1.5e-9),
        (1e-37, 1e-38, 1.2e-37, 1e-38, 1e-38),
        (1e37, 9e36, 1.2e37, 9e36, 4e36),
        # R below the least normal float32, and R a subnormal float64
        (1e-37, 8e-39, 1.2e-37, 8e-39, 1e-38),
        (1e-309, 1e-310, 1.2e-309, 1e-310, 1e-310),
    ])
    def test_screen_within_half_the_margin(self, mu1, s1, mu2, s2, d):
        # the float32 screen's |r cos(theta + phi) + gamma| and |r sin(theta +
        # phi) + gamma| lie within half the margin of the float64 transform's,
        # on draws as mc_oracle makes them
        np = pytest.importorskip("numpy")
        gamma, delta, margin = verify._screen_margin(mu1, s1, mu2, s2, d)
        assert margin < math.inf
        phi, want_gamma, want_delta = _units_of_r(mu1, s1, mu2, s2, d)
        assert (gamma, delta) == (want_gamma, want_delta)
        n = 1 << 19
        log_v, theta = _screen_draws(n)
        screened = verify._screen(log_v, theta + phi, gamma, np.empty((4, n), np.float32))
        r = np.sqrt(-2.0 * log_v)
        for row, trig in zip(screened, (np.cos, np.sin)):
            exact = np.abs(r * trig(theta + phi) + gamma)
            assert np.max(np.abs(row.astype(np.float64) - exact)) <= margin / 2

    def test_float32_radius_within_one_and_a_half_ulp(self):
        # with theta = phi = gamma = 0 the screen's cos row is its float32 r,
        # sqrt(float32(-2 ln v)): rounding to float32 costs 2**-24 relative,
        # halved by the square root, which rounds by 2**-24 more
        np = pytest.importorskip("numpy")
        n = 1 << 19
        log_v = _screen_draws(n)[0]
        screened = verify._screen(log_v, np.zeros(n), 0.0, np.empty((4, n), np.float32))
        r32 = screened[0].astype(np.float64)
        r = np.sqrt(-2.0 * log_v)
        assert r[0] > 8.57 and r32[1] == r[1] == 0.0
        assert np.all(np.abs(r32 - r) <= 1.5 * 2.0 ** -24 * r)
