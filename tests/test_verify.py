"""Truncation bound, error propagation, and the two oracles."""

import math
import random
import re

import pytest

from agecompat import verify
from agecompat.compat import CompatQuery, compat_prob, same_age_prob
from agecompat.model import Gaussian, gaussian_pdf
from agecompat.special import _clamp_unit, _phi
from agecompat.verify import (
    ErrorBudget,
    McEstimate,
    QuadratureError,
    error_propagation,
    error_ratio,
    error_ratio_bounds,
    integrate,
    mc_oracle,
    quad_oracle,
    slice_params,
    truncation_bound,
)
from agecompat.verify import (_G10_NODES, _G10_WEIGHTS, _K21_CENTER_WEIGHT,
                              _K21_GAUSS_WEIGHTS, _K21_NODES, _K21_WEIGHTS, _MC_CHUNK,
                              _panel)

PHI_MINUS_4 = 3.1671241833119924e-05


def _query(mu1, s1, mu2, s2, d):
    return CompatQuery(Gaussian(mu1, s1), Gaussian(mu2, s2), d=d)


def _two_call_mc(q, samples, seed):
    """Reference sampler: the Box-Muller transform with numpy.cos and numpy.sin.

    float64 throughout, with no float32 screen.
    """
    np = pytest.importorskip("numpy")
    hits = 0
    done = 0
    chunk_idx = 0
    while done < samples:
        n = min(_MC_CHUNK, samples - done)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(chunk_idx,))))
        u1 = 1.0 - rng.random(n)
        u2 = rng.random(n)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        x1 = q.g1.mu + q.g1.sigma * (r * np.cos(theta))
        x2 = q.g2.mu + q.g2.sigma * (r * np.sin(theta))
        hits += int(np.count_nonzero(np.abs(x1 - x2) <= q.d))
        done += n
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


class TestTruncationBound:
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


class TestErrorRatioBounds:
    def test_direct_formula(self):
        assert error_ratio_bounds(2.0, 2.0, 2.0) == \
            (pytest.approx(4.0 / 3.0), pytest.approx(8.0))

    def test_rejects_parameters_at_or_below_one(self):
        with pytest.raises(ValueError):
            error_ratio_bounds(1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            error_ratio_bounds(2.0, 2.0, 0.5)

    def test_tanh_envelope(self):
        # x/(x+1) < tanh(x) < 1 on x > 0
        for i in range(1, 400):
            x = i / 40.0
            assert x / (x + 1.0) < math.tanh(x) < 1.0


def _whole_rule(nodes, weights, center_weight=None):
    """Ascending nodes and weights on [-1, 1] from those of positive nodes."""
    half = sorted(zip(nodes, weights))
    center = [] if center_weight is None else [(0.0, center_weight)]
    rule = [(-x, w) for x, w in reversed(half)] + center + half
    return [x for x, _ in rule], [w for _, w in rule]


def _moment(k):
    return 2.0 / (k + 1) if k % 2 == 0 else 0.0


G10 = _whole_rule(_G10_NODES, _G10_WEIGHTS)
K21 = _whole_rule(_G10_NODES + _K21_NODES, _K21_GAUSS_WEIGHTS + _K21_WEIGHTS,
                  _K21_CENTER_WEIGHT)


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
        assert K21[0][1::2] == G10[0]

    @pytest.mark.parametrize("k", range(20))
    def test_gauss_exact_through_degree_19(self, k):
        nodes, weights = G10
        got = math.fsum(w * x ** k for x, w in zip(nodes, weights))
        assert got == pytest.approx(_moment(k), abs=1e-15)

    @pytest.mark.parametrize("k", range(30))
    def test_panel_exact_through_degree_29(self, k):
        assert _panel(lambda x: x ** k, -1.0, 1.0)[0] == pytest.approx(_moment(k), abs=1e-15)

    @pytest.mark.parametrize("k", [30, 31])
    def test_panel_exact_through_degree_31(self, k):
        # K21 is exact through degree 3 * 10 + 1, two beyond the test above
        assert _panel(lambda x: x ** k, -1.0, 1.0)[0] == pytest.approx(_moment(k), abs=1e-15)

    def test_panel_error_estimate_is_the_gauss_error(self):
        # at degree 20, where K21 is still exact and G10 no longer is
        nodes, weights = G10
        g10 = math.fsum(w * x ** 20 for x, w in zip(nodes, weights))
        error = _panel(lambda x: x ** 20, -1.0, 1.0)[1]
        assert error == pytest.approx(abs(_moment(20) - g10), rel=1e-12)
        assert error > 1e-8


class TestIntegrate:
    def test_polynomial_exact(self):
        got = integrate(lambda x: 3.0 * x * x, 0.0, 2.0, tol=1e-13)
        assert got == pytest.approx(8.0, rel=1e-13)

    def test_breakpoints_capture_narrow_bump(self):
        g = Gaussian(500.0, 0.5)
        got = integrate(lambda x: gaussian_pdf(x, g), 0.0, 1000.0, tol=1e-12,
                        breakpoints=[g.mu - 4 * g.sigma, g.mu, g.mu + 4 * g.sigma])
        assert got == pytest.approx(1.0, abs=1e-11)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)

    def test_empty_interval_never_calls_f(self):
        def f(x):
            raise AssertionError(f"f called at {x!r}")
        assert integrate(f, 2.0, 2.0) == 0.0

    @pytest.mark.parametrize("a, b, tol, message", [
        (0.0, math.nan, 1e-12, "b must be finite"),
        (math.nan, 1.0, 1e-12, "a must be finite"),
        (-math.inf, 0.0, 1e-12, "a must be finite"),
        (0.0, math.inf, 1e-12, "b must be finite"),
        (0.0, 1.0, math.nan, "tol must be finite and positive"),
        (0.0, 1.0, -1.0, "tol must be finite and positive"),
        (0.0, 1.0, 0.0, "tol must be finite and positive"),
        (0.0, 1.0, math.inf, "tol must be finite and positive"),
        (1.0, 1.0, math.nan, "tol must be finite and positive"),
    ])
    def test_rejects_arguments_by_name(self, a, b, tol, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            integrate(lambda x: x, a, b, tol=tol)

    def test_divergent_integrand_raises(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: math.sin(1.0 / (x + 1e-300)) / (x + 1e-12),
                      0.0, 1.0, tol=1e-14)


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
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for q in _certify_queries(2718, 200):
                # the convolution identity, exact at 40 digits
                s = mpmath.sqrt(mpmath.mpf(q.g1.sigma) ** 2 + mpmath.mpf(q.g2.sigma) ** 2)
                g = mpmath.mpf(q.g1.mu) - mpmath.mpf(q.g2.mu)
                ref = mpmath.ncdf((g + q.d) / s) - mpmath.ncdf((g - q.d) / s)
                worst = max(worst, float(abs(quad_oracle(q) - ref)))
        assert worst <= 1e-15


class TestQuadOracleBounds:
    @pytest.mark.parametrize("g1, g2, bounds", [
        (Gaussian(1e308, 1e307), Gaussian(1.5e308, 1e307), "[0.0, inf]"),
        (Gaussian(1.0, 1e307), Gaussian(1.5, 1.7e307), "[-1.7e+308, 1.7e+308]"),
    ])
    def test_overflowing_interval_describes_the_query(self, g1, g2, bounds):
        # integrate would reject the bound b, which the caller never passed
        message = (f"quad_oracle cannot integrate this query: its outer interval, "
                   f"10 sigma beyond both means (mu1={g1.mu!r}, mu2={g2.mu!r}, "
                   f"largest sigma={g2.sigma!r}), is {bounds}, whose width overflows")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            quad_oracle(CompatQuery(g1, g2, t=1.0))


class TestQuadOracleCost:
    def test_at_most_fifteen_panels_per_query(self, monkeypatch):
        # 21 integrand calls per panel; the 11 seed panels alone take 231
        counts = []

        def counting(f, *args, **kwargs):
            calls = 0

            def counted(x):
                nonlocal calls
                calls += 1
                return f(x)
            value = integrate(counted, *args, **kwargs)
            counts.append(calls)
            return value

        monkeypatch.setattr(verify, "integrate", counting)
        for q in _certify_queries(3141, 50):
            quad_oracle(q)
        assert len(counts) == 50
        assert max(counts) <= 315
        assert sum(counts) / len(counts) <= 240


def _closure_integrand(q):
    """quad_oracle's integrand as it was first written: gaussian_pdf times _phi(hi) - _phi(lo)."""
    g1, g2, d = q.g1, q.g2, q.d

    def f(x1):
        inner = _phi((x1 - g2.mu + d) / g2.sigma) - _phi((x1 - g2.mu - d) / g2.sigma)
        return gaussian_pdf(x1, g1) * inner
    return f


class TestQuadOracleIntegrand:
    """The folded integrand keeps the closure's estimates to the oracle's accuracy."""

    def test_within_1e_15_of_closure(self, monkeypatch):
        calls = []

        def recording(f, a, b, tol=1e-12, breakpoints=()):
            calls.append((a, b, tol, tuple(breakpoints)))
            return integrate(f, a, b, tol=tol, breakpoints=breakpoints)

        monkeypatch.setattr(verify, "integrate", recording)
        rng = random.Random(2024)
        for _ in range(60):
            a1, a2 = rng.uniform(15.0, 80.0), rng.uniform(15.0, 80.0)
            s1, s2 = rng.uniform(0.1, 0.2), rng.uniform(0.1, 0.2)
            q = CompatQuery(Gaussian(a1, s1 * a1), Gaussian(a2, s2 * a2),
                            t=rng.uniform(0.5, 2.5))
            got = quad_oracle(q)
            a, b, tol, cuts = calls.pop()
            closure = _clamp_unit(integrate(_closure_integrand(q), a, b, tol=tol,
                                            breakpoints=cuts))
            assert abs(got - closure) <= 1e-15, (q, got, closure)

    def test_rejects_bad_tol_by_name(self):
        q = _query(20.0, 2.0, 18.0, 1.5, d=1.0)
        for tol in (math.nan, -1.0, 0.0):
            with pytest.raises(ValueError, match="^tol must be finite and positive"):
                quad_oracle(q, tol=tol)


class TestMcOracle:
    def test_deterministic_per_seed(self):
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.7)
        a = mc_oracle(q, 10 ** 5, seed=42)
        b = mc_oracle(q, 10 ** 5, seed=42)
        assert a == b
        c = mc_oracle(q, 10 ** 5, seed=43)
        assert c.estimate != a.estimate

    def test_stream_canary(self):
        # pinned estimate: guards the fixed-stream contract (PCG64 plus a
        # two-uniform transform, so the stream position is sample-count only)
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.7)
        assert mc_oracle(q, 10 ** 5, seed=42).estimate == 0.32819

    def test_chunking_invariant(self):
        # crossing the chunk boundary must not disturb earlier draws
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.7)
        small = mc_oracle(q, (1 << 19) + 1000, seed=9)
        assert 0.0 < small.estimate < 1.0

    def test_brackets_benchmark_value(self):
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.0 / math.sqrt(math.pi) * 2.4)
        est, se = mc_oracle(q, 10 ** 6, seed=42)
        assert abs(est - compat_prob(q)) <= 3.0 * se

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


class TestTwoCallTransform:
    """The oracle gives the textbook Box-Muller transform's estimates."""

    def test_same_estimates_as_two_call_transform(self):
        rng = random.Random(90210)
        for _ in range(60):
            mu1 = rng.uniform(15.0, 80.0)
            mu2 = min(80.0, max(15.0, mu1 + rng.uniform(-10.0, 10.0)))
            s1, s2 = rng.uniform(0.1, 0.2) * mu1, rng.uniform(0.1, 0.2) * mu2
            q = _query(mu1, s1, mu2, s2, d=rng.uniform(1.0, 2.0) * min(s1, s2))
            seed = rng.getrandbits(32)
            assert mc_oracle(q, 20_000, seed) == _two_call_mc(q, 20_000, seed)

    def test_same_estimate_across_a_chunk_boundary(self):
        q = _query(20.0, 3.0, 16.0, 2.4, d=2.7)
        samples = _MC_CHUNK + 1000
        assert mc_oracle(q, samples, 9) == _two_call_mc(q, samples, 9)


class TestFloat32Screen:
    """The oracle decides most hits with float32 trig and redoes the rest exactly."""

    def test_every_sample_refined_matches_exact_transform(self, monkeypatch):
        # an infinite margin decides nothing in the screen, so the exact
        # refinement runs on every sample of every chunk
        monkeypatch.setattr(verify, "_TRIG32_ERR", math.inf)
        rng = random.Random(4711)
        for _ in range(100):
            mu1 = rng.uniform(15.0, 80.0)
            mu2 = min(80.0, max(15.0, mu1 + rng.uniform(-10.0, 10.0)))
            s1, s2 = rng.uniform(0.1, 0.2) * mu1, rng.uniform(0.1, 0.2) * mu2
            q = _query(mu1, s1, mu2, s2, d=rng.uniform(1.0, 2.0) * min(s1, s2))
            seed = rng.getrandbits(32)
            assert mc_oracle(q, 20_000, seed) == _two_call_mc(q, 20_000, seed)

    @pytest.mark.parametrize("q, samples", [
        (_query(20.0, 2.0, 18.0, 1.5, d=0.0), 20_000),
        # the margin's 1e-12 * |mu| term exceeds the spread: all refined
        (_query(1e300, 3.0, 1e300, 2.4, d=2.7), 20_000),
        (_query(1e300, 1e299, 1.1e300, 2e299, d=1e299), 20_000),
        # about 2% of these samples fall inside the margin
        (_query(20.0, 1e-9, 20.0 + 1e-9, 2e-9, d=1.5e-9), 20_000),
        (_query(20.0, 2e3, 30.0, 2e3, d=2e3), 20_000),
        (_query(20.0, 3.0, 16.0, 2.4, d=2.7), 10 ** 6),
        # the margin overflows to inf; some x1, x2 overflow, and inf - inf is NaN
        (_query(1.5e308, 1e307, 1.5e308, 1e307, d=1e307), 10 ** 5),
        # R = hypot(sigma1, sigma2) just above and just below the least
        # normal float32: screened, then all refined
        (_query(1e-37, 1e-38, 1.2e-37, 1e-38, d=1e-38), 20_000),
        (_query(1e-37, 8e-39, 1.2e-37, 8e-39, d=1e-38), 20_000),
        # the screen's scale just below and just above 2**127
        (_query(1e37, 9e36, 1.2e37, 9e36, d=4e36), 20_000),
        (_query(1e37, 1e37, 1.2e37, 1e37, d=4e36), 20_000),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_edge_queries_match_exact_transform(self, q, samples):
        for seed in (0, 1, 2):
            assert mc_oracle(q, samples, seed) == _two_call_mc(q, samples, seed)

    def test_pairs_on_the_boundary_decided_as_exact_transform(self, monkeypatch):
        # draws crafted so that every exact |x1 - x2| lies within rounding
        # of d: the float32 screen alone would get about half of them wrong
        np = pytest.importorskip("numpy")
        q = _query(20.0, 3.0, 20.0, 2.4, d=2.7)
        n = 20_000
        rng = np.random.default_rng(7)
        u2 = rng.random(4 * n)
        theta = 2.0 * np.pi * u2
        r = q.d / np.abs(np.cos(theta) * 3.0 - np.sin(theta) * 2.4)
        keep = (0.5 < r) & (r < 8.0)
        u2 = u2[keep][:n]
        u1 = np.exp(-0.5 * r[keep][:n] ** 2)
        assert u2.size == n

        class Draws:
            # stands in for numpy's Generator: the chunk's 1 - u1, then u2
            def __init__(self, bit_generator):
                self.draws = iter((1.0 - u1, u2))

            def random(self, size=None, out=None):
                if out is None:
                    return next(self.draws).copy()
                out[...] = next(self.draws)
                return out

        monkeypatch.setattr(np.random, "Generator", Draws)
        exact = _two_call_mc(q, n, 0)
        assert 0.1 < exact.estimate < 0.9
        assert mc_oracle(q, n, 0) == exact

    def test_float32_trig_within_half_the_bound(self):
        # the margin allows _TRIG32_ERR per unit r * R; half of it must cover
        # float32 cos of float32(theta + phi), theta + phi in [0, 2 pi + pi/2),
        # on this platform
        np = pytest.importorskip("numpy")
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=2021, spawn_key=(0,))))
        x = 2.5 * np.pi * rng.random(1 << 19)
        x[:7] = (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, 2.0 * np.pi, 2.5 * np.pi,
                 np.nextafter(2.5 * np.pi, 0.0))
        x32 = x.astype(np.float32)
        assert np.max(np.abs(np.cos(x32) - np.cos(x))) <= verify._TRIG32_ERR / 2

    @pytest.mark.parametrize("mu1, s1, mu2, s2, d", [
        (20.0, 3.0, 16.0, 2.4, 2.7),
        # mu1 - mu2 is not a float32 and dwarfs the spread, so the float32
        # rounding far exceeds the margin's other terms
        (80.3, 0.01, 15.1, 0.01, 65.2),
        (20.0, 1e-9, 20.0 + 1e-9, 2e-9, 1.5e-9),
        # R just above the least normal float32, and the scale just below 2**127
        (1e-37, 1e-38, 1.2e-37, 1e-38, 1e-38),
        (1e37, 9e36, 1.2e37, 9e36, 4e36),
    ])
    def test_screen_within_half_the_margin(self, mu1, s1, mu2, s2, d):
        # the float32 screen's |x1 - x2| - d lies within half the margin of
        # the float64 transform's, on draws as mc_oracle makes them
        np = pytest.importorskip("numpy")
        margin = verify._screen_margin(mu1, s1, mu2, s2, d)
        assert margin < math.inf
        n = 1 << 19
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=1958, spawn_key=(0,))))
        r = np.sqrt(-2.0 * np.log(1.0 - rng.random(n)))
        theta = 2.0 * np.pi * rng.random(n)
        r[0] = math.sqrt(-2.0 * math.log(2.0 ** -53))     # the largest r drawn
        cos, out = np.empty((2, n), np.float32)
        screened = verify._screen(r, theta, mu1, s1, mu2, s2, cos, out)
        exact = np.abs((r * np.cos(theta) * s1 + mu1) - (r * np.sin(theta) * s2 + mu2)) - d
        assert np.max(np.abs(screened.astype(np.float64) - d - exact)) <= margin / 2
