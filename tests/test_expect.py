"""Population expectations and binomial tails."""

import math
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agecompat.expect import (
    _BASYM_MIN_NPQ,
    _basym,
    _lambda,
    _log_binom_pmf,
    _summed_tail,
    at_least_k_exact,
    at_least_k_normal,
    expected_pairs,
    expected_with_at_least_one,
    mean_counterparts,
    normal_approx_valid,
)

COHORT_N = 3_780_000
NINTH = 1.0 / 9.0

# independent oracle values (exact rational sums / 40-digit evaluation)
TAIL_3_10_HALF = 0.9453125                      # 121/128
TAIL_3_100_P05 = 0.8817370188148791             # exact Fraction sum
TAIL_199_1000_P1 = 6.612048555562856e-21        # 40-digit sum
TAIL_1234_5000_P25 = 0.7043484513815754         # 40-digit sum
NORMAL_3_100_P05 = 0.8314930524520889           # formula at 40 digits

probs = st.floats(min_value=1e-9, max_value=1.0 - 1e-9, allow_nan=False)


class TestExpectedPairs:
    def test_high_school_cohorts(self):
        pairs = expected_pairs(COHORT_N, COHORT_N, NINTH)
        assert pairs == pytest.approx(1.59e12, rel=5e-3)
        assert pairs == pytest.approx(1.5876e12, rel=1e-12)

    def test_empty_cohort(self):
        assert expected_pairs(0, 500, 0.3) == 0.0

    def test_small_product(self):
        assert expected_pairs(100, 200, 0.33) == pytest.approx(6600.0, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            expected_pairs(-1, 10, 0.5)
        with pytest.raises(ValueError):
            expected_pairs(10, 10, 1.5)

    @pytest.mark.parametrize("p, pairs", [(0.0, 0.0), (1.0, 200.0)])
    def test_probability_edges_accepted(self, p, pairs):
        assert expected_pairs(10, 20, p) == pairs

    @pytest.mark.parametrize("p", [math.nextafter(1.0, 2.0), -5e-324])
    def test_probability_just_outside_rejected_by_name(self, p):
        with pytest.raises(ValueError, match=f"^p must lie in \\[0, 1\\], got {p!r}$"):
            expected_pairs(10, 20, p)

    @pytest.mark.parametrize("p, value", [(0.5, "inf"), (0.0, "nan")])
    def test_overflowing_product_names_the_result(self, p, value):
        message = f"expected pair count is {value}, not finite: the inputs are too extreme"
        with pytest.raises(ValueError, match=f"^{message}$"):
            expected_pairs(10 ** 200, 10 ** 200, p)


class TestMeanCounterparts:
    def test_high_school_cohorts(self):
        assert mean_counterparts(COHORT_N, NINTH) == 420_000.0

    def test_zero_probability(self):
        assert mean_counterparts(12345, 0.0) == 0.0

    def test_small_case(self):
        assert mean_counterparts(1000, 0.118) == pytest.approx(118.0, rel=1e-12)


class TestExpectedWithAtLeastOne:
    def test_hand_expansion(self):
        # 10 * (1 - (1 - 0.5)**3) = 10 * 0.875
        assert expected_with_at_least_one(10, 3, 0.5) == pytest.approx(8.75, rel=1e-14)

    def test_zero_probability(self):
        assert expected_with_at_least_one(10, 3, 0.0) == 0.0

    def test_saturates_for_large_cohorts(self):
        out = expected_with_at_least_one(COHORT_N, COHORT_N, NINTH)
        assert out == pytest.approx(COHORT_N, rel=1e-6)

    def test_certain_match(self):
        assert expected_with_at_least_one(7, 2, 1.0) == 7.0
        assert expected_with_at_least_one(7, 0, 1.0) == 0.0

    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=0, max_value=10**6), probs)
    def test_never_exceeds_own_cohort(self, n_self, n_other, p):
        assert expected_with_at_least_one(n_self, n_other, p) <= n_self


class TestCountsPastTheFloatRange:
    """A count that float() cannot hold, or that repr() cannot print, is named by its magnitude."""

    HUGE = 10 ** 400

    @pytest.mark.parametrize("call, name", [
        (lambda n: expected_pairs(n, 10, 0.5), "n1"),
        (lambda n: expected_pairs(10, n, 0.5), "n2"),
        (lambda n: mean_counterparts(n, 0.5), "n"),
        (lambda n: expected_with_at_least_one(n, 10, 0.5), "n_self"),
        (lambda n: expected_with_at_least_one(10, n, 0.5), "n_other"),
        (lambda n: at_least_k_normal(1, n, 0.5), "n"),
    ], ids=["pairs-n1", "pairs-n2", "counterparts", "with-match-self", "with-match-other",
            "normal-tail"])
    def test_count_beyond_the_float_range_is_named(self, call, name):
        message = (f"need {name} < 1.8e308 to stay in the float range, "
                   f"got {name} of about 10**400.00")
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            call(self.HUGE)

    def test_largest_float_count_still_converts(self):
        n = int(sys.float_info.max)
        assert mean_counterparts(n, 0.5) == sys.float_info.max / 2

    @pytest.mark.parametrize("tail", [at_least_k_exact, at_least_k_normal])
    def test_k_past_the_digit_limit_is_named_by_magnitude(self, tail):
        # formatting k with repr would raise "Exceeds the limit (4300 digits)"
        message = "need 0 <= k <= n, got k of about 10**5000.00, n=10"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tail(10 ** 5000, 10, 0.5)

    def test_negative_k_past_the_digit_limit_is_named_by_magnitude(self):
        message = "need 0 <= k <= n, got k of about -10**5000.00, n=10"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            at_least_k_exact(-10 ** 5000, 10, 0.5)


def _two_loop_tail(k, n, p):
    # P(X >= k) summed with one hand-kept loop per tail, for valid arguments:
    # the term ratios as a running total from an anchor of 1.0, scaled by the
    # boundary density in the exponent
    if k == 0:
        return 1.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    q = 1.0 - p
    if k > n * p:
        log_term = _log_binom_pmf(k, n, p, q)
        term = total = 1.0
        m = k
        while m < n:
            term *= (n - m) / (m + 1) * (p / q)
            total += term
            m += 1
            if term <= total * 1e-18:
                break
        total = math.exp(log_term + math.log(total))
        return total if total < 1.0 else 1.0
    log_term = _log_binom_pmf(k - 1, n, p, q)
    term = total = 1.0
    m = k - 1
    while m > 0:
        term *= m / (n - m + 1) * (q / p)
        total += term
        m -= 1
        if term <= total * 1e-18:
            break
    total = math.exp(log_term + math.log(total))
    return 1.0 - total if total < 1.0 else 0.0


class TestAtLeastKExact:
    def test_small_exact_sum(self):
        assert at_least_k_exact(3, 10, 0.5) == pytest.approx(TAIL_3_10_HALF,
                                                             rel=1e-12)

    def test_k_zero_is_certain(self):
        assert at_least_k_exact(0, 50, 0.123) == 1.0

    def test_frozen_oracle_values(self):
        assert at_least_k_exact(3, 100, 0.05) == pytest.approx(TAIL_3_100_P05,
                                                               rel=1e-10)
        assert at_least_k_exact(1234, 5000, 0.25) == pytest.approx(
            TAIL_1234_5000_P25, rel=1e-10)

    def test_far_tail_keeps_relative_accuracy(self):
        assert at_least_k_exact(199, 1000, 0.1) == pytest.approx(
            TAIL_199_1000_P1, rel=1e-9)

    @given(st.integers(min_value=1, max_value=10**6), probs)
    def test_k_one_closed_form(self, n, p):
        closed = -math.expm1(n * math.log1p(-p))
        assert abs(at_least_k_exact(1, n, p) - closed) <= 1e-12

    @pytest.mark.parametrize("n", [1, 10, 10**7])
    @pytest.mark.parametrize("p", [1e-310, 1e-320, 5e-324])
    def test_k_one_closed_form_where_p_is_subnormal(self, n, p):
        # n*p subnormal made the deviance's x / (n*p) overflow, and the tail
        # came out 0; relative accuracy, plus the half unit of 2**-1074 that
        # a result below the least normal float may add
        closed = -math.expm1(n * math.log1p(-p))
        got = at_least_k_exact(1, n, p)
        assert abs(got - closed) <= 1e-12 * closed + 0.5 * 2.0 ** -1074, (got, closed)

    def test_monotone_in_k(self):
        vals = [at_least_k_exact(k, 60, 0.3) for k in range(0, 61, 3)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_p(self):
        vals = [at_least_k_exact(10, 60, p / 20) for p in range(1, 20)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_degenerate_probabilities(self):
        assert at_least_k_exact(3, 10, 0.0) == 0.0
        assert at_least_k_exact(3, 10, 1.0) == 1.0

    def test_rejects_bad_k_and_n(self):
        with pytest.raises(ValueError):
            at_least_k_exact(11, 10, 0.5)
        with pytest.raises(ValueError):
            at_least_k_exact(-1, 10, 0.5)
        # n is bounded only by the float range: past it the call raises
        # OverflowError, as expected_pairs does
        assert at_least_k_exact(1, 10**7 + 1, 0.5) == 1.0
        with pytest.raises(OverflowError):
            at_least_k_exact(1, 10**400, 0.5)

    @pytest.mark.parametrize("k, n, expansion", [
        (648 * 10**151, 12 * 10**153, False), (6 * 10**153, 12 * 10**153, True),
        (10**159, 10**160, False), (5 * 10**159, 10**160, True)],
        ids=["sum-1.2e154", "expansion-1.2e154", "sum-1e160", "expansion-1e160"])
    def test_n_past_the_float_range_raises_one_error(self, k, n, expansion):
        # the density's 2*pi*m*(n - m) overflows from about n = 1.07e154, and
        # the Stirling series' n*n from 1.34e154; one check names n first
        assert _in_expansion_domain(k, n, 0.5) is expansion
        with pytest.raises(OverflowError, match=r"^need n <= 1e154 to stay in the float range, "
                                                r"got n of about 10\*\*1(54\.08|60\.00)$"):
            at_least_k_exact(k, n, 0.5)

    @pytest.mark.parametrize("k, expansion", [(54 * 10**152, False), (5 * 10**153, True)],
                             ids=["sum", "expansion"])
    def test_n_at_the_range_limit_still_answers(self, k, expansion):
        n = 10**154
        assert _in_expansion_domain(k, n, 0.5) is expansion
        assert 0.0 <= at_least_k_exact(k, n, 0.5) <= 1.0

    def test_same_floats_as_two_loop_form(self):
        # one loop sums both tails; each result of the sum path must be the
        # same float the two mirror-image loops gave, on both branches and
        # at the edges (at_least_k_exact takes Temme's expansion on some)
        rng = random.Random(1914)
        points = []
        for _ in range(1500):
            n = round(10.0 ** rng.uniform(0.0, 7.0))
            p = rng.choice((rng.random(), 10.0 ** rng.uniform(-12.0, 0.0),
                            1.0 - 10.0 ** rng.uniform(-12.0, -1.0)))
            sd = math.sqrt(n * p * (1.0 - p))
            k = round(n * p + rng.uniform(-6.0, 6.0) * sd)
            points.append((min(n, max(0, k)), n, p))
        for n in (1, 2, 7, 1000, 10**7):
            for p in (5e-324, 1e-12, 0.3, 0.5, 1.0 - 1e-12):
                points += [(k, n, p) for k in {0, 1, n - 1, n}]
        # long loops: n = 10**7 and p = 1/2, above and below the mean
        points += [(5 * 10**6 + 1, 10**7, 0.5), (5 * 10**6 - 1, 10**7, 0.5)]
        lower = 0
        for k, n, p in points:
            assert _summed_tail(k, n, p) == _two_loop_tail(k, n, p), (k, n, p)
            lower += 0 < k <= n * p < n
        assert 300 < lower < len(points) - 300

    @pytest.mark.parametrize("k, n, p", [
        (1_035_670, 10**7, 0.1), (1_036_429, 10**7, 0.1), (1_036_619, 10**7, 0.1),
        (526_465, 10**7, 0.05), (14_038, 10**7, 0.001), (474_362, 10**7, 0.05),
        (40_010_000, 8 * 10**7, 0.5), (82_480, 8 * 10**7, 0.001), (103_100, 10**18, 1e-13)])
    def test_bounded_work_near_underflow(self, k, n, p):
        # tails at and below the least normal float, and the CLI record's
        # computed tails past n = 10**7 (the first by Temme's expansion):
        # the sum must stop once its terms stop counting, as elsewhere, and
        # not after about n*p steps; each takes under a millisecond
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            at_least_k_exact(k, n, p)
            best = min(best, time.perf_counter() - start)
        assert best <= 0.05, (k, n, p, best)

    @pytest.mark.parametrize("tail", [at_least_k_exact, at_least_k_normal])
    @pytest.mark.parametrize("k, n, name", [(2.5, 10, "k"), (0.5, 10, "k"),
                                            (2, 10.0, "n"), (2, "10", "n")])
    def test_non_integer_k_or_n_rejected_by_name(self, tail, k, n, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            tail(k, n, 0.3)

    @given(st.integers(min_value=1, max_value=25),
           st.data())
    def test_against_exact_rational_enumeration(self, n, data):
        # brute-force oracle: sum the pmf in exact rational arithmetic
        k = data.draw(st.integers(min_value=0, max_value=n))
        p_num = data.draw(st.integers(min_value=1, max_value=15))
        p = Fraction(p_num, 16)
        total = sum(Fraction(math.comb(n, m)) * p ** m * (1 - p) ** (n - m)
                    for m in range(k, n + 1))
        got = at_least_k_exact(k, n, float(p))
        assert got == pytest.approx(float(total), rel=1e-12, abs=1e-300)


def _in_expansion_domain(k, n, p):
    # where at_least_k_exact takes Temme's expansion instead of the sum
    return (n * p * (1.0 - p) >= _BASYM_MIN_NPQ
            and abs(_lambda(k, n, p)) <= 0.03 * min(k, n - k + 1))


def _expansion(k, n, p):
    lam = _lambda(k, n, p)
    return _basym(k, n - k + 1, lam) if lam >= 0.0 else 1.0 - _basym(n - k + 1, k, -lam)


class TestTemmeExpansion:
    def test_agrees_with_the_sum(self):
        # needs no mpmath: the two methods share only _stirlerr and the
        # deviance series; the sum's own error reaches 4e-12 at n ~ 1e7
        rng = random.Random(708)
        checked = 0
        while checked < 200:
            n = round(10.0 ** rng.uniform(4.0, 7.0))
            p = rng.choice((rng.random(), 10.0 ** rng.uniform(-3.5, 0.0),
                            1.0 - 10.0 ** rng.uniform(-3.5, 0.0)))
            sd = math.sqrt(n * p * (1.0 - p))
            k = round(n * p + rng.uniform(-25.0, 25.0) * sd)
            if not 0 < k <= n or not _in_expansion_domain(k, n, p):
                continue
            value = at_least_k_exact(k, n, p)
            assert value == _expansion(k, n, p), (k, n, p)
            summed = _summed_tail(k, n, p)
            assert abs(value / summed - 1.0) <= 1e-11, (k, n, p, value, summed)
            checked += 1

    @pytest.mark.parametrize("n, p", [(12_100, 0.5), (40_000, 0.1), (3_000_000, 0.002),
                                      (10**7, 0.999)])
    def test_monotone_in_k_across_the_domain_edges(self, n, p):
        # |lam| = 0.03 * min(k, n - k + 1) has one root in each tail; the
        # 121 k around each take both paths
        m = (n + 1) * p
        upper = min(m / 0.97, (m + 0.03 * (n + 1)) / 1.03)
        lower = max(m / 1.03, (m - 0.03 * (n + 1)) / 0.97)
        for edge in (round(upper), round(lower)):
            ks = range(edge - 60, edge + 61)
            assert len({_in_expansion_domain(k, n, p) for k in ks}) == 2, (n, p, edge)
            vals = [at_least_k_exact(k, n, p) for k in ks]
            assert all(a >= b for a, b in zip(vals, vals[1:])), (n, p, edge)

    def test_lambda_is_correctly_rounded(self):
        # k - (n+1)*p against exact rationals, for k anywhere in [0, n]
        rng = random.Random(1992)
        points = [(16, 25, 0.07953201754532813)]
        for _ in range(3000):
            n = round(10.0 ** rng.uniform(0.0, 7.0))
            p = rng.choice((rng.random(), 10.0 ** rng.uniform(-300.0, 0.0),
                            1.0 - 10.0 ** rng.uniform(-16.0, 0.0)))
            sd = math.sqrt(n * p * (1.0 - p))
            k = round(n * p + rng.uniform(-40.0, 40.0) * sd)
            points.append((min(max(k, 0), n), n, p))
        for k, n, p in points:
            exact = k - (n + 1) * Fraction(p)
            assert _lambda(k, n, p) == float(exact), (k, n, p)

    @pytest.mark.parametrize("side", [1, -1])
    def test_finite_and_monotone_across_the_underflow_band(self, side):
        # 36 to 40 sd from the mean of n = 1e7, p = 1/2 puts the exponent f
        # at about 650-800, where exp(-f) goes subnormal and then to 0
        n = 10**7
        sd = math.sqrt(n) / 2.0
        ks = range(round(n / 2 + side * 36 * sd), round(n / 2 + side * 40 * sd), side * 7)
        assert all(_in_expansion_domain(k, n, 0.5) for k in ks)
        vals = [at_least_k_exact(k, n, 0.5) for k in ks]
        assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in vals)
        if side < 0:
            vals.reverse()
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestAtLeastKNormal:
    def test_frozen_formula_value(self):
        out = at_least_k_normal(3, 100, 0.05)
        assert out.value == pytest.approx(NORMAL_3_100_P05, abs=1e-12)
        assert out.valid is False  # 100 < 9 * 19

    def test_divergence_from_exact_within_documented_band(self):
        exact = at_least_k_exact(3, 100, 0.05)
        approx = at_least_k_normal(3, 100, 0.05).value
        assert abs(exact - approx) <= 0.06

    def test_k_at_mean_reduces_to_half_plus_correction(self):
        n, p = 400, 0.25
        k = int(n * p)
        from agecompat.special import normal_cdf
        want = 0.5 + normal_cdf(-math.sqrt(n * p / (1 - p)))
        assert at_least_k_normal(k, n, p).value == pytest.approx(want, abs=1e-14)

    def test_mean_far_above_k_saturates(self):
        out = at_least_k_normal(50, 10**6, NINTH)
        assert out.value == pytest.approx(1.0, abs=1e-12)
        assert out.valid

    def test_rejects_degenerate_p(self):
        with pytest.raises(ValueError):
            at_least_k_normal(1, 10, 0.0)

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError, match=r"^need 0 <= k <= n, got k=6, n=5$"):
            at_least_k_normal(6, 5, 0.5)

    def test_empty_population_is_sure_at_k_zero(self):
        # sd = 0 at n = 0; the k = 0 value is 1 for every other n too
        assert at_least_k_normal(0, 0, 0.5) == (1.0, False)
        assert at_least_k_normal(0, 30, 0.5).value == pytest.approx(1.0, abs=1e-15)

    def test_exact_vs_normal_on_seeded_grid(self):
        # grid restricted to n*p*(1-p) >= 20: below that variance the
        # missing continuity correction alone exceeds the 0.06 band
        rng = random.Random(1905)
        checked = 0
        while checked < 150:
            n = rng.randrange(100, 100_000)
            p = rng.uniform(0.05, 0.95)
            if not normal_approx_valid(n, p):
                continue
            if not 5.0 <= n * p <= n - 5.0:
                continue
            if n * p * (1.0 - p) < 20.0:
                continue
            sd = math.sqrt(n * p * (1 - p))
            k = int(n * p + rng.uniform(-4.0, 4.0) * sd)
            k = max(0, min(n, k))
            diff = abs(at_least_k_exact(k, n, p) - at_least_k_normal(k, n, p).value)
            assert diff <= 0.06, (n, p, k, diff)
            checked += 1


class TestNormalApproxValid:
    def test_balanced_case(self):
        assert normal_approx_valid(100, 0.5) is True

    def test_boundary(self):
        # 9 * (0.9 / 0.1) = 81
        assert normal_approx_valid(80, 0.1) is False
        assert normal_approx_valid(81, 0.1) is False  # strict inequality
        assert normal_approx_valid(82, 0.1) is True

    def test_rejects_degenerate_p(self):
        with pytest.raises(ValueError):
            normal_approx_valid(100, 0.0)
        with pytest.raises(ValueError):
            normal_approx_valid(100, 1.0)
