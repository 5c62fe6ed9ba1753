"""Age-limit inversions, the dating-rule audit, and the gap-slope solver."""

import math
import random
import re

import pytest

from agecompat import policy
from agecompat.compat import CompatQuery, compat_prob, same_age_prob
from agecompat.model import Gaussian
from agecompat.policy import (
    DEFAULT_T,
    AgeLimitSpec,
    audit_hyaps,
    chrono_max_age,
    chrono_min_age,
    hyaps_bounds,
    mental_limit_from_chrono,
    rule_probability,
    solve_m,
)

# 40-digit oracle values rounded to float64
CHRONO_MIN_18_S15_P8413 = 21.17577961114185
CHRONO_MIN_18_S10_P10 = 15.955252161391044
CHRONO_MAX_60_S20_P8413 = 50.00154093403189
CHRONO_MAX_60_S10_P25 = 64.3396429715592
MENTAL_MIN_18_S20_P90 = 13.386414364039439
MENTAL_MAX_60_S15_P90 = 71.5339640899014

# reference table of gap slopes at t = 2/sqrt(pi), printed to 2 decimals
GAP_SLOPE_TABLE = {
    0.10: {0.05: 0.39, 0.10: 0.32, 0.15: 0.28},
    0.15: {0.05: 0.64, 0.10: 0.51, 0.15: 0.43},
    0.20: {0.05: 0.92, 0.10: 0.71, 0.15: 0.59},
}

# ratio-form calls per solve_m on the budget test's targets: the secant
# iteration measures a mean of 15.8 and a maximum of 52 there
MEAN_CALLS_BOUND = 20.0
MAX_CALLS_BOUND = 70


class TestAgeLimitSpec:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            AgeLimitSpec("between", 18.0, 0.5, 0.15)
        with pytest.raises(ValueError):
            AgeLimitSpec("min", -18.0, 0.5, 0.15)
        with pytest.raises(ValueError):
            AgeLimitSpec("min", 18.0, 1.0, 0.15)
        with pytest.raises(ValueError):
            AgeLimitSpec("min", 18.0, 0.5, 0.0)

    @pytest.mark.parametrize("x_limit, s", [(math.nan, 0.15), (18.0, math.nan)])
    def test_rejects_nan(self, x_limit, s):
        with pytest.raises(ValueError):
            AgeLimitSpec("min", x_limit, 0.3, s)


class TestChronoMinAge:
    def test_half_probability_is_identity(self):
        for s in (0.1, 0.15, 0.2):
            assert chrono_min_age(AgeLimitSpec("min", 18.0, 0.5, s)) == 18.0

    def test_strict_limit_raises_age(self):
        spec = AgeLimitSpec("min", 18.0, 0.8413, 0.15)
        assert chrono_min_age(spec) == pytest.approx(CHRONO_MIN_18_S15_P8413,
                                                     rel=1e-12)
        assert chrono_min_age(spec) == pytest.approx(21.18, abs=5e-3)

    def test_loose_limit_lowers_age(self):
        spec = AgeLimitSpec("min", 18.0, 0.1, 0.1)
        assert chrono_min_age(spec) == pytest.approx(CHRONO_MIN_18_S10_P10,
                                                     rel=1e-12)
        assert chrono_min_age(spec) == pytest.approx(15.96, abs=5e-3)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            chrono_min_age(AgeLimitSpec("max", 18.0, 0.5, 0.15))

    def test_extreme_probability_rejected(self):
        # 1 + s * quantile(1 - p) <= 0 has no chronological solution
        with pytest.raises(ValueError):
            chrono_min_age(AgeLimitSpec("min", 18.0, 1.0 - 1e-9, 0.2))

    def test_overflowing_age_rejected(self):
        # 1 + s * quantile(0.16) = 0.0055, and 1e308 / 0.0055 overflows
        with pytest.raises(ValueError, match=r"^chronological age limit is inf, not a finite"):
            chrono_min_age(AgeLimitSpec("min", 1e308, 0.84, 1.0))


class TestChronoMaxAge:
    def test_half_probability_is_identity(self):
        assert chrono_max_age(AgeLimitSpec("max", 60.0, 0.5, 0.17)) == 60.0

    def test_one_sigma_limit(self):
        spec = AgeLimitSpec("max", 60.0, 0.8413, 0.2)
        assert chrono_max_age(spec) == pytest.approx(CHRONO_MAX_60_S20_P8413,
                                                     rel=1e-12)
        assert chrono_max_age(spec) == pytest.approx(50.0, abs=5e-3)

    def test_quarter_probability(self):
        spec = AgeLimitSpec("max", 60.0, 0.25, 0.1)
        assert chrono_max_age(spec) == pytest.approx(CHRONO_MAX_60_S10_P25,
                                                     rel=1e-12)
        assert chrono_max_age(spec) == pytest.approx(64.34, abs=5e-3)


class TestMentalLimitFromChrono:
    def test_half_probability_is_identity(self):
        for s in (0.1, 0.15, 0.2):
            assert mental_limit_from_chrono(18.0, s, 0.5, "min") == 18.0

    def test_min_curve_point(self):
        got = mental_limit_from_chrono(18.0, 0.2, 0.9, "min")
        assert got == pytest.approx(MENTAL_MIN_18_S20_P90, rel=1e-12)
        assert got == pytest.approx(13.39, abs=5e-3)

    def test_max_curve_point(self):
        got = mental_limit_from_chrono(60.0, 0.15, 0.9, "max")
        assert got == pytest.approx(MENTAL_MAX_60_S15_P90, rel=1e-12)
        assert got == pytest.approx(71.53, abs=5e-3)

    @pytest.mark.parametrize("kind", ["min", "max"])
    def test_round_trip(self, kind):
        solver = chrono_min_age if kind == "min" else chrono_max_age
        for mu in (14.0, 18.0, 60.0):
            for s in (0.1, 0.15, 0.2):
                for p in (0.05, 0.2, 0.5, 0.8, 0.95):
                    mental = mental_limit_from_chrono(mu, s, p, kind)
                    back = solver(AgeLimitSpec(kind, mental, p, s))
                    assert back == pytest.approx(mu, rel=1e-9)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            mental_limit_from_chrono(18.0, 0.1, 0.5, "upper")

    @pytest.mark.parametrize("p, kind", [(0.7, "min"), (0.001, "max")])
    def test_factor_not_positive_rejected(self, p, kind):
        # 1 + s * quantile <= 0 would give a mental limit at or below 0
        with pytest.raises(ValueError, match="limit probability too extreme"):
            mental_limit_from_chrono(18.0, 2.0, p, kind)

    @pytest.mark.parametrize("p, kind", [(0.7, "min"), (0.001, "max")])
    def test_factor_not_positive_names_p_limit_both_ways(self, p, kind):
        solver = chrono_min_age if kind == "min" else chrono_max_age
        tail = re.escape(f") at p_limit={p!r}") + "$"
        with pytest.raises(ValueError, match=tail):
            mental_limit_from_chrono(18.0, 2.0, p, kind)
        with pytest.raises(ValueError, match=tail):
            solver(AgeLimitSpec(kind, 18.0, p, 2.0))

    @pytest.mark.parametrize("mu, s, p, shown", [
        (1e308, 10.0, 0.01, "inf"),
        # 5e-324 * 0.36 rounds to 0
        (5e-324, 0.5, 0.9, "0.0"),
    ])
    def test_result_out_of_range_rejected(self, mu, s, p, shown):
        with pytest.raises(ValueError, match=rf"^mental age limit is {shown}, not a finite"):
            mental_limit_from_chrono(mu, s, p, "min")

    @pytest.mark.parametrize("mu, s", [(math.nan, 0.15), (18.0, math.nan)])
    def test_nan_rejected(self, mu, s):
        with pytest.raises(ValueError):
            mental_limit_from_chrono(mu, s, 0.3, "min")


class TestHyapsBounds:
    def test_fixed_point(self):
        assert hyaps_bounds(14.0) == (14.0, 14.0)

    def test_thirty(self):
        assert hyaps_bounds(30.0) == (22.0, 46.0)

    def test_sixteen(self):
        assert hyaps_bounds(16.0) == (15.0, 18.0)

    def test_bounds_compose_at_fixed_point(self):
        lo, _ = hyaps_bounds(14.0)
        _, hi = hyaps_bounds(lo)
        assert hi == 14.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hyaps_bounds(0.0)


class TestRuleProbability:
    def test_zero_gap_reduces_to_same_age(self):
        for t in (1.0, DEFAULT_T, 1.981):
            assert rule_probability(30.0, 0.0, 0.15, 0.15, t) == \
                pytest.approx(same_age_prob(t), abs=1e-12)

    def test_matches_general_closed_form(self):
        mu, delta, s1, s2, t = 30.0, 16.0, 0.15, 0.12, 1.3
        q = CompatQuery(Gaussian(mu + delta, s2 * (mu + delta)),
                        Gaussian(mu, s1 * mu), d=t * s1 * mu)
        assert rule_probability(mu, delta, s1, s2, t) == \
            pytest.approx(compat_prob(q), abs=1e-12)

    def test_audit_family_point(self):
        got = rule_probability(30.0, 16.0, 0.15, 0.15, DEFAULT_T)
        assert got == pytest.approx(0.08718487552, abs=1e-9)

    def test_slope_consistency_with_solver_table(self):
        got = rule_probability(100.0, 39.0, 0.1, 0.1, DEFAULT_T)
        assert got == pytest.approx(0.051, abs=2e-3)

    def test_depends_only_on_gap_ratio(self):
        m = 0.47
        values = [rule_probability(mu, m * mu, 0.12, 0.18, DEFAULT_T)
                  for mu in (15.0, 30.0, 60.0, 120.0)]
        assert max(values) - min(values) <= 1e-12

    def test_rejects_small_t(self):
        with pytest.raises(ValueError):
            rule_probability(30.0, 16.0, 0.15, 0.15, 0.9)

    def test_nan_t_rejected_by_name(self):
        with pytest.raises(ValueError, match="t must be at least 1"):
            rule_probability(30.0, 16.0, 0.15, 0.15, math.nan)
        with pytest.raises(ValueError, match="t must be at least 1"):
            solve_m(0.05, 0.15, 0.15, math.nan)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            rule_probability(30.0, -1.0, 0.15, 0.15)


class TestAuditHyaps:
    def test_skips_at_or_below_fixed_point(self):
        with pytest.warns(UserWarning):
            points = audit_hyaps([14.0, 15.0, 16.0], 0.15, 0.15)
        assert [pt.mu for pt in points] == [15.0, 16.0]

    def test_gap_is_inverted_rule(self):
        points = audit_hyaps([20.0, 40.0], 0.15, 0.15)
        assert points[0].delta == 6.0 and points[1].delta == 26.0

    def test_error_term_thresholds(self):
        p280, p140 = audit_hyaps([280.0, 140.0], 0.1, 0.1)
        assert p280.err_term == pytest.approx(0.05)
        assert not p280.flagged
        assert p140.err_term == pytest.approx(0.1)
        assert p140.flagged

    def test_collapses_to_same_age_near_fixed_point(self):
        pt = audit_hyaps([14.0 + 1e-9], 0.15, 0.15, DEFAULT_T)[0]
        assert pt.p_min == pytest.approx(same_age_prob(DEFAULT_T), abs=1e-6)

    def test_not_constant_across_ages(self):
        points = audit_hyaps([float(mu) for mu in range(15, 81)], 0.15, 0.15,
                             DEFAULT_T)
        values = [pt.p_min for pt in points]
        assert max(values) - min(values) > 0.1


class TestSolveM:
    @pytest.mark.parametrize("s", [0.1, 0.15, 0.2])
    @pytest.mark.parametrize("p_min", [0.05, 0.1, 0.15])
    def test_reference_table(self, s, p_min):
        m = solve_m(p_min, s, s, DEFAULT_T)
        assert m == pytest.approx(GAP_SLOPE_TABLE[s][p_min], abs=0.01)

    @pytest.mark.parametrize("s1,s2,t,p_min", [
        (0.1, 0.1, DEFAULT_T, 0.05),
        (0.15, 0.15, DEFAULT_T, 0.1),
        (0.2, 0.12, 1.5, 0.2),
    ])
    def test_solver_self_consistency(self, s1, s2, t, p_min):
        m = solve_m(p_min, s1, s2, t)
        assert rule_probability(50.0, m * 50.0, s1, s2, t) == \
            pytest.approx(p_min, abs=1e-8)

    def test_near_ceiling_gives_tiny_slope(self):
        ceiling = rule_probability(30.0, 0.0, 0.15, 0.15, DEFAULT_T)
        m = solve_m(ceiling - 1e-6, 0.15, 0.15, DEFAULT_T)
        assert 0.0 <= m < 1e-4

    def test_tail_target_past_slope_64(self):
        # far out p falls only as 1/m, so this root lies between 64 and 128;
        # the closed form's own rounding here is about 1.5e-14 relative
        m = solve_m(1e-11, 0.15, 0.15, 1.981)
        assert 64.0 < m < 128.0
        assert rule_probability(1.0, m, 0.15, 0.15, 1.981) == pytest.approx(1e-11, rel=1e-13)

    def test_residual_relative_below_slope_128(self):
        # the range the docstring promises a relative residual for
        rng = random.Random(128)
        checked = 0
        for _ in range(400):
            s1, s2, t = rng.uniform(0.1, 0.2), rng.uniform(0.1, 0.2), rng.uniform(1.0, 2.0)
            p_min = rule_probability(1.0, 0.0, s1, s2, t) * 10.0 ** -rng.uniform(0.0, 12.0)
            m = solve_m(p_min, s1, s2, t)
            if m < 128.0:
                checked += 1
                assert rule_probability(1.0, m, s1, s2, t) == pytest.approx(p_min, rel=1e-13)
        assert checked > 300

    def test_collapsed_bracket_returns_its_better_end(self):
        # here the bracket collapses onto two adjacent floats; the last
        # iterate, 103.4023649972699, is its worse end (1.1e-13 * p_min)
        p_min, s1, s2, t = (5.165006881225971e-09, 0.1075817958658813,
                            0.18942164098289116, 1.0277097226189111)
        m = solve_m(p_min, s1, s2, t)
        assert abs(rule_probability(1.0, m, s1, s2, t) - p_min) <= 2e-15 * p_min

    def test_kernel_call_budget(self, monkeypatch):
        # the nine table cells and 400 targets in the paper's range; bisection
        # alone would take about 52 ratio-form calls per solve
        calls = 0
        kernel = policy._ratio_prob

        def counted(*args):
            nonlocal calls
            calls += 1
            return kernel(*args)

        monkeypatch.setattr(policy, "_ratio_prob", counted)
        rng = random.Random(52)
        targets = [(p_min, s, s, DEFAULT_T) for s in GAP_SLOPE_TABLE
                   for p_min in GAP_SLOPE_TABLE[s]]
        for _ in range(400):
            s1, s2, t = rng.uniform(0.1, 0.2), rng.uniform(0.1, 0.2), rng.uniform(1.0, 2.0)
            p_min = kernel(0.0, s2, s1, t) * 10.0 ** -rng.uniform(0.0, 12.0)
            targets.append((p_min, s1, s2, t))
        per_solve = []
        for target in targets:
            calls = 0
            solve_m(*target)
            per_solve.append(calls)
        assert sum(per_solve) / len(per_solve) <= MEAN_CALLS_BOUND
        assert max(per_solve) <= MAX_CALLS_BOUND

    def test_target_below_every_resolved_p_rejected(self):
        # p(m) rounds to 0 near m = 2**53 at these parameters; its root is far beyond
        with pytest.raises(ValueError, match=r"^p_min = 1e-30 is below every p the closed "
                                             r"form resolves: p rounds to 0 at m = "):
            solve_m(1e-30, 0.15, 0.15, 1.981)

    def test_unreachable_targets_rejected(self):
        ceiling = same_age_prob(DEFAULT_T)
        with pytest.raises(ValueError):
            solve_m(ceiling + 0.01, 0.15, 0.15, DEFAULT_T)
        with pytest.raises(ValueError):
            solve_m(0.0, 0.15, 0.15, DEFAULT_T)
