"""Non-finite arguments at every public entry point that takes a float.

Each entry point states its domain through the shared checks in
``special`` (``_check_finite``, ``_check_positive``, ``_check_nonneg``,
``_check_prob``, ``_check_open_prob``) or a chained range check, before
any arithmetic; ``special._cdf_diff``'s own guard is only a safety net
behind them.  This table pins, for NaN, +inf and -inf in each argument,
that the call raises ``ValueError`` with a message naming that argument.  The one exception returns a value: an age
of -inf in the rule audit lies below the rule's fixed point and is
skipped with a warning, like every other age at or below 14.
"""

import math
import re
import warnings

import pytest

from agecompat.compat import (
    CompatQuery,
    compat_prob,
    compat_prob_known,
    compat_prob_ratio_form,
    prob_at_least,
    prob_at_most,
    range_prob,
    same_age_prob,
    symmetric_range_prob,
)
from agecompat.model import AgeProfile, Gaussian, d_scope, gaussian_pdf, same_age_diff_stats
from agecompat.policy import (
    AgeLimitSpec,
    audit_hyaps,
    hyaps_bounds,
    mental_limit_from_chrono,
    rule_probability,
    solve_m,
)
from agecompat.verify import ErrorBudget, error_ratio_bounds, slice_params

G1, G2 = Gaussian(18.0, 1.8), Gaussian(14.0, 1.4)
NAN, INF = math.nan, math.inf

# call label -> (name of the argument x stands for, the call)
CALLS = {
    "compat_prob(CompatQuery(d=x))": ("d", lambda x: compat_prob(CompatQuery(G1, G2, d=x))),
    "compat_prob(CompatQuery(t=x))": ("t", lambda x: compat_prob(CompatQuery(G1, G2, t=x))),
    "compat_prob_known(x, 15, g)": ("d", lambda x: compat_prob_known(x, 15.0, G2)),
    "compat_prob_known(1, x, g)": ("x1", lambda x: compat_prob_known(1.0, x, G2)),
    "range_prob(x, 15, g)": ("x_lo", lambda x: range_prob(x, 15.0, G2)),
    "range_prob(13, x, g)": ("x_hi", lambda x: range_prob(13.0, x, G2)),
    "prob_at_least(x, g)": ("x0", lambda x: prob_at_least(x, G2)),
    "prob_at_most(x, g)": ("x0", lambda x: prob_at_most(x, G2)),
    "compat_prob_ratio_form(x, .1, .1, 1)": (
        "r", lambda x: compat_prob_ratio_form(x, .1, .1, 1.0)),
    "compat_prob_ratio_form(1.2, x, .1, 1)": (
        "s1", lambda x: compat_prob_ratio_form(1.2, x, .1, 1.0)),
    "compat_prob_ratio_form(1.2, .1, x, 1)": (
        "s2", lambda x: compat_prob_ratio_form(1.2, .1, x, 1.0)),
    "compat_prob_ratio_form(1.2, .1, .1, x)": (
        "t", lambda x: compat_prob_ratio_form(1.2, .1, .1, x)),
    "rule_probability(x, 1, .1, .1, 1.2)": ("mu", lambda x: rule_probability(x, 1.0, .1, .1, 1.2)),
    "rule_probability(30, x, .1, .1, 1.2)": (
        "delta", lambda x: rule_probability(30.0, x, .1, .1, 1.2)),
    "rule_probability(30, 1, x, .1, 1.2)": (
        "s1", lambda x: rule_probability(30.0, 1.0, x, .1, 1.2)),
    "rule_probability(30, 1, .1, x, 1.2)": (
        "s2", lambda x: rule_probability(30.0, 1.0, .1, x, 1.2)),
    "rule_probability(30, 1, .1, .1, x)": ("t", lambda x: rule_probability(30.0, 1.0, .1, .1, x)),
    "audit_hyaps([x], .1, .1, 1.2)": ("mu", lambda x: audit_hyaps([x], .1, .1, 1.2)),
    "audit_hyaps([30], x, .1, 1.2)": ("s1", lambda x: audit_hyaps([30.0], x, .1, 1.2)),
    "audit_hyaps([30], .1, x, 1.2)": ("s2", lambda x: audit_hyaps([30.0], .1, x, 1.2)),
    "audit_hyaps([30], .1, .1, x)": ("t", lambda x: audit_hyaps([30.0], .1, .1, x)),
    "solve_m(x, .1, .1, 1.2)": ("p_min", lambda x: solve_m(x, .1, .1, 1.2)),
    "solve_m(.05, x, .1, 1.2)": ("s1", lambda x: solve_m(.05, x, .1, 1.2)),
    "solve_m(.05, .1, x, 1.2)": ("s2", lambda x: solve_m(.05, .1, x, 1.2)),
    "solve_m(.05, .1, .1, x)": ("t", lambda x: solve_m(.05, .1, .1, x)),
    "Gaussian(x, 1)": ("mu", lambda x: Gaussian(x, 1.0)),
    "Gaussian(18, x)": ("sigma", lambda x: Gaussian(18.0, x)),
    "AgeProfile(x, .15)": ("mu", lambda x: AgeProfile(x, .15)),
    "AgeProfile(18, x)": ("s", lambda x: AgeProfile(18.0, x)),
    "AgeProfile.from_sigma(x, 2.7)": ("mu", lambda x: AgeProfile.from_sigma(x, 2.7)),
    "AgeProfile.from_sigma(18, x)": ("sigma", lambda x: AgeProfile.from_sigma(18.0, x)),
    "gaussian_pdf(x, g)": ("x", lambda x: gaussian_pdf(x, G2)),
    "same_age_diff_stats(x)": ("sigma", same_age_diff_stats),
    "d_scope(x, 1.4)": ("sigma1", lambda x: d_scope(x, 1.4)),
    "d_scope(1.8, x)": ("sigma2", lambda x: d_scope(1.8, x)),
    "same_age_prob(x)": ("t", same_age_prob),
    "symmetric_range_prob(x, g)": ("d", lambda x: symmetric_range_prob(x, G2)),
    "hyaps_bounds(x)": ("mu", hyaps_bounds),
    "AgeLimitSpec('min', x, .3, .15)": ("x_limit", lambda x: AgeLimitSpec("min", x, .3, .15)),
    "AgeLimitSpec('min', 18, x, .15)": ("p_limit", lambda x: AgeLimitSpec("min", 18.0, x, .15)),
    "AgeLimitSpec('min', 18, .3, x)": ("s", lambda x: AgeLimitSpec("min", 18.0, .3, x)),
    "mental_limit_from_chrono(x, .15, .3, 'max')": (
        "mu_limit", lambda x: mental_limit_from_chrono(x, .15, .3, "max")),
    "mental_limit_from_chrono(18, x, .3, 'max')": (
        "s", lambda x: mental_limit_from_chrono(18.0, x, .3, "max")),
    "mental_limit_from_chrono(18, .15, x, 'min')": (
        "p_limit", lambda x: mental_limit_from_chrono(18.0, .15, x, "min")),
    "ErrorBudget(x, .1, .1)": ("d_err", lambda x: ErrorBudget(x, .1, .1)),
    "ErrorBudget(.1, x, .1)": ("sigma1_err", lambda x: ErrorBudget(.1, x, .1)),
    "ErrorBudget(.1, .1, x)": ("sigma2_err", lambda x: ErrorBudget(.1, .1, x)),
    "slice_params(g1, g2, x)": ("delta", lambda x: slice_params(G1, G2, x)),
    "error_ratio_bounds(x, 2, 2)": ("a", lambda x: error_ratio_bounds(x, 2.0, 2.0)),
    "error_ratio_bounds(2, x, 2)": ("b", lambda x: error_ratio_bounds(2.0, x, 2.0)),
    "error_ratio_bounds(2, 2, x)": ("c", lambda x: error_ratio_bounds(2.0, 2.0, x)),
}

# The only (call, argument) pair that returns a value; every other pair raises.
RETURNS = {
    # an age of -inf lies below the rule's fixed point and is skipped
    ("audit_hyaps([x], .1, .1, 1.2)", -INF): [],
}


@pytest.mark.parametrize("x", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", list(CALLS))
def test_nonfinite_argument(call, x):
    name, fn = CALLS[call]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        if (call, x) in RETURNS:
            assert fn(x) == RETURNS[call, x]
        else:
            with pytest.raises(ValueError) as info:
                fn(x)
            # the message leads with the argument's name, not a kernel's
            assert re.search(rf"(^|\s){re.escape(name)} must ", str(info.value)), \
                str(info.value)
