"""Non-finite arguments at the public interval-probability calls.

Every interval probability reaches ``special._cdf_diff``, whose one guard
rejects a non-finite or reversed interval; the kernels beneath it check
nothing.  This table pins, for NaN, +inf and -inf in each argument, which
calls raise ``ValueError`` and which return a value: an infinite
dispersion ratio of the older person, or an infinite age with a finite
gap (gap ratio 0), still gives a finite interval and so a probability.
"""

import math
import warnings

import pytest

from agecompat.compat import (
    CompatQuery,
    compat_prob,
    compat_prob_known,
    compat_prob_ratio_form,
    range_prob,
)
from agecompat.model import Gaussian
from agecompat.policy import RuleAuditPoint, audit_hyaps, rule_probability, solve_m

G1, G2 = Gaussian(18.0, 1.8), Gaussian(14.0, 1.4)
NAN, INF = math.nan, math.inf

CALLS = {
    "compat_prob(CompatQuery(d=x))": lambda x: compat_prob(CompatQuery(G1, G2, d=x)),
    "compat_prob(CompatQuery(t=x))": lambda x: compat_prob(CompatQuery(G1, G2, t=x)),
    "compat_prob_known(x, 15, g)": lambda x: compat_prob_known(x, 15.0, G2),
    "compat_prob_known(1, x, g)": lambda x: compat_prob_known(1.0, x, G2),
    "range_prob(x, 15, g)": lambda x: range_prob(x, 15.0, G2),
    "range_prob(13, x, g)": lambda x: range_prob(13.0, x, G2),
    "compat_prob_ratio_form(x, .1, .1, 1)": lambda x: compat_prob_ratio_form(x, .1, .1, 1.0),
    "compat_prob_ratio_form(1.2, x, .1, 1)": lambda x: compat_prob_ratio_form(1.2, x, .1, 1.0),
    "compat_prob_ratio_form(1.2, .1, x, 1)": lambda x: compat_prob_ratio_form(1.2, .1, x, 1.0),
    "compat_prob_ratio_form(1.2, .1, .1, x)": lambda x: compat_prob_ratio_form(1.2, .1, .1, x),
    "rule_probability(x, 1, .1, .1, 1.2)": lambda x: rule_probability(x, 1.0, .1, .1, 1.2),
    "rule_probability(30, x, .1, .1, 1.2)": lambda x: rule_probability(30.0, x, .1, .1, 1.2),
    "rule_probability(30, 1, x, .1, 1.2)": lambda x: rule_probability(30.0, 1.0, x, .1, 1.2),
    "rule_probability(30, 1, .1, x, 1.2)": lambda x: rule_probability(30.0, 1.0, .1, x, 1.2),
    "rule_probability(30, 1, .1, .1, x)": lambda x: rule_probability(30.0, 1.0, .1, .1, x),
    "audit_hyaps([x], .1, .1, 1.2)": lambda x: audit_hyaps([x], .1, .1, 1.2),
    "audit_hyaps([30], x, .1, 1.2)": lambda x: audit_hyaps([30.0], x, .1, 1.2),
    "audit_hyaps([30], .1, x, 1.2)": lambda x: audit_hyaps([30.0], .1, x, 1.2),
    "audit_hyaps([30], .1, .1, x)": lambda x: audit_hyaps([30.0], .1, .1, x),
    "solve_m(x, .1, .1, 1.2)": lambda x: solve_m(x, .1, .1, 1.2),
    "solve_m(.05, x, .1, 1.2)": lambda x: solve_m(.05, x, .1, 1.2),
    "solve_m(.05, .1, x, 1.2)": lambda x: solve_m(.05, .1, x, 1.2),
    "solve_m(.05, .1, .1, x)": lambda x: solve_m(.05, .1, .1, x),
}

# The only (call, argument) pairs that return a value; every other pair raises.
RETURNS = {
    ("compat_prob_ratio_form(1.2, x, .1, 1)", INF): 0.0,
    ("rule_probability(x, 1, .1, .1, 1.2)", INF): 0.603856090847926,
    ("rule_probability(30, 1, .1, x, 1.2)", INF): 0.0,
    # an age of -inf lies below the rule's fixed point and is skipped
    ("audit_hyaps([x], .1, .1, 1.2)", -INF): [],
    ("audit_hyaps([30], .1, x, 1.2)", INF): [
        RuleAuditPoint(mu=30.0, delta=16.0, p_min=0.0, err_term=14.0 / 30.0, flagged=True)],
}


@pytest.mark.parametrize("x", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", list(CALLS))
def test_nonfinite_argument(call, x):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        if (call, x) in RETURNS:
            assert CALLS[call](x) == RETURNS[call, x]
        else:
            with pytest.raises(ValueError):
                CALLS[call](x)

