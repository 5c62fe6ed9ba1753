"""Mental-age compatibility probabilities from a Gaussian age model.

Mental age is modeled as normally distributed around the chronological
age with standard deviation proportional to it.  The package provides
the closed-form probability that two people's mental ages lie within a
given difference, population-level expectations built on it, age-limit
conversions between mental and chronological thresholds, an audit of
the half-your-age-plus-seven rule, and independent quadrature and
Monte-Carlo oracles used to certify the closed forms.
"""

from importlib import import_module

# Public names, per submodule.  A submodule loads when one of its names is
# first read, so `python -m agecompat compat` never loads the oracles.
_EXPORTS = {
    "compat": "CompatQuery NormalizedProb compat_prob compat_prob_known "
              "compat_prob_normalized compat_prob_ratio_form prob_at_least "
              "prob_at_most range_prob same_age_prob symmetric_range_prob",
    "expect": "NormalTail at_least_k_exact at_least_k_normal expected_pairs "
              "expected_with_at_least_one mean_counterparts normal_approx_valid",
    "model": "AgeProfile DiffStats Gaussian convolve_diff d_scope gaussian_pdf "
             "same_age_diff_stats",
    "policy": "DEFAULT_T AgeLimitSpec RuleAuditPoint audit_hyaps chrono_max_age "
              "chrono_min_age hyaps_bounds mental_limit_from_chrono rule_probability "
              "solve_m",
    "special": "erf erfc normal_cdf normal_pdf normal_quantile",
    "verify": "ErrorBudget McEstimate QuadratureError SliceParams TruncationBound "
              "error_propagation error_ratio error_ratio_bounds mc_oracle "
              "quad_oracle slice_params truncation_bound",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:  # `agecompat.verify` works after a bare `import agecompat`
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
