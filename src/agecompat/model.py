"""Domain types and the distributional identities they obey.

A person's mental age is modeled as a Gaussian centered on their
chronological age, with a standard deviation proportional to it
(sigma = s * mu).  The difference of two such variables is again
Gaussian, and the absolute difference within one cohort follows a
half-normal law whose moments set the natural scale for the allowed
mental-age gap.

All types are immutable values and all operations pure.
"""

import math
import sys
from collections import namedtuple
from operator import attrgetter

from .special import _check_finite, _check_positive, _pdf

__all__ = [
    "Gaussian", "AgeProfile", "DiffStats",
    "gaussian_pdf", "convolve_diff", "same_age_diff_stats", "d_scope",
    "SIGMA_RATIO_LOW", "SIGMA_RATIO_HIGH",
    "MEAN_DIFF_COEF", "DIFF_DISPERSION_COEF", "D_SCOPE_UPPER_COEF",
]

# Empirically supported band for the dispersion-to-age ratio s.
SIGMA_RATIO_LOW = 0.1
SIGMA_RATIO_HIGH = 0.2

# Half-normal moments of |X1 - X2| for X1, X2 ~ N(mu, sigma**2):
#   mean     = (2/sqrt(pi)) * sigma          ~ 1.128 sigma
#   spread   = sqrt(2*(1 - 2/pi)) * sigma    ~ 0.853 sigma
MEAN_DIFF_COEF = 2.0 / math.sqrt(math.pi)
DIFF_DISPERSION_COEF = math.sqrt(2.0 * (1.0 - 2.0 / math.pi))
D_SCOPE_UPPER_COEF = MEAN_DIFF_COEF + DIFF_DISPERSION_COEF


def _field(slot):
    """Read-only property over ``slot`` (``"_mu"`` gives field ``mu``),
    refusing assignment and deletion with a frozen dataclass's messages."""
    name = slot[1:]

    def refuse_set(self, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def refuse_delete(self):
        raise AttributeError(f"cannot delete field {name!r}")
    return property(attrgetter(slot), refuse_set, refuse_delete, f"The {name} field (read-only).")


class _Value:
    """Immutable slotted record: the base of the package's checked inputs
    (``Gaussian``, ``AgeProfile``, ``CompatQuery``, ``AgeLimitSpec``,
    ``ErrorBudget``), whose fields cannot change after their constructor's
    checks.  A result is a named tuple instead.

    A subclass lists one slot ``_x`` per field ``x`` in ``__slots__``, in
    constructor order, and its ``__init__`` stores them with plain
    assignments.  Each field is a read-only property over its slot, whose
    setter and deleter raise a frozen dataclass's messages; a name that is
    neither is refused by the slots themselves.  Only the per-pair path
    (``CompatQuery.__init__`` and ``compat_prob``) reads the slots, since a
    slot read is several times cheaper than a property read; everything
    else reads the fields.  A slot stays writable by name, as a field
    always was through ``object.__setattr__``: the freeze guards against
    mistakes, not against intent.  ``==``, ``hash`` and ``repr`` go by the
    field tuple.  Pickle and copy rebuild through the slots, never the
    constructor: ``CompatQuery`` refuses d and t together.
    ``__setstate__`` takes only a tuple of every field, so a state of
    another shape fails loudly instead of filling the slots with junk.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(slot[1:] for slot in cls.__slots__)
        for slot in cls.__slots__:
            setattr(cls, slot[1:], _field(slot))

    def __getstate__(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state):
        if not isinstance(state, tuple) or len(state) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} state must be a tuple of "
                            f"its {len(self.__slots__)} fields, got {state!r}")
        for slot, value in zip(self.__slots__, state):
            setattr(self, slot, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__getstate__() == other.__getstate__()
        return NotImplemented

    def __hash__(self):
        return hash(self.__getstate__())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


_SIGMA_MAX = sys.float_info.max / math.sqrt(2.0)


class Gaussian(_Value):
    """Mental-age density: mean mu and standard deviation sigma, in years.

    sigma is at most the float maximum over sqrt(2), about 1.2712e308, so
    that sqrt(2) sigma and the pair scale hypot(sigma1, sigma2) stay finite.
    """

    __slots__ = ("_mu", "_sigma")

    def __init__(self, mu: float, sigma: float):
        _check_finite(mu, "mu")
        if not 0.0 < sigma <= _SIGMA_MAX:
            _check_positive(sigma, "sigma")
            raise ValueError(f"sigma must be at most {_SIGMA_MAX!r} (the float maximum "
                             f"over sqrt(2)), got {sigma!r}")
        self._mu = mu
        self._sigma = sigma


class AgeProfile(_Value):
    """Chronological age mu with relative dispersion s (sigma = s * mu).

    The model is parameterized by the ratio s rather than sigma because
    the dispersion of test scores tracks the cohort mean across ages.
    Values of s outside [0.1, 0.2] are allowed but flagged via
    :attr:`in_supported_band`, since the empirical studies cluster there.
    """

    __slots__ = ("_mu", "_s")

    def __init__(self, mu: float, s: float):
        _check_positive(mu, "mu")
        _check_positive(s, "s")
        self._mu = mu
        self._s = s

    @classmethod
    def from_sigma(cls, mu: float, sigma: float) -> "AgeProfile":
        """Alternative constructor for callers holding an absolute sigma."""
        _check_positive(mu, "mu")
        _check_positive(sigma, "sigma")
        return cls(mu, sigma / mu)

    @property
    def sigma(self) -> float:
        return self.s * self.mu

    @property
    def gaussian(self) -> Gaussian:
        return Gaussian(self.mu, self.sigma)

    @property
    def in_supported_band(self) -> bool:
        return SIGMA_RATIO_LOW <= self.s <= SIGMA_RATIO_HIGH


DiffStats = namedtuple("DiffStats", "sigma_d mean_d disp_d")
DiffStats.__doc__ = """Moments of the same-cohort mental-age difference |X1 - X2|.

sigma_d is the scale of the signed difference, mean_d and disp_d the
mean and dispersion of its absolute value (half-normal law).
"""


def gaussian_pdf(x: float, g: Gaussian) -> float:
    """Density of g at x; peaks at 1/(sqrt(2*pi)*sigma) when x = mu."""
    return _pdf((x - g.mu) / g.sigma) / g.sigma


def convolve_diff(g1: Gaussian, g2: Gaussian) -> Gaussian:
    """Distribution of X1 - X2: means subtract, variances add."""
    return Gaussian(g1.mu - g2.mu, math.hypot(g1.sigma, g2.sigma))


def same_age_diff_stats(sigma: float) -> DiffStats:
    """Half-normal moments of |X1 - X2| within one cohort of scale sigma."""
    _check_positive(sigma, "sigma")
    return DiffStats(
        sigma_d=math.sqrt(2.0) * sigma,
        mean_d=MEAN_DIFF_COEF * sigma,
        disp_d=DIFF_DISPERSION_COEF * sigma,
    )


def d_scope(sigma1: float, sigma2: float) -> tuple[float, float]:
    """Reasonable range for the allowed mental-age difference d.

    Lower edge: the smaller cohort dispersion (a stricter d would be
    tighter than natural same-cohort scatter).  Upper edge: mean plus
    dispersion of the half-normal difference law, ~1.981 * sigma.
    """
    _check_positive(sigma1, "sigma1")
    _check_positive(sigma2, "sigma2")
    lo = min(sigma1, sigma2)
    return (lo, D_SCOPE_UPPER_COEF * lo)
