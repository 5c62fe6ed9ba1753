"""The value-type contract: the five record classes and the seven named tuples.

A ``_Value`` record is a checked input and a named tuple is a result.  Both
kinds construct by keyword, and compare, hash, print, match, pickle and copy
by their field tuple; neither has an instance dict, and neither lets a
field be assigned or deleted.

Each record behaves as a frozen dataclass would, so that no field changes
after its constructor's checks: assigning or deleting a field raises
AttributeError with a frozen dataclass's message, a record equals only its
own class, and pickle and copy rebuild the instance without calling its
constructor (``CompatQuery`` refuses d and t together, yet every instance
holds both).  A record unpickles only from the tuple of all its fields: a
dict state, as a dataclass pickled before the records had slots, or a
tuple of the wrong length is refused.
"""

import copy
import copyreg
import pickle

import pytest

import agecompat
from agecompat.compat import CompatQuery, NormalizedProb
from agecompat.expect import NormalTail
from agecompat.model import AgeProfile, DiffStats, Gaussian, _Value
from agecompat.policy import AgeLimitSpec, RuleAuditPoint
from agecompat.special import QuadratureError
from agecompat.verify import ErrorBudget, McEstimate, SliceParams, TruncationBound

G1, G2 = Gaussian(18.0, 1.8), Gaussian(14.0, 1.4)

# (class, keyword arguments, field names in order)
RECORDS = [
    (Gaussian, dict(mu=18.0, sigma=1.8), ("mu", "sigma")),
    (AgeProfile, dict(mu=18.0, s=0.1), ("mu", "s")),
    (CompatQuery, dict(g1=G1, g2=G2, d=1.4), ("g1", "g2", "d", "t")),
    (AgeLimitSpec, dict(kind="min", x_limit=18.0, p_limit=0.3, s=0.15),
     ("kind", "x_limit", "p_limit", "s")),
    (ErrorBudget, dict(d_err=0.1, sigma1_err=0.05, sigma2_err=0.05),
     ("d_err", "sigma1_err", "sigma2_err")),
]
TUPLES = [
    (NormalizedProb, dict(value=0.5, swapped=True, denominator=0.2),
     ("value", "swapped", "denominator")),
    (NormalTail, dict(value=0.3, valid=False), ("value", "valid")),
    (TruncationBound, dict(worst_slice=1e-5, loose=2e-5), ("worst_slice", "loose")),
    (McEstimate, dict(estimate=0.11, stderr=0.001), ("estimate", "stderr")),
    (DiffStats, dict(sigma_d=1.5, mean_d=1.2, disp_d=0.9), ("sigma_d", "mean_d", "disp_d")),
    (RuleAuditPoint, dict(mu=30.0, delta=16.0, p_min=0.1, err_term=14.0 / 30.0,
                          flagged=True), ("mu", "delta", "p_min", "err_term", "flagged")),
    (SliceParams, dict(mu12=16.0, sigma12=1.1), ("mu12", "sigma12")),
]
ALL = RECORDS + TUPLES


def _ids(cases):
    return [cls.__name__ for cls, _, _ in cases]


def test_every_public_type_is_a_record_or_a_named_tuple():
    # so that a new public type cannot skip the contract tests below
    public = {getattr(agecompat, name) for name in agecompat.__all__}
    types = {value for value in public if isinstance(value, type)} - {QuadratureError}
    records = {cls for cls, _, _ in RECORDS}
    tuples = {cls for cls, _, _ in TUPLES}
    assert records | tuples == types and not records & tuples
    assert set(_Value.__subclasses__()) == records
    for cls in tuples:
        assert issubclass(cls, tuple) and cls._fields and not issubclass(cls, _Value)


@pytest.mark.parametrize("cls, kwargs, fields", ALL, ids=_ids(ALL))
def test_value_contract(cls, kwargs, fields):
    obj = cls(**kwargs)
    values = tuple(getattr(obj, name) for name in fields)
    assert values[:len(kwargs)] == tuple(kwargs.values())
    assert cls.__match_args__ == fields
    assert repr(obj) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, values)) + ")"
    assert obj == cls(**kwargs) and hash(obj) == hash(values)
    # a record equals only its own class; a named tuple is a tuple
    assert (obj == values) is issubclass(cls, tuple)


@pytest.mark.parametrize("cls, kwargs, fields", ALL, ids=_ids(ALL))
def test_pickle_and_copy_round_trips(cls, kwargs, fields):
    obj = cls(**kwargs)
    clones = [pickle.loads(pickle.dumps(obj, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    clones += [copy.copy(obj), copy.deepcopy(obj)]
    for clone in clones:
        assert type(clone) is cls
        assert clone == obj and hash(clone) == hash(obj) and repr(clone) == repr(obj)


@pytest.mark.parametrize("cls, kwargs, fields", ALL, ids=_ids(ALL))
def test_no_instance_dict(cls, kwargs, fields):
    assert not hasattr(cls(**kwargs), "__dict__")


@pytest.mark.parametrize("cls, kwargs, fields", RECORDS, ids=_ids(RECORDS))
def test_records_are_frozen(cls, kwargs, fields):
    obj = cls(**kwargs)
    for name in fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, 1.0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
    assert obj == cls(**kwargs)


@pytest.mark.parametrize("cls, kwargs, fields", TUPLES, ids=_ids(TUPLES))
def test_tuples_are_frozen(cls, kwargs, fields):
    obj = cls(**kwargs)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == cls(**kwargs)


class _Pickled:
    """Pickles as an instance of ``cls`` rebuilt from ``state``."""

    def __init__(self, cls, state):
        self.cls, self.state = cls, state

    def __reduce__(self):
        return copyreg._reconstructor, (self.cls, object, None), self.state


@pytest.mark.parametrize("cls, kwargs, fields", RECORDS, ids=_ids(RECORDS))
def test_unpickling_a_foreign_state_fails_loudly(cls, kwargs, fields):
    values = tuple(getattr(cls(**kwargs), name) for name in fields)
    foreign = [dict(zip(fields, values)), values[:-1], values + (None,), list(values)]
    for state in foreign:
        blob = pickle.dumps(_Pickled(cls, state))
        with pytest.raises(TypeError, match=f"^{cls.__name__} state must be a tuple "
                                            f"of its {len(fields)} fields, got "):
            pickle.loads(blob)
    assert pickle.loads(pickle.dumps(_Pickled(cls, values))) == cls(**kwargs)
