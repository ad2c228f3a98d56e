"""The package's small records: NamedTuples that check and coerce their fields.

Each is a tuple of its fields.  A record with construction-time checks is a
field tuple's subclass whose ``__new__`` checks, coerces and then builds, so
``_replace`` and ``_make`` check too.
"""

import math

import numpy as np
import pytest

from gdiscord.channels import CanonicalForm, ChannelClass, GaussianChannelParams
from gdiscord.errors import DomainError, InvalidChannelParams
from gdiscord.family import FamilyParams
from gdiscord.remote_prep import ConditionalState, GaussianMeasurement
from gdiscord.verification import CheckResult

# each record built with its defaults, or with arguments it coerces, and its repr
RECORDS = {
    "GaussianChannelParams": (lambda: GaussianChannelParams(0.5, 0.6),
                              "GaussianChannelParams(tau=0.5, eta=0.6)"),
    "ChannelClass": (lambda: ChannelClass(CanonicalForm.B2_IDENTITY),
                     "ChannelClass(label=<CanonicalForm.B2_IDENTITY: 'B2_identity'>,"
                     " omega=None, n_bar=None)"),
    "FamilyParams": (lambda: FamilyParams(2.0, 1.0, 0.5, 0.5),
                     "FamilyParams(b=2.0, r=1.0, tau=0.5, eta=0.5, sign=1)"),
    "GaussianMeasurement": (lambda: GaussianMeasurement(2, 4),
                            "GaussianMeasurement(u=2.0, phi=0.8584073464102069)"),
    "ConditionalState": (lambda: ConditionalState([0, 0], [[1, 0], [0, 1]]),
                         "ConditionalState(mean=array([0., 0.]), cm=array([[1., 0.],\n"
                         "       [0., 1.]]))"),
    "CheckResult": (lambda: CheckResult("name", True, "detail", 1.0),
                    "CheckResult(name='name', passed=True, detail='detail', seconds=1.0)"),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_is_a_read_only_tuple_of_its_fields(name):
    build, text = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == text
    assert isinstance(record, tuple) and len(record) == len(record._fields)
    assert [getattr(record, field) for field in record._fields] == list(record)
    assert repr(record._replace()) == text
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 0


def test_records_coerce_their_fields():
    m = GaussianMeasurement(2, 4)
    assert (type(m.u), m.phi) == (float, 4.0 % math.pi)
    assert GaussianMeasurement(np.float64(0.5)) == (0.5, 0.0)
    assert GaussianMeasurement.homodyne_p(-1.0).phi == -1.0 % math.pi
    state = ConditionalState([0, 0], [[1, 0], [0, 1]])
    assert (state.mean.dtype, state.mean.shape) == (np.float64, (2,))
    assert (state.cm.dtype, state.cm.shape) == (np.float64, (2, 2))
    assert ConditionalState._make(([1, 2], [1, 0, 0, 1])).cm.shape == (2, 2)


def test_records_compare_as_tuples():
    fp = FamilyParams(2.0, 1.0, 0.5, 0.5)
    assert fp == (2.0, 1.0, 0.5, 0.5, 1)
    b, r, tau, eta, sign = fp
    assert (b, r, fp[2], eta, sign) == (2.0, 1.0, tau, 0.5, 1)
    assert fp.channel == GaussianChannelParams(0.5, 0.5) == (0.5, 0.5)


FAMILY = FamilyParams(2.0, 1.0, 0.5, 0.5)

# a rejected construction, the error it raises and its message
REJECTED = [
    (lambda: GaussianChannelParams(math.nan, 1.0), InvalidChannelParams,
     "channel parameters must be finite, got tau=nan, eta=1.0"),
    (lambda: GaussianChannelParams(0.5, math.inf), InvalidChannelParams,
     "channel parameters must be finite, got tau=0.5, eta=inf"),
    (lambda: GaussianChannelParams(0.5, 0.4), InvalidChannelParams,
     "eta = 0.4 violates eta >= |1 - tau| = 0.5"),
    (lambda: FamilyParams(0.5, 1.0, 0.5, 0.5), DomainError,
     "EPR variance must be finite and >= 1, got 0.5"),
    (lambda: FamilyParams(math.nan, 1.0, 0.5, 0.5), DomainError,
     "EPR variance must be finite and >= 1, got nan"),
    (lambda: FamilyParams(2.0, 3.0, 0.5, 0.5), DomainError, "r = 3.0 outside [1/b, b] = [0.5, 2.0]"),
    (lambda: FamilyParams(2.0, 1.0, 0.5, 0.5, 0), DomainError, "EPR sign must be +1 or -1, got 0"),
    (lambda: FamilyParams(2.0, 1.0, 0.5, 0.4), InvalidChannelParams,
     "eta = 0.4 violates eta >= |1 - tau| = 0.5"),
    (lambda: FamilyParams(2.0, 1.0, math.inf, 0.5), InvalidChannelParams,
     "channel parameters must be finite, got tau=inf, eta=0.5"),
    (lambda: FAMILY._replace(r=3.0), DomainError, "r = 3.0 outside [1/b, b] = [0.5, 2.0]"),
    (lambda: GaussianMeasurement(math.nan), DomainError,
     "measurement squeezing u must be >= 0, got nan"),
    (lambda: GaussianMeasurement(-1), DomainError, "measurement squeezing u must be >= 0, got -1"),
    (lambda: GaussianMeasurement(1.0)._replace(u=-0.5), DomainError,
     "measurement squeezing u must be >= 0, got -0.5"),
    (lambda: GaussianMeasurement(1.0, math.nan), DomainError,
     "measurement angle phi must be finite, got nan"),
    (lambda: GaussianMeasurement(1.0, math.inf), DomainError,
     "measurement angle phi must be finite, got inf"),
    (lambda: GaussianMeasurement(1.0)._replace(phi=math.inf), DomainError,
     "measurement angle phi must be finite, got inf"),
    (lambda: ConditionalState([0, 0, 0], [[1, 0], [0, 1]]), ValueError,
     "cannot reshape array of size 3 into shape (2,)"),
]


@pytest.mark.parametrize("build, error, message", REJECTED, ids=[
    "channel-nan-tau", "channel-inf-eta", "channel-eta-below-bound", "family-b-below-1",
    "family-nan-b", "family-r-outside", "family-sign-0", "family-eta-below-bound",
    "family-inf-tau", "family-replace-r", "measurement-nan-u", "measurement-negative-u",
    "measurement-replace-u", "measurement-nan-phi", "measurement-inf-phi", "measurement-replace-phi",
    "conditional-mean-of-3"])
def test_record_rejects_its_invalid_fields(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message
