"""The per-batch records are slotted, frozen dataclasses: no instance dict,
the same constructor forms, and no assignment after construction."""

import dataclasses

import numpy as np
import pytest

from driftwatch.bench import RunRecord
from driftwatch.detectors import DriftVerdict, ModelType
from driftwatch.telemetry import Batch

VALUES = np.array([1.0, 2.0, 3.0])
VERDICT = DriftVerdict(True, 1.5, "dbscan: k")
RUN_FIELDS = (ModelType.DBSCAN, 3, 27.0, 36.0, VERDICT, True, 0.001, 512)

# every record class with its field values, in declaration order
CASES = {
    "Batch": (Batch, (0.0, 9.0, VALUES)),
    "DriftVerdict": (DriftVerdict, (True, 1.5, "dbscan: k")),
    "RunRecord": (RunRecord, RUN_FIELDS),
}


def forms(cls, args):
    """The record built positionally, by keyword, and each mix of the two."""
    names = [f.name for f in dataclasses.fields(cls)]
    for split in range(len(args) + 1):
        yield cls(*args[:split], **dict(zip(names[split:], args[split:])))


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_no_instance_dict(case):
    cls, args = case
    record = cls(*args)
    assert not hasattr(record, "__dict__")
    assert set(cls.__slots__) == {f.name for f in dataclasses.fields(cls)}


def test_every_constructor_form_gives_the_same_fields(case):
    cls, args = case
    for record in forms(cls, args):
        for field, expected in zip(dataclasses.fields(cls), args):
            got = getattr(record, field.name)
            if isinstance(expected, np.ndarray):
                assert np.array_equal(got, expected)
            else:
                assert got == expected


def test_assignment_raises(case):
    cls, args = case
    record = cls(*args)
    for field in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, getattr(record, field.name))
    # a name that is not a field has no slot to go to; the generated frozen
    # __setattr__ may raise TypeError for it, as it names the pre-slots class
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        record.extra = 1
    assert not hasattr(record, "extra")
