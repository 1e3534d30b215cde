"""The value records: named tuples whose equality checks the class."""

import pytest

from springerbij.families import ThreeWIP
from springerbij.paths import LabeledBallotPath, LaguerreHistory
from springerbij.permcore import MarkedPermutation, Record

# each record, one of another class with equal fields, and the record's repr
RECORDS = [
    (LabeledBallotPath("UD", (0, 0)), LaguerreHistory("UD", (0, 0)),
     "LabeledBallotPath(steps='UD', weights=(0, 0))"),
    (LaguerreHistory("UD", (0, 0)), LabeledBallotPath("UD", (0, 0)),
     "LaguerreHistory(steps='UD', weights=(0, 0))"),
    (MarkedPermutation((2, 1), (1, 2)), ThreeWIP((2, 1), (1, 2)),
     "MarkedPermutation(perm=(2, 1), marks=(1, 2))"),
    (ThreeWIP((2, 1), (1, 2)), MarkedPermutation((2, 1), (1, 2)),
     "ThreeWIP(sigma=(2, 1), pi=(1, 2))"),
]


@pytest.mark.parametrize("record, other, text", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
def test_a_record_equals_only_its_own_class(record, other, text):
    cls = type(record)
    same = cls(**dict(zip(cls._fields, record)))  # by keyword, a new object
    plain = tuple(record)
    assert isinstance(record, Record) and plain == (*record,) and same is not record
    assert record == same and not record != same
    for stranger in (other, plain):
        assert record != stranger and stranger != record
        assert not record == stranger and not stranger == record
    assert hash(record) == hash(same) and len({record, same}) == 1
    assert len({record, same, other, plain}) == 3
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], record[1])
    with pytest.raises(AttributeError):
        record.note = "a record has no __dict__"
    assert repr(record) == text
    replaced = record._replace(**{cls._fields[1]: record[0]})
    assert type(replaced) is cls and replaced == cls(record[0], record[0])
