"""Equality, hashing, calling and printing of the value types.

The eight value records are NamedTuples: they keep the reprs, equality,
hashing and immutability they had as frozen records, and they unpack and
compare as the tuples of their fields.  ``CarrierMap`` and ``Variable`` check
their fields on every route that builds one.  Every value type, the slotted
``FiniteAlgebra``, ``Signature`` and ``Partition`` included, pickles at every
protocol through its checks.
"""

import copy
import pickle

import pytest

from ualgebra import (
    Apply,
    CarrierMap,
    Check,
    Constant,
    FiniteAlgebra,
    Partition,
    PrincipalDescriptor,
    Variable,
    adjoined_infinity_monoid,
    cyclic_group,
    klein_four,
    least_factorization,
    parse_signature,
    quotient,
    subalgebra_generated,
)
from ualgebra.errors import ArgumentError, OutOfCarrierError
from ualgebra.translations import principal_translations

Z4_SIG = parse_signature("m/2 i/1 e/0")


def _z4() -> FiniteAlgebra:
    ops = {"m": [[(x + y) % 4 for y in range(4)] for x in range(4)], "i": [0, 3, 2, 1], "e": 0}
    return FiniteAlgebra(Z4_SIG, 4, ops)


def test_one_algebra_built_three_ways_is_one_dict_key():
    X = _z4()
    loaded = FiniteAlgebra.from_json_dict(X.to_json_dict())
    # both routes below build their result with algebra._algebra
    by_quotient, _ = quotient(X, Partition.singletons(4))
    by_closure = subalgebra_generated(X, range(4)).algebra
    built = [X, loaded, by_quotient, by_closure]
    assert all(Y == X and hash(Y) == hash(X) for Y in built)
    names = {Y: "Z4" for Y in built}
    names[klein_four()] = "V4"
    assert len(names) == 2
    assert [names[Y] for Y in (_z4(), *built)] == ["Z4"] * 5
    assert klein_four() != X and klein_four().sig == X.sig


def test_a_translation_called_on_x_reads_its_table():
    translations = principal_translations(_z4())
    assert len(translations) == 5  # x + a for the four a (either slot of m), and i
    for t in translations:
        assert [t(x) for x in range(4)] == list(t.table)
    assert [t(3) for t in translations] == [3, 0, 1, 2, 1]


def test_reprs_name_the_value():
    assert repr(_z4()) == "FiniteAlgebra(size=4, sig='m/2 i/1 e/0')"
    assert repr(Z4_SIG) == "Signature('m/2 i/1 e/0')"
    assert repr(Partition.parse("3,1|2,0")) == "Partition('0,2|1,3')"


def _records():
    """One example of each record -> its repr, and a second example of the same type."""
    X = cyclic_group(4)
    f, f2 = CarrierMap(4, 2, (0, 1, 0, 1)), CarrierMap(4, 1, (0, 0, 0, 0))
    translations = principal_translations(X)
    return [
        (Check(False, (0, 1)), "Check(ok=False, witness=(0, 1))", Check(True)),
        (f, "CarrierMap(source_size=4, target_size=2, values=(0, 1, 0, 1))", f2),
        (
            least_factorization(X, f),
            "Factorization(g=CarrierMap(source_size=4, target_size=2, values=(0, 1, 0, 1)), "
            "Y=FiniteAlgebra(size=2, sig='m/2 i/1 e/0'), "
            "h=CarrierMap(source_size=2, target_size=2, values=(0, 1)), z_size=2)",
            least_factorization(X, f2),
        ),
        (Variable(2), "Variable(index=2)", Variable(1)),
        (Constant("e"), "Constant(symbol='e')", Constant("f")),
        (
            Apply("m", (Variable(1), Constant("e"))),
            "Apply(symbol='m', children=(Variable(index=1), Constant(symbol='e')))",
            Apply("m", (Constant("e"), Variable(1))),
        ),
        (
            PrincipalDescriptor("m", 2, (3,)),
            "PrincipalDescriptor(symbol='m', slot=2, fixed=(3,))",
            PrincipalDescriptor("m", 1, (3,)),
        ),
        (
            translations[1],
            "Translation(table=(1, 2, 3, 0), word=(PrincipalDescriptor(symbol='m', slot=1, fixed=(1,)),))",
            translations[2],
        ),
    ]


RECORDS = _records()
_ids = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, text, other", RECORDS, ids=_ids)
def test_a_record_keeps_its_repr_equality_hash_and_immutability(record, text, other):
    assert repr(record) == text
    twin = type(record)(*record)
    assert twin == record and hash(twin) == hash(record) and twin is not record
    assert type(other) is type(record) and other != record
    assert len({record, twin, other}) == 2
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], other[0])
    with pytest.raises(AttributeError):
        record.note = "mutable"


@pytest.mark.parametrize("record, text, other", RECORDS, ids=_ids)
def test_a_record_survives_a_pickle_round_trip(record, text, other):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(record, protocol))
        assert type(loaded) is type(record) and loaded == record and repr(loaded) == text


# The slotted classes: each pickles as a call of its checking constructor.
SLOTTED = {
    "FiniteAlgebra": adjoined_infinity_monoid(2),
    "Signature": Z4_SIG,
    "Partition": Partition.parse("0,2|1,3"),
}


@pytest.mark.parametrize("value", SLOTTED.values(), ids=SLOTTED)
def test_an_algebra_signature_or_partition_survives_a_pickle_round_trip(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(value, protocol))
        assert type(loaded) is type(value) and loaded == value and hash(loaded) == hash(value)
        assert repr(loaded) == repr(value)


class _Forged:
    """Pickles to the bytes of a value whose ``__reduce__`` returned ``reduce``."""

    def __init__(self, reduce):
        self.reduce = reduce

    def __reduce__(self):
        return self.reduce


def test_a_pickled_algebra_with_an_out_of_carrier_table_is_refused():
    X = cyclic_group(2)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    assert all(pickle.dumps(_Forged(X.__reduce__()), p) == pickle.dumps(X, p) for p in protocols)
    forged = _Forged((FiniteAlgebra, (X.sig, 2, {"m": (0, 1, 1, 2), "i": (0, 1), "e": 0})))
    for protocol in protocols:
        with pytest.raises(OutOfCarrierError, match="table for 'm' has entry 2, carrier size 2"):
            pickle.loads(pickle.dumps(forged, protocol))


@pytest.mark.parametrize("record, text, other", RECORDS, ids=_ids)
def test_a_record_unpacks_into_its_fields_and_equals_their_tuple(record, text, other):
    fields = type(record)._fields
    assert [*record] == [getattr(record, name) for name in fields]
    assert record == tuple(getattr(record, name) for name in fields)
    first, *rest = record
    assert first == record[0] and len(rest) == len(fields) - 1


def test_a_check_is_truthy_exactly_when_it_holds():
    assert not Check(False, (0, 1)) and not Check(False)
    assert Check(True) and Check(True, "found")
    ok, witness = Check(False, (0, 1))
    assert (ok, witness) == (False, (0, 1))
    assert Check(True).witness is None


def _forged_pickles(record, old: int, new: int):
    """Pickles of ``record`` at every protocol, with the one encoding of the int ``old`` made ``new``."""
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(record, protocol)
        if protocol == 0:
            encode = b"I%d\n".__mod__
        else:
            encode = lambda n: b"J" + n.to_bytes(4, "little", signed=True)  # noqa: E731
        assert data.count(encode(old)) == 1
        yield data.replace(encode(old), encode(new))


# A valid record, fields that its check refuses, the check's typed error, and
# an int of the record that its pickles are forged from, with the refused int put in.
CHECKED = {
    "CarrierMap": (CarrierMap(1, 200000, (123456,)), {"values": (200000,)}, OutOfCarrierError, (123456, -123456)),
    "Variable": (Variable(123456), {"index": 0}, ArgumentError, (123456, -123456)),
}


@pytest.mark.parametrize("record, bad, error, forged", CHECKED.values(), ids=CHECKED)
def test_a_checked_record_is_checked_on_every_route_that_builds_one(record, bad, error, forged):
    cls = type(record)
    fields = {**record._asdict(), **bad}
    assert cls(*record) == cls(**record._asdict()) == cls._make(record) == record._replace() == record
    with pytest.raises(error):
        cls(*fields.values())
    with pytest.raises(error):
        cls(**fields)
    with pytest.raises(error):
        cls._make(fields.values())
    with pytest.raises(error):
        record._replace(**bad)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(record, protocol)) == record
    for data in _forged_pickles(record, *forged):
        with pytest.raises(error):
            pickle.loads(data)
    if hasattr(copy, "replace"):  # Python 3.13 and later
        assert copy.replace(record) == record
        with pytest.raises(error):
            copy.replace(record, **bad)
