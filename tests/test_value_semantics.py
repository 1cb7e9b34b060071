"""Equality, hashing, calling and printing of the value types."""

from ualgebra import FiniteAlgebra, Partition, klein_four, parse_signature, quotient, subalgebra_generated
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
