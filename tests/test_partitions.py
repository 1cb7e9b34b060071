import pytest

from ualgebra import Partition, all_partitions, bell_number, meet
from ualgebra.errors import PartitionError, SizeMismatchError

from _oracles import naive_partitions


def test_canonical_form():
    # labels are relabelled by first occurrence
    p = Partition([5, 9, 5, 9])
    assert p.block_of == (0, 1, 0, 1)
    assert p.blocks() == ((0, 2), (1, 3))
    assert p.format() == "0,2|1,3"


def test_parse_and_canonicalize():
    assert Partition.parse("1,3|0,2") == Partition.parse("0,2|1,3")
    assert Partition.parse("2,0|3,1").format() == "0,2|1,3"
    assert Partition.parse("0").format() == "0"


def test_parse_rejects_duplicates_and_gaps():
    with pytest.raises(PartitionError):
        Partition.parse("0,1|1,2")
    with pytest.raises(PartitionError):
        Partition.parse("0,3")  # element 1,2 missing, 3 out of range for size 2
    with pytest.raises(PartitionError):
        Partition.parse("0,x")


def test_refines():
    fine = Partition.parse("0|1|2|3")
    mid = Partition.parse("0,2|1,3")
    coarse = Partition.parse("0,1,2,3")
    assert fine.refines(mid) and mid.refines(coarse) and fine.refines(coarse)
    assert not coarse.refines(mid) and not mid.refines(fine)
    assert mid.refines(mid)


def test_refines_agrees_with_block_containment():
    parts = list(all_partitions(5))
    for a in parts:
        for b in parts:
            inside = all(any(set(x) <= set(y) for y in b.blocks()) for x in a.blocks())
            assert a.refines(b) is inside


def test_meet_examples():
    a = Partition.parse("0,2|1,3")
    b = Partition.parse("0,1|2,3")
    assert meet(a, b) == Partition.singletons(4)
    assert meet(a, a) == a
    assert meet(a, Partition.single_block(4)) == a


def test_meet_size_mismatch():
    with pytest.raises(SizeMismatchError):
        Partition.singletons(3).meet(Partition.singletons(4))


def test_from_pairs():
    p = Partition.from_pairs(5, [(0, 2), (2, 4)])
    assert p.format() == "0,2,4|1|3"
    assert Partition.from_pairs(3, []) == Partition.singletons(3)


def test_pairs_regenerate():
    p = Partition.parse("0,2,4|1,3")
    assert Partition.from_pairs(5, p.pairs()) == p


def test_all_partitions_counts_and_canonical_order():
    for n in range(1, 7):
        parts = list(all_partitions(n))
        assert len(parts) == bell_number(n)
        assert len(set(parts)) == len(parts)
        labellings = [p.block_of for p in parts]
        assert labellings == sorted(labellings)  # lexicographic canonical order
        # agree with the recursive oracle
        oracle = {frozenset(map(frozenset, p.blocks())) for p in parts}
        assert oracle == set(naive_partitions(n))


def test_bell_numbers():
    assert [bell_number(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_meet_is_greatest_lower_bound():
    parts = list(all_partitions(4))
    for a in parts:
        for b in parts:
            m = a.meet(b)
            assert m.refines(a) and m.refines(b)
            for c in parts:
                if c.refines(a) and c.refines(b):
                    assert c.refines(m)
