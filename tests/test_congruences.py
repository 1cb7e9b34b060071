import pytest

from ualgebra import (
    Partition,
    all_congruences,
    all_partitions,
    congruence_generated,
    cyclic_group,
    is_congruence_direct,
    is_congruence_via_translations,
    join_congruences,
    klein_four,
    largest_congruence_below,
    meet,
    semilattice2,
    adjoined_infinity_monoid,
    FiniteAlgebra,
    Signature,
)
from ualgebra.errors import NotACongruenceError, SizeCapError, SizeMismatchError
from _oracles import naive_congruence_labelings, naive_largest_congruence_below

Z4 = cyclic_group(4)
Z6 = cyclic_group(6)

FIXTURES_SMALL = [
    cyclic_group(2),
    cyclic_group(3),
    Z4,
    cyclic_group(5),
    klein_four(),
    semilattice2(),
    adjoined_infinity_monoid(3),
]


def test_direct_examples():
    assert is_congruence_direct(Z4, Partition.parse("0,2|1,3")).ok
    verdict = is_congruence_direct(Z4, Partition.parse("0,1|2,3"))
    assert not verdict.ok
    symbol, xs, ys = verdict.witness
    # a genuine violation: componentwise equivalent, values inequivalent
    part = Partition.parse("0,1|2,3")
    assert all(part.same(a, b) for a, b in zip(xs, ys))
    assert not part.same(Z4.apply(symbol, xs), Z4.apply(symbol, ys))
    assert (symbol, xs, ys) == ("m", (0, 0), (1, 1))
    assert is_congruence_direct(Z4, Partition.singletons(4)).ok


def test_translation_criterion_examples():
    assert is_congruence_via_translations(Z4, Partition.parse("0,2|1,3")).ok
    verdict = is_congruence_via_translations(Z4, Partition.parse("0,1|2,3"))
    assert not verdict.ok
    translation, pair = verdict.witness
    assert translation.table == (1, 2, 3, 0)  # x -> x+1
    assert pair == (0, 1)


def test_no_unary_or_higher_operations_means_everything_is_congruence():
    consts = FiniteAlgebra(Signature([("a", 0), ("b", 0)]), 3, {"a": 0, "b": 2})
    for part in all_partitions(3):
        assert is_congruence_via_translations(consts, part).ok
        assert is_congruence_direct(consts, part).ok


def test_criterion_equivalence_exhaustive():
    # Translation criterion agrees with the direct definition everywhere
    for X in FIXTURES_SMALL:
        if X.size > 5:
            continue
        for part in all_partitions(X.size):
            assert is_congruence_direct(X, part).ok == is_congruence_via_translations(X, part).ok


def test_congruence_generated_examples():
    assert congruence_generated(Z4, [(0, 2)]) == Partition.parse("0,2|1,3")
    assert congruence_generated(Z4, [(0, 1)]) == Partition.single_block(4)
    assert congruence_generated(Z4, []) == Partition.singletons(4)


def test_congruence_generated_is_least():
    # least congruence containing the pairs == meet of all congruences above them
    for X in FIXTURES_SMALL:
        congruences = all_congruences(X)
        pair_sets = [[(0, 1)], [(0, X.size - 1)], [(1, 2)] if X.size > 2 else [(0, 1)]]
        for pairs in pair_sets:
            generated = congruence_generated(X, pairs)
            assert all(generated.same(a, b) for a, b in pairs)
            assert is_congruence_direct(X, generated).ok
            containing = [c for c in congruences if all(c.same(a, b) for a, b in pairs)]
            expectation = containing[0]
            for c in containing[1:]:
                expectation = expectation.meet(c)
            assert generated == expectation


def test_all_congruences_counts():
    assert len(all_congruences(Z4)) == 3
    assert len(all_congruences(Z6)) == 4
    assert len(all_congruences(klein_four())) == 5
    assert len(all_congruences(semilattice2())) == 2


def test_all_congruences_matches_naive_oracle():
    for X in FIXTURES_SMALL:
        got = {c.block_of for c in all_congruences(X)}
        expected = {tuple(Partition(lab).block_of) for lab in naive_congruence_labelings(X)}
        assert got == expected
        # bounds present, closed under meet
        congruences = all_congruences(X)
        assert Partition.singletons(X.size) in congruences
        assert Partition.single_block(X.size) in congruences
        for a in congruences:
            for b in congruences:
                assert meet(a, b) in congruences


def test_all_congruences_cap():
    with pytest.raises(SizeCapError):
        all_congruences(cyclic_group(6), max_partitions=10)


def test_all_congruences_cap_names_what_it_counted():
    with pytest.raises(SizeCapError, match=r"15 principal pairs, cap 10 \(--max-partitions\)"):
        all_congruences(Z6, max_partitions=10)
    consts = FiniteAlgebra(Signature([("c", 0)]), 5, {"c": 0})
    assert len(all_congruences(consts, max_partitions=52)) == 52  # every partition; 10 pairs
    with pytest.raises(SizeCapError, match=r"21 congruences found, cap 20 \(--max-partitions\)"):
        all_congruences(consts, max_partitions=20)


def test_largest_congruence_below_examples():
    assert largest_congruence_below(Z4, Partition.parse("0|1,2,3")) == Partition.singletons(4)
    assert largest_congruence_below(Z4, Partition.parse("0,2|1,3")) == Partition.parse("0,2|1,3")
    for X in FIXTURES_SMALL:
        assert largest_congruence_below(X, Partition.single_block(X.size)) == Partition.single_block(X.size)


def test_largest_congruence_below_against_lattice_oracle():
    for X in FIXTURES_SMALL:
        for part in all_partitions(X.size):
            got = largest_congruence_below(X, part)
            assert got.refines(part)
            assert is_congruence_direct(X, got).ok
            expected = naive_largest_congruence_below(X, list(part.block_of))
            assert got == Partition(expected)
            # no congruence strictly between: anything refining part that is
            # a congruence must refine the result
            for c in all_congruences(X):
                if c.refines(part):
                    assert c.refines(got)


def test_meet_and_join():
    a = Partition.parse("0,2|1,3")
    singles = Partition.singletons(4)
    assert meet(a, Partition.parse("0,1|2,3")) == singles
    assert join_congruences(Z4, singles, a) == a
    assert meet(a, a) == a
    with pytest.raises(SizeMismatchError):
        meet(a, Partition.singletons(3))
    with pytest.raises(NotACongruenceError):
        join_congruences(Z4, Partition.parse("0,1|2,3"), a)


def test_join_is_least_upper_bound():
    for X in (Z4, Z6, klein_four()):
        congruences = all_congruences(X)
        for a in congruences:
            for b in congruences:
                j = join_congruences(X, a, b)
                assert a.refines(j) and b.refines(j)
                for c in congruences:
                    if a.refines(c) and b.refines(c):
                        assert j.refines(c)


def test_counterexamples_are_least():
    # the direct-check witness minimizes the concatenated argument tuple
    verdict = is_congruence_direct(Z4, Partition.parse("0,1,2|3"))
    assert not verdict.ok
    symbol, xs, ys = verdict.witness
    part = Partition.parse("0,1,2|3")
    candidates = []
    import itertools

    for name, arity in Z4.sig:
        for cxs in itertools.product(range(4), repeat=arity):
            for cys in itertools.product(range(4), repeat=arity):
                if all(part.same(a, b) for a, b in zip(cxs, cys)):
                    if not part.same(Z4.apply(name, cxs), Z4.apply(name, cys)):
                        candidates.append((cxs + cys, Z4.sig.index(name), name, cxs, cys))
    best = min(candidates)
    assert (symbol, xs, ys) == (best[2], best[3], best[4])
