import pytest

from ualgebra import (
    CarrierMap,
    Factorization,
    Partition,
    adjoined_infinity_monoid,
    cyclic_group,
    enumerate_factorizations,
    greatest_factorization,
    is_congruence_via_translations,
    is_factorization,
    is_homomorphism,
    kernel,
    klein_four,
    largest_congruence_below,
    least_factorization,
    precedes,
    quotient,
    semilattice2,
    translation_semigroup,
)
from ualgebra import congruences
from ualgebra.errors import MismatchedBaseError

from _oracles import all_maps, naive_largest_congruence_below

Z2, Z4 = cyclic_group(2), cyclic_group(4)

FIXTURES = [Z2, cyclic_group(3), Z4, klein_four(), semilattice2(), adjoined_infinity_monoid(3)]


def cmap(values, target=None):
    values = tuple(values)
    target = target if target is not None else (max(values) + 1 if values else 1)
    return CarrierMap(len(values), target, values)


def test_is_factorization_examples():
    f = cmap([0, 1, 0, 1], 2)
    assert is_factorization(Z4, f, greatest_factorization(Z4, f)).ok

    Y, g = quotient(Z4, Partition.parse("0,2|1,3"))
    good = Factorization(g, Y, CarrierMap.identity(2), 2)
    assert is_factorization(Z4, f, good).ok

    f_indicator = cmap([1, 0, 0, 0], 2)
    bad = Factorization(g, Y, CarrierMap.identity(2), 2)
    verdict = is_factorization(Z4, f_indicator, bad)
    assert not verdict.ok
    assert "h∘g differs" in verdict.witness


def test_is_factorization_requires_surjective_hom():
    f = cmap([0, 1, 0, 1], 2)
    not_surjective = Factorization(
        cmap([0, 0, 0, 0], 4, ), Z4, cmap([0, 1, 0, 1], 2), 2
    )
    verdict = is_factorization(Z4, f, not_surjective)
    assert not verdict.ok and "surjective" in verdict.witness

    shift = cmap([(x + 1) % 4 for x in range(4)], 4)
    composed_f = cmap([shift(x) % 2 for x in range(4)], 2)
    not_hom = Factorization(shift, Z4, cmap([0, 1, 0, 1], 2), 2)
    verdict = is_factorization(Z4, composed_f, not_hom)
    assert not verdict.ok and "homomorphism" in verdict.witness


def test_precedes_examples():
    f = cmap([0, 1, 0, 1], 2)
    least = least_factorization(Z4, f)
    greatest = greatest_factorization(Z4, f)
    assert precedes(least, greatest).ok
    assert not precedes(greatest, least).ok
    for F in (least, greatest):
        reflexive = precedes(F, F)
        assert reflexive.ok
        assert reflexive.witness.values == tuple(range(F.Y.size))
    # the witness homomorphism really satisfies g1 = q ∘ g2
    q = precedes(least, greatest).witness
    assert is_homomorphism(q, greatest.Y, least.Y).ok
    assert tuple(q(greatest.g(x)) for x in range(4)) == least.g.values


def test_precedes_mismatched_base():
    f = cmap([0, 1, 0, 1], 2)
    other = cmap([0, 0, 0, 1], 2)
    with pytest.raises(MismatchedBaseError):
        precedes(least_factorization(Z4, f), least_factorization(Z4, other))


def test_least_factorization_examples():
    F = least_factorization(Z4, cmap([0, 1, 0, 1], 2))
    assert F.Y.size == 2 and kernel(F.g) == Partition.parse("0,2|1,3")

    F = least_factorization(Z4, cmap([1, 0, 0, 0], 2))
    assert F.Y.size == 4 and kernel(F.g) == Partition.singletons(4)

    for X in FIXTURES:
        F = least_factorization(X, cmap([0] * X.size, 1))
        assert F.Y.size == 1


def test_least_factorization_is_valid_and_least():
    for X in FIXTURES:
        for values in all_maps(X.size, 2):
            f = cmap(values, 2)
            least = least_factorization(X, f)
            assert is_factorization(X, f, least).ok
            for F in enumerate_factorizations(X, f):
                assert precedes(least, F).ok


def test_kernel_of_least_is_largest_congruence_below():
    for X in FIXTURES:
        for target in (1, 2, 3):
            for values in all_maps(X.size, target):
                f = cmap(values, target)
                ker_g = kernel(least_factorization(X, f).g)
                assert ker_g == largest_congruence_below(X, kernel(f))
                assert ker_g == Partition(
                    naive_largest_congruence_below(X, list(kernel(f).block_of))
                )
                break  # full sweep lives in the acceptance suite


def test_kernel_is_meet_of_pullbacks():
    for X in (Z4, klein_four(), adjoined_infinity_monoid(3)):
        f = cmap([x % 2 for x in range(X.size)], 2)
        ker_g = kernel(least_factorization(X, f).g)
        expected = Partition.single_block(X.size)
        for t in translation_semigroup(X):
            pulled = Partition([f(t.table[x]) for x in range(X.size)])
            expected = expected.meet(pulled)
        assert ker_g == expected


def test_kernel_of_least_is_congruence_via_translations():
    for X in FIXTURES:
        f = cmap([x % 2 for x in range(X.size)], 2)
        assert is_congruence_via_translations(X, kernel(least_factorization(X, f).g)).ok


def test_embedding_bound_and_signature_injectivity():
    for X in FIXTURES:
        f = cmap([x % 2 for x in range(X.size)], 2)
        semigroup = translation_semigroup(X)
        F = least_factorization(X, f)
        assert F.Y.size <= 2 ** len(semigroup)
        reps = [block[0] for block in kernel(F.g).blocks()]
        signatures = {tuple(f(t.table[x]) for t in semigroup) for x in reps}
        assert len(signatures) == len(reps)  # g injective on representatives


def test_enumerate_factorizations():
    fs = enumerate_factorizations(Z4, cmap([0, 1, 0, 1], 2))
    assert len(fs) == 2
    assert {kernel(F.g).format() for F in fs} == {"0|1|2|3", "0,2|1,3"}

    assert len(enumerate_factorizations(Z2, CarrierMap.identity(2))) == 1

    for X in (Z4, klein_four()):
        constant = cmap([0] * X.size, 1)
        from ualgebra import all_congruences

        assert len(enumerate_factorizations(X, constant)) == len(all_congruences(X))
        for F in enumerate_factorizations(X, constant):
            assert is_factorization(X, constant, F).ok


def test_greatest_factorization():
    for X in FIXTURES:
        f = cmap([x % 2 for x in range(X.size)], 2)
        greatest = greatest_factorization(X, f)
        assert is_factorization(X, f, greatest).ok
        for F in enumerate_factorizations(X, f):
            assert precedes(F, greatest).ok
        least = least_factorization(X, f)
        # greatest precedes least only when they coincide up to renaming
        assert precedes(greatest, least).ok == (least.Y.size == X.size)


def test_preorder_reflexive_transitive():
    f = cmap([0, 0, 1, 1], 2)
    fs = enumerate_factorizations(Z4, f)
    rel = [[precedes(a, b).ok for b in fs] for a in fs]
    for i in range(len(fs)):
        assert rel[i][i]
        for j in range(len(fs)):
            for k in range(len(fs)):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]


def test_factorizations_do_not_test_their_congruences_again(monkeypatch):
    calls = []
    original = congruences._principal_tables
    monkeypatch.setattr(congruences, "_principal_tables", lambda X: calls.append(X) or original(X))
    for X in FIXTURES:
        f = CarrierMap(X.size, 2, tuple(x % 2 for x in range(X.size)))
        calls.clear()
        least_factorization(X, f)
        assert len(calls) == 1, X  # largest_congruence_below; the quotient is not retested
        calls.clear()
        enumerate_factorizations(X, f)
        enumerated = len(calls)
        calls.clear()
        congruences.all_congruences(X)
        assert enumerated == len(calls), X
