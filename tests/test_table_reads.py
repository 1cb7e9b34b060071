"""Tables read straight off the stored tables, against pointwise ``X.apply`` oracles.

Principal translations are strided slices of an operation's row-major table
(``FiniteAlgebra.translation_tables``); quotients, generated subalgebras,
products and homomorphism checks read the stored tables at the row-major
indices of tuples (``algebra._images``).  Drawn algebras with symbols of
arity 0-3 on k = 1..6, and seeded ones on both sides of the k^n <= 256 edge
of ``apply_tables``'s byte route, must match the oracles table for table,
in order, descriptor for descriptor and witness for witness.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ualgebra import (
    CarrierMap,
    Partition,
    Signature,
    is_homomorphism,
    principal_translations,
    product,
    quotient,
    subalgebra_generated,
)

from _oracles import (
    naive_hom_witness,
    naive_principal_translations,
    naive_product_table,
    naive_quotient_tables,
    naive_subalgebra,
    planted_algebra,
)


def _assert_translations_match(X):
    expected = naive_principal_translations(X)
    got = principal_translations(X)
    assert [t.table for t in got] == [table for table, _ in expected]
    assert [(d.symbol, d.slot, d.fixed) for t in got for d in t.word] == [desc for _, desc in expected]
    for name, arity in X.sig:
        listed = list(X.translation_tables(name))
        assert len(listed) == arity * X.size ** max(arity - 1, 0)
        for slot, fixed, table in listed:
            args = [fixed[: slot - 1] + (x,) + fixed[slot - 1 :] for x in range(X.size)]
            assert table == tuple(X.apply(name, a) for a in args)


def _assert_derived_match(X, labels, seed, rng):
    """Subalgebra, quotient by the congruence ``labels``, product and homomorphism checks."""
    members, tables = naive_subalgebra(X, seed)
    sub = subalgebra_generated(X, seed)
    assert list(sub.members) == members
    if sub.algebra is not None:
        assert {name: list(sub.algebra._tables[name]) for name, _ in X.sig} == tables

    Q, q = quotient(X, Partition(labels))
    labels = list(q.values)
    assert {name: list(Q._tables[name]) for name, _ in X.sig} == naive_quotient_tables(X, labels)
    assert is_homomorphism(q, X, Q)

    Y = planted_algebra(rng, 2, rng.randint(1, 2), X.sig)[0]
    P, projections = product([X, Y])
    for name, arity in X.sig:
        assert list(P._tables[name]) == naive_product_table([X, Y], name, arity)
    for pr, factor in zip(projections, (X, Y)):
        assert is_homomorphism(pr, P, factor)

    for values, target in ((tuple(rng.randrange(X.size) for _ in range(X.size)), X), (q.values, Q)):
        verdict = is_homomorphism(CarrierMap(X.size, target.size, values), X, target)
        witness = naive_hom_witness(values, X, target)
        assert verdict.ok == (witness is None)
        assert verdict.witness == (None if witness is None else (witness[2], witness[0]))


@st.composite
def planted_cases(draw):
    """A planted algebra on k <= 6 elements with up to three symbols of arity 0-3,
    its planted congruence, a seed set and a random source for the rest."""
    k = draw(st.integers(1, 6))
    arities = draw(st.lists(st.integers(0, 3), max_size=3))
    sig = Signature([(f"f{i}", n) for i, n in enumerate(arities)])
    rng = random.Random(draw(st.integers(0, 2**32)))
    X, labels = planted_algebra(rng, k, draw(st.integers(1, k)), sig)
    seed = draw(st.lists(st.integers(0, k - 1), max_size=k, unique=True))
    return X, labels, seed, rng


@settings(derandomize=True, max_examples=150, deadline=None)
@given(planted_cases())
def test_table_reads_match_the_pointwise_oracles(case):
    X, labels, seed, rng = case
    _assert_translations_match(X)
    _assert_derived_match(X, labels, seed, rng)


@pytest.mark.parametrize("k, arity", [(16, 2), (17, 2), (6, 3), (7, 3)])
def test_table_reads_match_the_pointwise_oracles_at_the_byte_edge(k, arity):
    rng = random.Random(k * 10 + arity)
    sig = Signature([("u", 1), ("f", arity), ("c", 0)])
    for blocks in (k, 3):
        X, labels = planted_algebra(rng, k, blocks, sig)
        _assert_translations_match(X)
        _assert_derived_match(X, labels, rng.sample(range(k), 2), rng)
