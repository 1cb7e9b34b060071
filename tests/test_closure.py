"""The shared closure and the Mal'cev cells against their oracles.

``algebra._generated`` closes both generated subalgebras and the clone of
ternary term operations; the cells that the Mal'cev identities fix are read
by ``table_is_malcev``, ``is_malcev_op`` and ``find_malcev_operations``.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ualgebra import (
    FiniteAlgebra,
    Signature,
    clone_ternary_terms,
    cyclic_group,
    find_malcev_operations,
    has_malcev_term,
    is_malcev_op,
    malcev_algebra_from,
    semilattice2,
    subalgebra_generated,
    table_is_malcev,
)
from ualgebra.errors import SizeCapError

from _oracles import brute_malcev_tables, naive_is_malcev_table, naive_subalgebra, planted_algebra
from test_translations import SIGNATURES


def _random_algebras():
    """Seeded random algebras, k = 1..6, over the signatures of the translation tests."""
    rng = random.Random(20261)
    for sig in SIGNATURES:
        for k in range(1, 7):
            for _ in range(4):
                yield planted_algebra(rng, k, k, sig)[0], rng


def test_subalgebra_generated_matches_the_fixpoint_oracle():
    for X, rng in _random_algebras():
        for size in range(3):
            seed = rng.sample(range(X.size), min(size, X.size))
            members, tables = naive_subalgebra(X, seed)
            got = subalgebra_generated(X, seed)
            assert list(got.members) == members, (X, seed)
            if not members:
                assert got.algebra is None
                continue
            for name, arity in X.sig:
                table = got.algebra.table(name)
                assert (list(table) if arity else [table]) == tables[name], (X, seed, name)


@st.composite
def ternary_tables(draw):
    """A ternary table on k <= 4 elements: random, or with the Mal'cev cells
    planted and then perhaps one of them broken."""
    k = draw(st.integers(1, 4))
    table = draw(st.lists(st.integers(0, k - 1), min_size=k**3, max_size=k**3))
    if draw(st.booleans()):
        for x, y in itertools.product(range(k), repeat=2):
            table[(y * k + y) * k + x] = x
            table[(x * k + y) * k + y] = x
        if k > 1 and draw(st.booleans()):
            x, y = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            table[draw(st.sampled_from([(y * k + y) * k + x, (x * k + y) * k + y]))] = (x + 1) % k
    return k, table


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ternary_tables())
def test_malcev_checks_match_the_oracle(case):
    k, table = case
    expected = naive_is_malcev_table(table, k)  # witness: the least failing (x, y)
    assert table_is_malcev(table, k) == expected.ok
    assert is_malcev_op(malcev_algebra_from(table), "mu") == expected


def test_find_malcev_operations_at_two_elements_under_caps():
    every = sorted(brute_malcev_tables(2))
    assert len(every) == 4
    for cap, complete in ((3, False), (4, True), (5, True)):
        enumeration = find_malcev_operations(2, cap=cap)
        assert enumeration.tables == every[:cap]
        assert enumeration.complete is complete


def test_find_malcev_operations_refuses_the_uncapped_listing_at_three_elements():
    with pytest.raises(SizeCapError, match="listing 531441 Mal'cev tables of 27 entries"):
        find_malcev_operations(3)


def test_has_malcev_term_stops_at_the_witness():
    Z5 = cyclic_group(5)
    witness = has_malcev_term(Z5).witness
    position = clone_ternary_terms(Z5).index(witness) + 1  # 1-based, in discovery order
    assert position < len(clone_ternary_terms(Z5))
    assert has_malcev_term(Z5, cap=position).witness == witness
    with pytest.raises(SizeCapError, match=f"{position + 1} ternary term operations found, cap {position} "):
        clone_ternary_terms(Z5, cap=position)


def test_clone_cap_counts_every_table():
    identity = FiniteAlgebra(Signature([("u", 1)]), 2, {"u": (0, 1)})
    assert len(clone_ternary_terms(identity, cap=3)) == 3  # the projections alone
    for cap in range(3):
        with pytest.raises(SizeCapError, match=f"^{cap + 1} ternary term operations found, cap {cap} "):
            clone_ternary_terms(identity, cap=cap)
    with pytest.raises(SizeCapError, match="^2 ternary term operations found, cap 1 "):
        has_malcev_term(semilattice2(), cap=1)
    with pytest.raises(SizeCapError, match="^6 ternary term operations found, cap 5 "):
        clone_ternary_terms(cyclic_group(3), cap=5)
