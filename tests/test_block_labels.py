"""The equivalence closure on block labels against the union-find it replaced.

``partitions._closure`` keeps one block label per element and relabels the
smaller block on each merge; every congruence, join and equivalence closure
goes through it.  It must reproduce ``frozen_closure``, the union-find forest
with path compression, partition for partition: on arbitrary pairs and
self-maps, on every principal congruence of random and planted algebras, on
the unary chain, and through ``Partition.from_pairs`` and
``join_congruences``.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ualgebra import (
    FiniteAlgebra,
    Partition,
    Signature,
    congruence_generated,
    join_congruences,
    principal_translations,
)
from ualgebra.partitions import _closure

from _oracles import SIGNATURES, frozen_closure, planted_algebra
from test_translations import _traced_peak

CHAIN = Signature([("u", 1)])


def _chain(k):
    """The unary chain x -> min(x + 1, k - 1): Cg(0, 1) walks it one merge at a time."""
    return FiniteAlgebra(CHAIN, k, {"u": tuple(min(x + 1, k - 1) for x in range(k))})


@st.composite
def closure_cases(draw):
    """A size 0..64, up to 6 pairs (self-pairs and repeats possible) and up
    to 4 self-maps, each arbitrary or a permutation."""
    size = draw(st.integers(0, 64))
    if size == 0:
        return 0, [], draw(st.lists(st.just([]), max_size=4))
    element = st.integers(0, size - 1)
    pairs = draw(st.lists(st.tuples(element, element), max_size=6))
    if pairs and draw(st.booleans()):
        pairs += [pairs[0], (pairs[-1][0], pairs[-1][0])]
    self_map = st.lists(element, min_size=size, max_size=size) | st.permutations(range(size))
    return size, pairs, draw(st.lists(self_map, max_size=4))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(closure_cases())
def test_closure_matches_the_union_find(case):
    size, pairs, tables = case
    assert _closure(size, pairs, tables).block_of == frozen_closure(size, pairs, tables).block_of


def test_seeded_closures_match_the_union_find():
    rng = random.Random(19)
    for _ in range(1500):
        size = rng.randint(1, 40)
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(0, 6))]
        pairs += rng.sample(pairs, min(len(pairs), 2)) + [(x, x) for x, _ in pairs[:1]]
        maps = [rng.choices(range(size), k=size) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.5:  # permutations keep many blocks apart
            maps = [rng.sample(range(size), size) for _ in maps]
        assert _closure(size, pairs, maps) == frozen_closure(size, pairs, maps)


def _random_algebra(rng, k, sig):
    ops = {name: rng.randrange(k) if a == 0 else tuple(rng.randrange(k) for _ in range(k**a)) for name, a in sig}
    return FiniteAlgebra(sig, k, ops)


@pytest.mark.parametrize("sig", SIGNATURES, ids=lambda sig: sig.format())
def test_every_principal_congruence_matches_the_union_find(sig):
    rng = random.Random(1901)
    for k in range(1, 13):
        for X in (_random_algebra(rng, k, sig), planted_algebra(rng, k, rng.randint(1, min(k, 4)), sig)[0]):
            tables = [t.table for t in principal_translations(X)]
            for a, b in itertools.combinations(range(k), 2):
                assert congruence_generated(X, [(a, b)]) == frozen_closure(k, [(a, b)], tables)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 257, 1024])
def test_unary_chain_matches_the_union_find(k):
    X = _chain(k)
    tables = [t.table for t in principal_translations(X)]
    pairs = {(0, 1 % k), (k // 2, k - 1), (k - 1, k // 3)}
    for pair in pairs:
        got = congruence_generated(X, [pair])
        assert got == frozen_closure(k, [pair], tables)
        low = min(pair)
        assert got.num_blocks == (k if pair[0] == pair[1] else low + 1)


@pytest.mark.parametrize("pair", [(0, 1), (1, 2)], ids=["one-block", "two-blocks"])
def test_closure_peak_memory_stays_near_the_union_find(pair):
    """Cg(0, 1) on the chain ends in one block, Cg(1, 2) in {0} and one block:
    the block lists are freed before the ``Partition`` is built, on both returns."""
    k = 2**16
    tables = [_chain(k).table("u")]
    peak = _traced_peak(lambda: _closure(k, [pair], tables))
    assert peak <= 1.5 * _traced_peak(lambda: frozen_closure(k, [pair], tables))


def test_from_pairs_and_joins_match_the_union_find():
    rng = random.Random(1902)
    for _ in range(300):
        size = rng.randint(0, 30)
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(0, 3 * size))] if size else []
        assert Partition.from_pairs(size, pairs) == frozen_closure(size, pairs)
    for sig in SIGNATURES:
        for k in range(1, 9):
            X = planted_algebra(rng, k, rng.randint(1, min(k, 3)), sig)[0]
            tables = [t.table for t in principal_translations(X)]
            cgs = [frozen_closure(k, [pair], tables) for pair in itertools.combinations(range(k), 2)]
            for p1, p2 in itertools.combinations(cgs[:12], 2):
                assert join_congruences(X, p1, p2) == frozen_closure(k, p1.pairs() + p2.pairs())
