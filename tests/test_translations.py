import json
import random

import pytest

from ualgebra import (
    FiniteAlgebra,
    Partition,
    Signature,
    all_partitions,
    adjoined_infinity_monoid,
    cyclic_group,
    evaluate_word,
    klein_four,
    principal_translations,
    semilattice2,
    translation_semigroup,
)
from ualgebra.cli import main
from ualgebra.errors import SizeCapError
from ualgebra.translations import semigroup_tree

from _oracles import (
    SIGNATURES,
    frozen_word_semigroup,
    naive_principal_tables,
    naive_semigroup_tables,
    planted_algebra,
    s1_saturation_refinement,
)

Z2, Z3 = cyclic_group(2), cyclic_group(3)

FIXTURES = [Z2, Z3, cyclic_group(4), klein_four(), semilattice2(), adjoined_infinity_monoid(3)]


def test_principal_translations_z3():
    tables = [t.table for t in principal_translations(Z3)]
    assert len(tables) == 4
    assert set(tables) == {(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)}
    # identity arises as translation by the neutral element, not as e
    ident = next(t for t in principal_translations(Z3) if t.table == (0, 1, 2))
    assert len(ident.word) == 1
    desc = ident.word[0]
    assert (desc.symbol, desc.slot, desc.fixed) == ("m", 1, (0,))


def test_constants_only_algebra_has_no_translations():
    consts = FiniteAlgebra(Signature([("c", 0)]), 3, {"c": 1})
    assert principal_translations(consts) == []
    semigroup = translation_semigroup(consts)
    assert len(semigroup) == 1 and semigroup[0].word == ()


def test_semigroup_of_a_one_element_algebra_is_the_identity():
    Z1 = cyclic_group(1)
    assert [t.table for t in principal_translations(Z1)] == [(0,)]
    assert [(t.table, t.word) for t in translation_semigroup(Z1)] == [((0,), ())]


def test_principal_translations_semilattice():
    tables = [t.table for t in principal_translations(semilattice2())]
    assert len(tables) == 2
    assert set(tables) == {(0, 1), (0, 0)}


def test_semigroup_sizes():
    assert len(translation_semigroup(Z2)) == 2
    semigroup = translation_semigroup(Z3)
    assert len(semigroup) == 6
    assert {t.table for t in semigroup} == {
        tuple((s * x + c) % 3 for x in range(3)) for s in (1, 2) for c in range(3)
    }


def test_semigroup_matches_naive_closure():
    for X in FIXTURES:
        members = translation_semigroup(X)
        assert {t.table for t in members} == naive_semigroup_tables(X)
        assert {t.table for t in principal_translations(X)} == naive_principal_tables(X)


def test_semigroup_contains_identity_and_generators():
    for X in FIXTURES:
        tables = {t.table for t in translation_semigroup(X)}
        assert tuple(range(X.size)) in tables
        for t in principal_translations(X):
            assert t.table in tables


def test_semigroup_closed_under_composition():
    for X in FIXTURES:
        tables = {t.table for t in translation_semigroup(X)}
        for a in tables:
            for b in tables:
                assert tuple(a[b[x]] for x in range(X.size)) in tables


def test_words_reevaluate_to_tables():
    for X in FIXTURES:
        for t in translation_semigroup(X):
            assert evaluate_word(X, t.word) == t.table
        ident = translation_semigroup(X)[0]
        assert ident.word == ()


def test_bfs_words_are_shortest():
    # a member's word length equals its BFS distance from the identity
    for X in (Z3, klein_four()):
        members = translation_semigroup(X)
        gens = [g.table for g in principal_translations(X)]
        dist = {tuple(range(X.size)): 0}
        frontier = [tuple(range(X.size))]
        while frontier:
            nxt = []
            for t in frontier:
                for g in gens:
                    new = tuple(g[v] for v in t)
                    if new not in dist:
                        dist[new] = dist[t] + 1
                        nxt.append(new)
            frontier = nxt
        for t in members:
            assert len(t.word) == dist[t.table]


def test_group_two_sided_translations_present():
    # maps x -> a + x + b and their composites with inversion
    for n in (3, 4, 5):
        G = cyclic_group(n)
        tables = {t.table for t in translation_semigroup(G)}
        for a in range(n):
            for b in range(n):
                assert tuple((a + x + b) % n for x in range(n)) in tables
                assert tuple((a - x + b) % n for x in range(n)) in tables


def test_cap():
    with pytest.raises(SizeCapError):
        translation_semigroup(Z3, cap=3)


def test_pullback_coherence():
    # quotienting by "equal under all of S(X)" equals the S1-saturation fixpoint
    for X in FIXTURES:
        semigroup = translation_semigroup(X)
        principal = [t.table for t in principal_translations(X)]
        for part in all_partitions(X.size):
            block = part.block_of
            pullback = Partition(
                [tuple(block[t.table[x]] for t in semigroup) for x in range(X.size)]
            )
            saturated = Partition(s1_saturation_refinement(X, list(block), principal))
            assert pullback == saturated


def test_word_format():
    semigroup = translation_semigroup(Z3)
    ident = semigroup[0]
    assert ident.format_word() == "e"
    plus1 = next(t for t in semigroup if t.table == (1, 2, 0))
    assert plus1.format_word() == "m@1(1)"
    neg = next(t for t in semigroup if t.table == (0, 2, 1))
    assert neg.format_word() == "i"


def _differential_algebras():
    """The fixtures, then seeded random and planted algebras, k = 1..6."""
    rng = random.Random(20260)
    yield from FIXTURES
    for sig in SIGNATURES:
        for k in range(1, 7):
            for blocks in {k, max(1, k // 2)}:  # all blocks singletons: a random algebra
                yield planted_algebra(rng, k, blocks, sig)[0]


def test_tree_reproduces_the_frozen_word_closure():
    for X in _differential_algebras():
        expected = frozen_word_semigroup(X, cap=10**6)
        got = translation_semigroup(X)
        assert [(t.table, t.word) for t in got] == [(t.table, t.word) for t in expected]
        tree = semigroup_tree(X)
        assert tree.tables == [t.table for t in expected]
        assert tree.format_words() == [t.format_word() for t in expected]
        assert all(p < i for i, p in enumerate(tree.parent) if i)


def test_tree_cap_matches_the_frozen_word_closure():
    for X in (Z3, klein_four(), adjoined_infinity_monoid(3)):
        size = len(frozen_word_semigroup(X, cap=10**6))
        with pytest.raises(SizeCapError) as expected:
            frozen_word_semigroup(X, cap=size - 1)
        with pytest.raises(SizeCapError) as got:
            semigroup_tree(X, cap=size - 1)
        assert str(got.value) == str(expected.value)
        assert len(semigroup_tree(X, cap=size).tables) == size


# Carriers on both sides of 256, where the closure switches from bytes to tuples.
BOUNDARY_SIZES = (1, 255, 256, 257)


def _unary(k, table):
    return FiniteAlgebra(Signature([("u", 1)]), k, {"u": tuple(table)})


def _boundary_algebras(k):
    """A unary chain, a unary cycle and the binary first projection on k elements."""
    yield _unary(k, (min(x + 1, k - 1) for x in range(k)))
    yield _unary(k, ((x + 1) % k for x in range(k)))
    yield FiniteAlgebra(Signature([("p", 2)]), k, {"p": tuple(x for x in range(k) for _ in range(k))})


@pytest.mark.parametrize("k", BOUNDARY_SIZES)
def test_tree_matches_the_frozen_word_closure_at_the_byte_boundary(k):
    for X in _boundary_algebras(k):
        expected = frozen_word_semigroup(X, cap=10**6)
        tree = semigroup_tree(X)
        assert tree.tables == [t.table for t in expected]
        assert all(type(table) is tuple for table in tree.tables)
        index = {t.word: i for i, t in enumerate(expected)}
        letters = {g.word: j for j, g in enumerate(tree.generators)}
        assert tree.parent == [-1] + [index[t.word[:-1]] for t in expected[1:]]
        assert tree.letter == [-1] + [letters[t.word[-1:]] for t in expected[1:]]
        assert tree.format_words() == [t.format_word() for t in expected]


@pytest.mark.parametrize("k", BOUNDARY_SIZES[1:])
def test_cap_message_is_unchanged_at_the_byte_boundary(k, tmp_path, capsys):
    X = next(_boundary_algebras(k))  # the chain: k members
    with pytest.raises(SizeCapError) as expected:
        frozen_word_semigroup(X, cap=k - 1)
    with pytest.raises(SizeCapError) as got:
        semigroup_tree(X, cap=k - 1)
    assert str(got.value) == str(expected.value) == f"{k} translations found, cap {k - 1} (--max-semigroup)"
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(X.to_json_dict()))
    assert main(["translations", str(path), "--max-semigroup", str(k - 1)]) == 3
    assert capsys.readouterr() == ("", f"error: {expected.value}\n")
