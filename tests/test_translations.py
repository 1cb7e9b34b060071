import hashlib
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ualgebra.errors import ArityMismatchError, OutOfCarrierError, SizeCapError, UAlgError
from ualgebra.translations import SEMIGROUP_HARD_CAP, PrincipalDescriptor, semigroup_tree

from _oracles import (
    SIGNATURES,
    frozen_semigroup_tree,
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


@pytest.mark.parametrize(
    "X, desc, error, message",
    [
        (Z3, PrincipalDescriptor("m", 1, (5,)), OutOfCarrierError, "argument 5 outside carrier of size 3"),
        (cyclic_group(17), PrincipalDescriptor("m", 2, (20,)), OutOfCarrierError, "argument 20 outside carrier of size 17"),
        (Z3, PrincipalDescriptor("m", 3, (1,)), UAlgError, "slot 3 of 'm' is outside 1..2"),
        (Z3, PrincipalDescriptor("m", 0, (1,)), UAlgError, "slot 0 of 'm' is outside 1..2"),
        (Z3, PrincipalDescriptor("e", 1, ()), UAlgError, "slot 1 of 'e' is outside 1..0"),
        (Z3, PrincipalDescriptor("m", 1, ()), ArityMismatchError, "symbol 'm' expects 2 argument(s), got 1"),
        (Z3, PrincipalDescriptor("m", 2, (1, 2)), ArityMismatchError, "symbol 'm' expects 2 argument(s), got 3"),
    ],
)
def test_evaluate_word_rejects_bad_descriptors(X, desc, error, message):
    good = PrincipalDescriptor("m", 1, (1,))
    for word in ((desc,), (good, desc)):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
            evaluate_word(X, word)
        assert caught.type is error


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
        assert list(map(tuple, tree.tables)) == [t.table for t in expected]
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
        assert list(map(tuple, tree.tables)) == [t.table for t in expected]
        assert all(type(table) is (bytes if k <= 256 else tuple) for table in tree.tables)
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


CONSTANTS_ONLY = FiniteAlgebra(Signature([("c", 0)]), 3, {"c": 1})


@pytest.mark.parametrize("X", [CONSTANTS_ONLY, Z2], ids=["constants-only", "Z2"])
def test_cap_zero_refuses_the_identity(X, tmp_path, capsys):
    message = "1 translations found, cap 0 (--max-semigroup)"
    with pytest.raises(SizeCapError) as refused:
        semigroup_tree(X, cap=0)
    assert str(refused.value) == message
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(X.to_json_dict()))
    assert main(["translations", str(path), "--max-semigroup", "0", "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["message"] == message
    assert main(["translations", str(path), "--max-semigroup", "0"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cap_one_admits_only_the_identity():
    assert list(map(tuple, semigroup_tree(CONSTANTS_ONLY, cap=1).tables)) == [(0, 1, 2)]
    with pytest.raises(SizeCapError, match="2 translations found, cap 1"):
        semigroup_tree(Z2, cap=1)


def _random_binary(k):
    """The binary operation that ``random.Random(k)`` draws on k elements."""
    rng = random.Random(k)
    return FiniteAlgebra(Signature([("f", 2)]), k, {"f": tuple(rng.randrange(k) for _ in range(k * k))})


def _assert_tree_matches_the_level_loop(X):
    """The suffix rule adds the members, parents and letters that following every
    member with every generator adds, and fails the same way one member short."""
    expected = frozen_semigroup_tree(X, SEMIGROUP_HARD_CAP)
    size = len(expected.tables)
    got = semigroup_tree(X, cap=size)
    assert (list(map(tuple, got.tables)), got.parent, got.letter) == (expected.tables, expected.parent, expected.letter)
    assert got.generators == expected.generators
    with pytest.raises(SizeCapError) as refused:
        frozen_semigroup_tree(X, size - 1)
    with pytest.raises(SizeCapError) as got_refused:
        semigroup_tree(X, cap=size - 1)
    message = f"{size} translations found, cap {size - 1} (--max-semigroup)"
    assert str(got_refused.value) == str(refused.value) == message


def test_suffix_rule_matches_the_level_loop_on_the_differential_algebras():
    for X in _differential_algebras():
        _assert_tree_matches_the_level_loop(X)


@pytest.mark.parametrize("k", BOUNDARY_SIZES)
def test_suffix_rule_matches_the_level_loop_at_the_byte_boundary(k):
    for X in _boundary_algebras(k):
        _assert_tree_matches_the_level_loop(X)


MULTIPLICATION_MOD_6 = FiniteAlgebra(Signature([("m", 2)]), 6, {"m": tuple(x * y % 6 for x in range(6) for y in range(6))})


@pytest.mark.parametrize(
    "X", [_random_binary(6), MULTIPLICATION_MOD_6, CONSTANTS_ONLY], ids=["Random(6)", "monoid", "constants-only"]
)
def test_suffix_rule_matches_the_level_loop(X):
    _assert_tree_matches_the_level_loop(X)


def test_the_identity_generator_of_a_monoid_makes_no_member():
    tree = semigroup_tree(MULTIPLICATION_MOD_6)
    one = [g.table for g in tree.generators].index((0, 1, 2, 3, 4, 5))  # multiplication by 1
    assert one not in tree.letter


@st.composite
def unary_binary_algebras(draw):
    """A unary and a binary operation on k <= 5 elements."""
    k = draw(st.integers(1, 5))
    unary = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    binary = draw(st.lists(st.integers(0, k - 1), min_size=k * k, max_size=k * k))
    return FiniteAlgebra(Signature([("u", 1), ("f", 2)]), k, {"u": unary, "f": binary})


@settings(derandomize=True, max_examples=100, deadline=None)
@given(unary_binary_algebras())
def test_suffix_rule_matches_the_level_loop_on_drawn_algebras(X):
    _assert_tree_matches_the_level_loop(X)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_suffix_rule_allocates_no_more_than_the_level_loop():
    X = _random_binary(6)
    assert _traced_peak(lambda: semigroup_tree(X)) <= _traced_peak(lambda: frozen_semigroup_tree(X, SEMIGROUP_HARD_CAP))


# (k, signature, seed of the tables, stdout length, sha256 of stdout) of
# `ualg translations algebra.json --json`, recorded before the closure took up
# the suffix rule: 1,695, 20,392 and 14,929 members.
_PINNED_TRANSLATIONS = [
    (5, [("f", 2)], 1, 268475, "7c782723336e547acbc065865c63c34b8308894e37be568271e9ec15744fd610"),
    (6, [("f", 2), ("u", 1), ("c", 0)], 2, 3579584, "a4e171710025eefc87474cc2f7f67765691822d3b515f7ee047b64e40459d878"),
    (6, [("f", 2), ("u", 1)], 3, 2727540, "e54466748634abd5d72498ad0a5c9a984308c814e01d12bc837e982de270a5eb"),
]


@pytest.mark.parametrize("k, sig, seed, length, digest", _PINNED_TRANSLATIONS)
def test_large_translations_listings_are_pinned(k, sig, seed, length, digest, tmp_path, monkeypatch, capsys):
    rng = random.Random(seed)
    ops = {name: rng.randrange(k) if a == 0 else tuple(rng.randrange(k) for _ in range(k**a)) for name, a in sig}
    monkeypatch.chdir(tmp_path)  # the listing names the file as given
    (tmp_path / "algebra.json").write_text(json.dumps(FiniteAlgebra(Signature(sig), k, ops).to_json_dict()))
    assert main(["translations", "algebra.json", "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (length, digest)
