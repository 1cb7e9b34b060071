"""The shared closure and the Mal'cev cells against their oracles.

``algebra._generated`` closes both generated subalgebras and the clone of
ternary term operations; the cells that the Mal'cev identities fix are read
by ``table_is_malcev``, ``is_malcev_op`` and ``find_malcev_operations``.
The closure holds each table as an integer of w-byte digits, w = 1, 2 or 4,
the fewest bytes that hold every row-major index below k^n for the largest
arity n; on both sides of each width edge it must reproduce
``frozen_generated``, the tuple-table loop, table for table and in order.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ualgebra import (
    FiniteAlgebra,
    Signature,
    adjoined_infinity_monoid,
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
from ualgebra import algebra
from ualgebra.algebra import _generated, projection_tables
from ualgebra.cli import main
from ualgebra.errors import SizeCapError
from ualgebra.malcev import CLONE_CAP

from _oracles import (
    brute_malcev_tables,
    frozen_generated,
    naive_is_malcev_table,
    naive_subalgebra,
    planted_algebra,
)
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


# ---------------------------------------------------------------------------
# the digit rounds of ``_generated`` against the frozen tuple-table loop


def _frozen_clone(X, cap):
    """The clone as the frozen loop finds it, under the cap and message of ``--max-clone``."""
    for count, table in enumerate(frozen_generated(X, projection_tables((X.size,) * 3)), 1):
        if count > cap:
            raise SizeCapError(f"{count} ternary term operations found, cap {cap} (--max-clone)")
        yield table


def _outcome(compute):
    """The value of ``compute()``, or the text of the SizeCapError it raises."""
    try:
        return compute()
    except SizeCapError as exc:
        return f"SizeCapError: {exc}"


def _assert_closures_match(X, seeds, cap):
    """Clone, Mal'cev witness and generated subalgebras equal the frozen loop's,
    list for list, or stop at the cap with the same message."""
    k = X.size
    assert _outcome(lambda: clone_ternary_terms(X, cap)) == _outcome(lambda: list(_frozen_clone(X, cap))), X
    assert _outcome(lambda: has_malcev_term(X, cap).witness) == _outcome(
        lambda: next((t for t in _frozen_clone(X, cap) if table_is_malcev(t, k)), None)
    ), X
    for seed in seeds:
        tables = [(x,) for x in seed]
        expected = list(frozen_generated(X, tables))
        assert list(_generated(X, tables)) == expected, (X, seed)
        assert subalgebra_generated(X, seed).members == tuple(sorted(t[0] for t in expected))


# Signatures over arities 0-3: constants only, unary only, mixed, binary and ternary.
EDGE_SIGNATURES = (
    Signature([("c", 0), ("d", 0)]),
    Signature([("u", 1), ("w", 1)]),
    *SIGNATURES,
    Signature([("t", 3)]),
    Signature([("t", 3), ("c", 0)]),
)


def test_byte_closure_matches_the_frozen_loop_on_seeded_algebras():
    rng = random.Random(20262)
    for sig in EDGE_SIGNATURES:
        for k in range(1, 7):
            for blocks in {k, max(1, k // 2)}:
                X = planted_algebra(rng, k, blocks, sig)[0]
                seeds = [[], [rng.randrange(k)], rng.sample(range(k), min(2, k)), list(range(k))]
                _assert_closures_match(X, seeds, cap=40)


@st.composite
def edge_algebras(draw):
    """An algebra on k <= 6 elements with up to three symbols of arity 0-3, and a seed."""
    k = draw(st.integers(1, 6))
    arities = draw(st.lists(st.integers(0, 3), max_size=3))
    sig = Signature([(f"f{i}", n) for i, n in enumerate(arities)])
    ops = {
        name: draw(st.lists(st.integers(0, k - 1), min_size=k**n, max_size=k**n)) if n else draw(st.integers(0, k - 1))
        for name, n in sig
    }
    seed = draw(st.lists(st.integers(0, k - 1), max_size=k, unique=True))
    return FiniteAlgebra(sig, k, ops), seed


@settings(derandomize=True, max_examples=150, deadline=None)
@given(edge_algebras())
def test_byte_closure_matches_the_frozen_loop_on_drawn_algebras(case):
    X, seed = case
    _assert_closures_match(X, [seed, []], cap=60)


def _min_chain(k, arity):
    """min of ``arity`` arguments on the chain 0 < 1 < ... < k-1."""
    table = tuple(map(min, itertools.product(range(k), repeat=arity)))
    return FiniteAlgebra(Signature([("m", arity)]), k, {"m": table})


def _spy_widths(monkeypatch):
    """The list that collects every digit width ``algebra._width`` returns from now on."""
    widths = []
    width = algebra._width
    monkeypatch.setattr(algebra, "_width", lambda entries: widths.append(width(entries)) or widths[-1])
    return widths


@pytest.mark.parametrize("k, arity", [(16, 2), (17, 2), (6, 3), (7, 3)])
def test_closure_matches_the_frozen_loop_at_the_byte_edge(k, arity, monkeypatch, tmp_path, capsys):
    widths = _spy_widths(monkeypatch)
    X = _min_chain(k, arity)
    rng = random.Random(k)
    _assert_closures_match(X, [rng.sample(range(k), 3) for _ in range(5)], cap=CLONE_CAP)
    assert set(widths) == {{16: 1, 6: 1, 17: 2, 7: 2}[k]}
    clone = clone_ternary_terms(X)
    assert len(clone) == 7  # min over each nonempty set of the three variables
    assert all(type(t) is tuple for t in clone)
    message = "7 ternary term operations found, cap 6 (--max-clone)"
    assert _outcome(lambda: list(_frozen_clone(X, cap=6))) == f"SizeCapError: {message}"
    assert _outcome(lambda: clone_ternary_terms(X, cap=6)) == f"SizeCapError: {message}"
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(X.to_json_dict()))
    assert main(["clone", str(path), "--max-clone", "6"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("k, width", [(256, 2), (257, 4)])
def test_closure_matches_the_frozen_loop_at_the_four_byte_edge(k, width, monkeypatch):
    widths = _spy_widths(monkeypatch)
    rng = random.Random(k)
    # a random binary operation under which {0, ..., 4} is closed
    table = [rng.randrange(5 if x < 5 and y < 5 else k) for x in range(k) for y in range(k)]
    X = FiniteAlgebra(Signature([("f", 2)]), k, {"f": table})
    for seed in ([], [3], [0, 4], [k - 1]):
        tables = [(x,) for x in seed]
        expected = list(frozen_generated(X, tables))
        assert list(_generated(X, tables)) == expected, seed
        members, _ = naive_subalgebra(X, seed)
        assert list(subalgebra_generated(X, seed).members) == members == sorted(t[0] for t in expected)
    for seeds in ([(0, 1), (2, 3)], [(0, 1, 2), (4, 3, 2), (1, 1, 0)]):  # several digits per table
        assert list(_generated(X, seeds)) == list(frozen_generated(X, seeds)), seeds
    assert set(widths) == {width}


def test_large_clones_close_within_tier_one():
    assert len(clone_ternary_terms(cyclic_group(7))) == 7**3  # the affine maps ax + by + cz of Z7
    sinf5 = adjoined_infinity_monoid(5)  # six elements: all 216 clone tables are closed
    assert sinf5.size == 6 and not has_malcev_term(sinf5).ok
