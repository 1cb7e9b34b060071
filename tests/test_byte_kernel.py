"""The byte route of the table kernel against the frozen tuple route.

``FiniteAlgebra.apply_tables`` applies an operation of arity n with
k^n <= 256 entries in bytes, and ``holds`` evaluates both terms over
``bytes`` variable tables when every operation fits that edge.  On both
sides of the edge, for arities 0-3, the results must equal
``frozen_apply_tables`` and the one-assignment-at-a-time oracles, witness
for witness.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ualgebra import (
    FiniteAlgebra,
    Signature,
    cyclic_group,
    holds,
    in_equational_class,
    parse_term,
    vars_of,
)
from ualgebra import algebra

from _oracles import frozen_apply_tables, naive_holds, random_term_text

# (arity, carrier sizes): the largest k with k^n <= 256 and the one above it
EDGES = [(0, (1, 300)), (1, (256, 257)), (2, (16, 17)), (3, (6, 7))]


def _one_symbol_algebra(arity, k, rng):
    sig = Signature([("f", arity)])
    table = rng.randrange(k) if arity == 0 else tuple(rng.randrange(k) for _ in range(k**arity))
    return FiniteAlgebra(sig, k, {"f": table})


@st.composite
def applications(draw):
    """An algebra with one symbol of arity 0-3, on either side of its edge or small, and argument tables."""
    arity, sizes = draw(st.sampled_from(EDGES))
    k = draw(st.sampled_from(sizes) | st.integers(1, 5))
    length = draw(st.sampled_from([0, 1, 2]) | st.integers(0, 3000))
    rng = random.Random(draw(st.integers(0, 2**32)))
    X = _one_symbol_algebra(arity, k, rng)
    args = [tuple(rng.randrange(k) for _ in range(length)) for _ in range(arity)]
    return X, args


@settings(derandomize=True, max_examples=150, deadline=None)
@given(applications())
def test_apply_tables_matches_the_frozen_tuple_route(case):
    X, args = case
    expected = frozen_apply_tables(X, "f", args)
    got = X.apply_tables("f", args)
    assert type(got) is tuple
    assert got == expected
    if X.size <= 256 and args:
        as_bytes = X.apply_tables("f", [bytes(arg) for arg in args])
        assert tuple(as_bytes) == expected
        assert type(as_bytes) is (bytes if X.size ** len(args) <= 256 else tuple)


def test_mixed_argument_types_give_a_tuple():
    X = cyclic_group(4)
    got = X.apply_tables("m", [bytes([1, 2, 3]), (3, 3, 3)])
    assert got == (0, 1, 2) and type(got) is tuple


def _chain(k):
    """min on the chain 0 < 1 < ... < k-1, with the constant 0 and the successor."""
    sig = Signature([("m", 2), ("s", 1), ("z", 0)])
    pairs = itertools.product(range(k), repeat=2)
    ops = {"m": tuple(map(min, pairs)), "s": tuple(min(x + 1, k - 1) for x in range(k)), "z": 0}
    return FiniteAlgebra(sig, k, ops)


def _assert_matches_oracle(X, p_text, q_text):
    p, q = parse_term(p_text, X.sig), parse_term(q_text, X.sig)
    expected = naive_holds(X, p, q, sorted(vars_of(p) | vars_of(q)))
    verdict = holds(X, p, q)
    assert (verdict.ok, verdict.witness) == (expected is None, expected)
    family = in_equational_class(X, [(p, q)])
    assert family.ok == verdict.ok
    assert family.witness == (None if expected is None else (p, q, expected))
    return expected


# the first variable is nonzero in each witness: the first differing chunk is not the first
LATER_CHUNK_FAILURES = [
    ("m(v1,v2)", "v1"),
    ("m(v1,m(v2,v3))", "m(v1,v2)"),
    ("m(s(v1),v2)", "m(v2,s(z))"),  # with a constant
    ("m(v1,s(v2))", "m(v1,s(z))"),
    ("s(m(v2,v1))", "m(s(v2),s(z))"),
]


@pytest.mark.parametrize("k", [16, 17])
@pytest.mark.parametrize("p_text, q_text", LATER_CHUNK_FAILURES)
def test_later_chunk_failures_keep_the_least_witness(k, p_text, q_text, monkeypatch):
    kinds = []
    term_table = algebra.term_table

    def recording(*args):
        table = term_table(*args)
        kinds.append(type(table))
        return table

    monkeypatch.setattr(algebra, "term_table", recording)
    witness = _assert_matches_oracle(_chain(k), p_text, q_text)
    assert witness is not None and witness[min(witness)] > 0
    assert set(kinds) == {bytes if k <= 16 else tuple}
    # holds, then in_equational_class: two term tables a chunk each, and none after the failing chunk
    assert len(kinds) == 2 * 2 * (witness[min(witness)] + 1)


@pytest.mark.parametrize("k", [16, 17])
def test_identities_with_constants_match_the_oracle(k):
    X = _chain(k)
    assert _assert_matches_oracle(X, "m(v1,z)", "z") is None
    assert _assert_matches_oracle(X, "m(z,z)", "z") is None
    assert _assert_matches_oracle(X, "s(z)", "z") == {}
    assert _assert_matches_oracle(X, "m(v1,s(z))", "s(m(v1,z))") == {1: 0}
    assert _assert_matches_oracle(X, "m(v1,s(z))", "v1") == {1: 2}  # one variable: one chunk, a late entry
    assert _assert_matches_oracle(X, "m(v2,s(s(z)))", "m(s(z),v1)") == {1: 0, 2: 1}


def test_constants_only_carrier_above_256_stays_on_tuples():
    X = FiniteAlgebra(Signature([("c", 0)]), 300, {"c": 1})
    assert _assert_matches_oracle(X, "v1", "c") == {1: 0}
    assert _assert_matches_oracle(X, "c", "c") is None
    assert _assert_matches_oracle(X, "v2", "v1") == {1: 0, 2: 1}
    assert holds(X, parse_term("v1", X.sig), parse_term("v1", X.sig)).ok


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_holds_matches_the_oracle_at_the_edge(data):
    arity, sizes = data.draw(st.sampled_from(EDGES[1:]))
    k = data.draw(st.sampled_from(sizes))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    sig = Signature([("f", arity), ("c", 0)])
    ops = {"f": tuple(rng.randrange(k) for _ in range(k**arity)), "c": rng.randrange(k)}
    X = FiniteAlgebra(sig, k, ops)
    p = parse_term(random_term_text(sig, rng, depth=2), sig)
    q = parse_term(random_term_text(sig, rng, depth=2), sig)
    variables = sorted(vars_of(p) | vars_of(q))
    if k ** len(variables) > 20_000:
        return  # the oracle evaluates one assignment at a time
    expected = naive_holds(X, p, q, variables)
    verdict = holds(X, p, q)
    assert (verdict.ok, verdict.witness) == (expected is None, expected)
