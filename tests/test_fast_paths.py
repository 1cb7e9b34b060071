"""Generated algebras: each fast path against its oracle in ``_oracles``.

Algebras have at most 4 elements, over the signatures of the translation
tests, with random tables or a planted congruence.  One timing test checks
that ``quotient`` stays fast on a planted algebra of 512 elements.
"""

import random
import time
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from ualgebra import FiniteAlgebra, Partition, Signature, all_congruences, evaluate, holds
from ualgebra import largest_congruence_below, quotient
from ualgebra.congruences import is_congruence_via_translations
from ualgebra.terms import Apply, Constant, Variable, vars_of
from ualgebra.translations import semigroup_tree

from _oracles import (
    naive_congruence_labelings,
    naive_evaluate,
    naive_holds,
    naive_largest_congruence_below,
    naive_semigroup_tables,
    naive_translation_witness,
    planted_algebra,
)
from test_translations import SIGNATURES

property_test = settings(derandomize=True, max_examples=25, deadline=None)


@st.composite
def algebras(draw):
    sig = draw(st.sampled_from(SIGNATURES))
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):  # random tables mostly have only the trivial congruences
        return planted_algebra(draw(st.randoms(use_true_random=False)), k, draw(st.integers(1, k)), sig)[0]
    ops = {}
    for name, arity in sig:
        table = draw(st.lists(st.integers(0, k - 1), min_size=k**arity, max_size=k**arity))
        ops[name] = table if arity else table[0]
    return FiniteAlgebra(sig, k, ops)


def terms(sig):
    leaves = st.builds(Variable, st.integers(1, 3))
    constants = [Constant(name) for name, arity in sig if arity == 0]
    if constants:
        leaves |= st.sampled_from(constants)

    def apply(children):
        operations = [(name, arity) for name, arity in sig if arity]
        return st.one_of([st.tuples(*[children] * arity).map(partial(Apply, name)) for name, arity in operations])

    return st.recursive(leaves, apply, max_leaves=6)


@property_test
@given(st.data())
def test_largest_congruence_below_matches_the_oracle(data):
    X = data.draw(algebras())
    labels = data.draw(st.lists(st.integers(0, X.size - 1), min_size=X.size, max_size=X.size))
    assert largest_congruence_below(X, Partition(labels)) == Partition(naive_largest_congruence_below(X, labels))


@property_test
@given(algebras())
def test_all_congruences_match_the_oracle(X):
    got = all_congruences(X)
    assert len(set(got)) == len(got)
    assert set(got) == {Partition(labels) for labels in naive_congruence_labelings(X)}


@property_test
@given(st.data())
def test_holds_and_evaluate_match_the_oracles(data):
    X = data.draw(algebras())
    p, q = data.draw(terms(X.sig)), data.draw(terms(X.sig))
    variables = sorted(vars_of(p) | vars_of(q))
    verdict = holds(X, p, q)
    assert verdict.witness == naive_holds(X, p, q, variables)  # the least failing assignment, or None
    assert verdict.ok == (verdict.witness is None)
    assignment = {v: data.draw(st.integers(0, X.size - 1)) for v in variables}
    assert evaluate(p, X, assignment) == naive_evaluate(p, X, assignment)


@property_test
@given(algebras())
def test_semigroup_tree_tables_match_the_oracle(X):
    tables = list(map(tuple, semigroup_tree(X).tables))
    assert len(set(tables)) == len(tables)
    assert set(tables) == naive_semigroup_tables(X)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_translation_congruence_test_matches_the_pair_scan(data):
    X = data.draw(algebras())
    labels = data.draw(st.lists(st.integers(0, X.size - 1), min_size=X.size, max_size=X.size))
    got = is_congruence_via_translations(X, Partition(labels))
    want = naive_translation_witness(X, Partition(labels))
    assert got.ok == want.ok
    if not want.ok:
        (translation, pair), (expected, expected_pair) = got.witness, want.witness
        assert (translation.table, translation.word, pair) == (expected.table, expected.word, expected_pair)


def test_quotient_of_a_planted_binary_algebra_of_512_elements_takes_under_2_s():
    X, labels = planted_algebra(random.Random(512), 512, 2, Signature([("f", 2)]))
    start = time.perf_counter()
    Y, _ = quotient(X, Partition(labels))
    assert time.perf_counter() - start < 2.0  # a scan of all same-block pairs takes seconds here
    assert Y.size == 2
