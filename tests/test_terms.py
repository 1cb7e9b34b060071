import random

import pytest

from ualgebra import (
    Apply,
    Constant,
    PreservationClass,
    Variable,
    classify_identity,
    cyclic_group,
    evaluate,
    format_term,
    occurrences,
    parse_signature,
    parse_term,
    vars_of,
)
from ualgebra.errors import (
    ArityMismatchError,
    ParseError,
    SignatureMismatchError,
    UnboundVariableError,
    UnknownSymbolError,
)
from ualgebra.fixtures import GROUP_SIG

from _oracles import random_term_text


def test_parse_application():
    t = parse_term("m(v1, i(v1))", GROUP_SIG)
    assert t == Apply("m", (Variable(1), Apply("i", (Variable(1),))))


def test_parse_constant():
    assert parse_term("e", GROUP_SIG) == Constant("e")


def test_parse_arity_mismatch():
    with pytest.raises(ArityMismatchError) as exc:
        parse_term("m(v1)", GROUP_SIG)
    assert (exc.value.symbol, exc.value.expected, exc.value.found) == ("m", 2, 1)


def test_parse_bare_nonconstant():
    with pytest.raises(ArityMismatchError):
        parse_term("m", GROUP_SIG)


def test_parse_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        parse_term("f(v1)", GROUP_SIG)


@pytest.mark.parametrize("text", ["", "m(v1,v2", "m(,v1)", "v1)", "m()", "v1 v2", "m(v1,)"])
def test_parse_syntax_errors(text):
    with pytest.raises((ParseError, ArityMismatchError)):
        parse_term(text, GROUP_SIG)


def test_v0_is_not_a_variable():
    # var indices start at 1; 'v0' falls back to symbol lookup
    with pytest.raises(UnknownSymbolError):
        parse_term("v0", GROUP_SIG)


def test_vars_of():
    assert vars_of(parse_term("e", GROUP_SIG)) == frozenset()
    assert vars_of(parse_term("v3", GROUP_SIG)) == {3}
    assert vars_of(parse_term("m(v1,i(v2))", GROUP_SIG)) == {1, 2}


def test_occurrences():
    assert occurrences(parse_term("v1", GROUP_SIG), 1) == 1
    assert occurrences(parse_term("v1", GROUP_SIG), 2) == 0
    assert occurrences(parse_term("m(v2,m(v2,v1))", GROUP_SIG), 2) == 2
    assert occurrences(parse_term("e", GROUP_SIG), 1) == 0


def test_evaluate_examples():
    Z3 = cyclic_group(3)
    Z4 = cyclic_group(4)
    assert evaluate(parse_term("m(v1,v2)", GROUP_SIG), Z3, {1: 1, 2: 2}) == 0
    assert evaluate(parse_term("e", GROUP_SIG), Z3, {}) == 0
    assert evaluate(parse_term("i(m(v1,v2))", GROUP_SIG), Z4, {1: 1, 2: 2}) == 1


def test_evaluate_unbound_variable():
    with pytest.raises(UnboundVariableError):
        evaluate(parse_term("m(v1,v2)", GROUP_SIG), cyclic_group(3), {1: 0})


def test_evaluate_signature_mismatch():
    other = parse_signature("f/1")
    term = parse_term("f(v1)", other)
    with pytest.raises(SignatureMismatchError):
        evaluate(term, cyclic_group(3), {1: 0})


def test_classify_identity():
    p = parse_term("m(v1,m(v2,v3))", GROUP_SIG)
    q = parse_term("m(m(v1,v2),v3)", GROUP_SIG)
    assert classify_identity(p, q) is PreservationClass.LINEAR

    mu_sig = parse_signature("mu/3")
    p = parse_term("mu(v2,v2,v1)", mu_sig)
    q = parse_term("v1", mu_sig)
    assert classify_identity(p, q) is PreservationClass.LINEAR_QUADRATIC

    p = parse_term("m(v1,m(v1,v1))", GROUP_SIG)
    q = parse_term("e", GROUP_SIG)
    assert classify_identity(p, q) is PreservationClass.UNCLASSIFIED


def test_classify_symmetric_condition():
    mu_sig = parse_signature("mu/3")
    p = parse_term("v1", mu_sig)
    q = parse_term("mu(v2,v2,v1)", mu_sig)
    assert classify_identity(p, q) is PreservationClass.LINEAR_QUADRATIC


def test_roundtrip_random_terms():
    rng = random.Random(20240817)
    for _ in range(300):
        text = random_term_text(GROUP_SIG, rng, depth=rng.randint(0, 4))
        term = parse_term(text, GROUP_SIG)
        assert parse_term(format_term(term), GROUP_SIG) == term


def test_occurrences_match_leaf_count_and_vars():
    rng = random.Random(99)
    for _ in range(200):
        term = parse_term(random_term_text(GROUP_SIG, rng, depth=3), GROUP_SIG)

        def count_leaves(t, v):
            if isinstance(t, Variable):
                return 1 if t.index == v else 0
            if isinstance(t, Constant):
                return 0
            return sum(count_leaves(c, v) for c in t.children)

        for v in range(1, 6):
            n = occurrences(term, v)
            assert n == count_leaves(term, v)
            assert (n > 0) == (v in vars_of(term))


def test_evaluation_locality():
    rng = random.Random(7)
    Z4 = cyclic_group(4)
    for _ in range(100):
        term = parse_term(random_term_text(GROUP_SIG, rng, depth=3), GROUP_SIG)
        base = {v: rng.randrange(4) for v in vars_of(term)}
        noisy = dict(base)
        noisy[17] = rng.randrange(4)  # junk variable not in the term
        for v in range(1, 6):
            if v not in vars_of(term):
                noisy[v] = rng.randrange(4)
        assert evaluate(term, Z4, base) == evaluate(term, Z4, noisy)


def test_linear_implies_linear_quadratic_condition():
    # the stronger class must satisfy the weaker bounds
    rng = random.Random(1234)
    for _ in range(200):
        p = parse_term(random_term_text(GROUP_SIG, rng, depth=3), GROUP_SIG)
        q = parse_term(random_term_text(GROUP_SIG, rng, depth=3), GROUP_SIG)
        if classify_identity(p, q) is PreservationClass.LINEAR:
            for v in vars_of(p) | vars_of(q):
                assert occurrences(p, v) <= 1 and occurrences(q, v) <= 2


def test_occurrence_profile_results_are_not_shared():
    from ualgebra.terms import occurrence_profile

    t = parse_term("m(v1,v1)", GROUP_SIG)
    occurrence_profile(t)[1] = 1
    assert occurrences(t, 1) == 2
    assert classify_identity(t, parse_term("v1", GROUP_SIG)) is PreservationClass.LINEAR_QUADRATIC
