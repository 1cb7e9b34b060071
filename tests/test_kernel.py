"""The table kernel against one-assignment-at-a-time oracles.

``FiniteAlgebra.apply_tables`` and ``term_table`` replace per-assignment
evaluation everywhere; these seeded sweeps compare them with the recursive
oracle and with per-tuple ``X.apply`` loops on random algebras.
"""

import math
import random
import tracemalloc

import pytest

from ualgebra import (
    FiniteAlgebra,
    Signature,
    clone_ternary_terms,
    cyclic_group,
    evaluate,
    holds,
    parse_term,
    product,
    vars_of,
)
from ualgebra.errors import SizeCapError

from _oracles import naive_evaluate, naive_holds, naive_product_table, random_term_text

NAMES = ("c", "u", "f", "g")  # one symbol name per arity 0..3


def random_algebra(rng, k, sig=None):
    if sig is None:
        arities = sorted(rng.sample(range(4), rng.randint(1, 4)))
        sig = Signature([(NAMES[a], a) for a in arities])
    ops = {
        name: rng.randrange(k) if a == 0 else tuple(rng.randrange(k) for _ in range(k**a))
        for name, a in sig
    }
    return FiniteAlgebra(sig, k, ops)


def test_holds_and_evaluate_match_recursive_oracle():
    rng = random.Random(20261017)
    checked = failing = 0
    for _ in range(300):
        X = random_algebra(rng, rng.randint(1, 5))
        if all(arity == 0 for _, arity in X.sig):
            continue  # only constants: every term is a variable or a constant
        for _ in range(2):
            p = parse_term(random_term_text(X.sig, rng, depth=rng.randint(0, 3)), X.sig)
            q = parse_term(random_term_text(X.sig, rng, depth=rng.randint(0, 3)), X.sig)
            variables = sorted(vars_of(p) | vars_of(q))
            expected = naive_holds(X, p, q, variables)
            verdict = holds(X, p, q)
            assert verdict.ok == (expected is None)
            assert verdict.witness == expected
            failing += expected is not None
            assignment = {v: rng.randrange(X.size) for v in variables}
            assert evaluate(p, X, assignment) == naive_evaluate(p, X, assignment)
            checked += 1
    assert checked > 500 and 100 < failing < checked - 100  # both verdicts really occurred


def test_product_tables_match_per_tuple_oracle():
    rng = random.Random(4242)
    for _ in range(25):
        first = random_algebra(rng, rng.randint(1, 4))
        ternary = any(a == 3 for _, a in first.sig)
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(0, 1 if ternary else 2))]
        factors = [first] + [random_algebra(rng, k, first.sig) for k in sizes]
        prod, projections = product(factors)
        for name, arity in first.sig:
            table = prod.table(name)
            assert (list(table) if arity else [table]) == naive_product_table(factors, name, arity)
        for i, (pr, f) in enumerate(zip(projections, factors)):
            stride = math.prod(g.size for g in factors[i + 1 :])
            assert pr.values == tuple(x // stride % f.size for x in range(prod.size))


def _allocated_peak(fn):
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError):
            fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_cap_fails_fast():
    Z8 = cyclic_group(8)
    p = parse_term("m(v1,m(v2,m(v3,m(v4,m(v5,m(v6,m(v7,v8)))))))", Z8.sig)
    q = parse_term("m(m(m(m(m(m(m(v1,v2),v3),v4),v5),v6),v7),v8)", Z8.sig)
    assert _allocated_peak(lambda: holds(Z8, p, q)) < 1 << 20  # 8^8 entries refused up front

    successor = tuple((x + 1) % 200 for x in range(200))
    unary = FiniteAlgebra(Signature([("u", 1)]), 200, {"u": successor})
    assert _allocated_peak(lambda: clone_ternary_terms(unary)) < 1 << 20  # 200^3 entries

    # m pulled back to the 4096-element product carrier: 4096^2 entries
    assert _allocated_peak(lambda: product([Z8] * 4)) < 1 << 20
    with pytest.raises(SizeCapError, match="^a table of 16777216 entries exceeds the fixed limit of 1048576 entries$"):
        product([Z8] * 4)
