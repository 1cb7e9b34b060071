import itertools
import json
import random

import pytest

from ualgebra import (
    CarrierMap,
    FiniteAlgebra,
    adjoined_infinity_monoid,
    cyclic_group,
    diagonal_hom,
    evaluate,
    group_axioms,
    holds,
    in_equational_class,
    is_homomorphism,
    kernel,
    klein_four,
    parse_term,
    product,
    quotient,
    semilattice2,
    subalgebra_generated,
    vars_of,
    Partition,
)
from ualgebra.errors import (
    ArityMismatchError,
    NotACongruenceError,
    OutOfCarrierError,
    SignatureMismatchError,
    SizeCapError,
    UnknownSymbolError,
)
from ualgebra.fixtures import GROUP_SIG

from _oracles import all_maps, random_term_text

Z2, Z3, Z4, Z6 = cyclic_group(2), cyclic_group(3), cyclic_group(4), cyclic_group(6)


def hom(values, X, Y):
    return CarrierMap(X.size, Y.size, tuple(values))


def test_apply():
    assert Z4.apply("m", (1, 3)) == 0
    assert Z4.apply("e", ()) == 0
    with pytest.raises(ArityMismatchError):
        Z4.apply("m", (1,))
    with pytest.raises(OutOfCarrierError):
        Z4.apply("m", (1, 7))
    with pytest.raises(UnknownSymbolError):
        Z4.apply("zz", ())


def test_table_validation():
    with pytest.raises(OutOfCarrierError):
        FiniteAlgebra(GROUP_SIG, 2, {"m": (0, 1, 1, 5), "i": (0, 1), "e": 0})
    with pytest.raises(ValueError):
        FiniteAlgebra(GROUP_SIG, 2, {"m": (0, 1, 1), "i": (0, 1), "e": 0})
    with pytest.raises(ValueError):
        FiniteAlgebra(GROUP_SIG, 2, {"i": (0, 1), "e": 0})


def test_is_homomorphism_examples():
    # oracle: exhaustive defining-equation check for x -> 3x and x -> 2x on Z4
    for factor in (3, 2):
        phi = hom([(factor * x) % 4 for x in range(4)], Z4, Z4)
        ok = all(
            phi(Z4.apply(name, args)) == Z4.apply(name, tuple(phi(a) for a in args))
            for name, arity in Z4.sig
            for args in itertools.product(range(4), repeat=arity)
        )
        assert ok
        assert is_homomorphism(phi, Z4, Z4).ok

    shift = hom([(x + 1) % 4 for x in range(4)], Z4, Z4)
    verdict = is_homomorphism(shift, Z4, Z4)
    assert not verdict.ok
    assert verdict.witness == ("e", ())  # constants must be preserved


def test_is_homomorphism_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        is_homomorphism(hom([0, 0], semilattice2(), Z4), semilattice2(), Z4)


def test_subalgebra_examples():
    members, sub = subalgebra_generated(Z6, {2})
    assert members == (0, 2, 4)
    assert sub.size == 3
    # the induced algebra is the cyclic group of order 3 after renumbering
    assert sub == cyclic_group(3)

    members, sub = subalgebra_generated(Z4, set())
    assert members == (0,)
    assert sub.size == 1

    members, _ = subalgebra_generated(semilattice2(), {1})
    assert members == (1,)

    members, sub = subalgebra_generated(semilattice2(), set())
    assert members == () and sub is None


def test_subalgebra_monotone_idempotent():
    for seed in [set(), {1}, {2}, {1, 2}, {0, 3}]:
        members, _ = subalgebra_generated(Z6, seed)
        again, _ = subalgebra_generated(Z6, members)
        assert again == members  # idempotent
        for bigger in [seed | {x} for x in range(6)]:
            more, _ = subalgebra_generated(Z6, bigger)
            assert set(members) <= set(more)  # monotone


def test_product_examples():
    prod, projections = product([Z2, Z2])
    assert prod.size == 4
    for pr, factor in zip(projections, [Z2, Z2]):
        assert is_homomorphism(pr, prod, factor).ok

    single, _ = product([Z3])
    assert single == Z3  # trivial encoding preserves the tables

    empty, projections = product([], sig=GROUP_SIG)
    assert empty.size == 1 and projections == []
    assert empty.apply("m", (0, 0)) == 0


def test_product_errors():
    with pytest.raises(SignatureMismatchError):
        product([Z2, semilattice2()])
    with pytest.raises(SizeCapError):
        product([Z4] * 8)


def test_quotient_examples():
    Y, qmap = quotient(Z4, Partition.parse("0,2|1,3"))
    assert Y.size == 2
    assert Y == Z2  # canonical renumbering yields the two-element group table
    assert is_homomorphism(qmap, Z4, Y).ok
    assert qmap.values == (0, 1, 0, 1)

    with pytest.raises(NotACongruenceError) as exc:
        quotient(Z4, Partition.parse("0,1|2,3"))
    translation, pair = exc.value.witness
    assert pair == (0, 1)
    assert translation.table == (1, 2, 3, 0)  # x -> x+1

    Y, _ = quotient(Z4, Partition.singletons(4))
    assert Y == Z4


def test_kernel():
    assert kernel(hom([0, 1, 0, 1], Z4, Z2)) == Partition.parse("0,2|1,3")
    assert kernel(CarrierMap.identity(4)) == Partition.singletons(4)
    assert kernel(CarrierMap(4, 1, (0, 0, 0, 0))) == Partition.single_block(4)


def test_holds_examples():
    p = parse_term("m(v1,v2)", GROUP_SIG)
    q = parse_term("m(v2,v1)", GROUP_SIG)
    assert holds(Z3, p, q).ok

    S = adjoined_infinity_monoid(3)
    verdict = holds(S, parse_term("m(v1,i(v1))", GROUP_SIG), parse_term("e", GROUP_SIG))
    assert not verdict.ok
    assert verdict.witness == {1: 3}  # the adjoined absorbing point

    v1 = parse_term("v1", GROUP_SIG)
    assert holds(Z4, v1, v1).ok


def test_in_equational_class():
    assert in_equational_class(Z3, group_axioms()).ok
    verdict = in_equational_class(adjoined_infinity_monoid(3), group_axioms())
    assert not verdict.ok
    p, q, assignment = verdict.witness
    assert (p, q) == group_axioms()[2]  # x·x⁻¹ ≈ e is the first to fail
    assert assignment == {1: 3}
    assert in_equational_class(adjoined_infinity_monoid(3), []).ok  # vacuous


def test_group_axioms_on_fixtures():
    for G in (Z2, Z3, Z4, cyclic_group(5), Z6, klein_four()):
        assert in_equational_class(G, group_axioms()).ok


def test_diagonal_hom():
    mod2 = hom([0, 1, 0, 1], Z4, Z2)
    ident = CarrierMap.identity(4)
    diag, prod, injective = diagonal_hom(Z4, [Z2, Z4], [mod2, ident])
    assert injective
    assert is_homomorphism(diag, Z4, prod).ok

    diag2, prod2, injective2 = diagonal_hom(Z4, [Z2, Z2], [mod2, mod2])
    assert not injective2  # 0 and 2 collide
    assert is_homomorphism(diag2, Z4, prod2).ok
    # kernel of the diagonal is the meet of the kernels
    assert kernel(diag2) == kernel(mod2).meet(kernel(mod2))
    assert kernel(diag) == kernel(mod2).meet(kernel(ident))


def test_diagonal_requires_homomorphisms():
    shift = hom([(x + 1) % 4 for x in range(4)], Z4, Z4)
    with pytest.raises(ValueError):
        diagonal_hom(Z4, [Z4], [shift])


def test_json_roundtrip_and_unknown_fields():
    doc = Z4.to_json_dict()
    assert doc["ops"]["m"][1] == [1, 2, 3, 0]  # row-major: row = first argument
    assert doc["ops"]["i"] == [0, 3, 2, 1]
    assert doc["ops"]["e"] == 0
    assert FiniteAlgebra.from_json_dict(json.loads(json.dumps(doc))) == Z4

    bad = dict(doc)
    bad["comment"] = "nope"
    with pytest.raises(ValueError):
        FiniteAlgebra.from_json_dict(bad)


def test_hom_kernel_congruence_and_induced_bijection():
    # every homomorphism's kernel is a congruence and the induced map on the
    # quotient is an injective homomorphism into the target
    from ualgebra import is_congruence_direct

    cases = [(Z4, Z2), (Z6, Z3), (Z6, Z2), (klein_four(), Z2), (Z4, Z4)]
    found = 0
    for X, Y in cases:
        for values in all_maps(X.size, Y.size):
            phi = hom(values, X, Y)
            if not is_homomorphism(phi, X, Y).ok:
                continue
            found += 1
            ker = kernel(phi)
            assert is_congruence_direct(X, ker).ok
            Q, qmap = quotient(X, ker)
            reps = [block[0] for block in ker.blocks()]
            induced = CarrierMap(Q.size, Y.size, tuple(phi(r) for r in reps))
            assert induced.is_injective()
            assert is_homomorphism(induced, Q, Y).ok
            assert qmap.then(induced).values == phi.values
    assert found > 10  # the search space really contained homomorphisms


def test_homomorphism_commutes_with_evaluation():
    rng = random.Random(424242)
    pairs = [(Z4, Z2, hom([0, 1, 0, 1], Z4, Z2)), (Z6, Z3, hom([x % 3 for x in range(6)], Z6, Z3))]
    for X, Y, phi in pairs:
        assert is_homomorphism(phi, X, Y).ok
        for _ in range(60):
            term = parse_term(random_term_text(GROUP_SIG, rng, depth=3), GROUP_SIG)
            assignment = {v: rng.randrange(X.size) for v in vars_of(term)}
            mapped = {v: phi(x) for v, x in assignment.items()}
            assert phi(evaluate(term, X, assignment)) == evaluate(term, Y, mapped)


def test_identity_preserved_under_h_s_p():
    # Birkhoff's easy direction on fixtures: identities survive subalgebras,
    # quotients, and finite powers
    from ualgebra import all_congruences

    mu_like = [(p, q) for p, q in group_axioms()]
    for X in (Z4, Z6, klein_four()):
        for p, q in mu_like:
            assert holds(X, p, q).ok
            for seed_size in range(X.size):
                members, sub = subalgebra_generated(X, {seed_size})
                assert holds(sub, p, q).ok
            for theta in all_congruences(X):
                Q, _ = quotient(X, theta)
                assert holds(Q, p, q).ok
            square, _ = product([X, X])
            assert holds(square, p, q).ok


def test_failure_on_subset_forces_failure_on_whole():
    # restriction direction: a violation inside a subalgebra is a violation
    # of the whole algebra
    S = adjoined_infinity_monoid(3)
    p = parse_term("m(v1,i(v1))", GROUP_SIG)
    q = parse_term("e", GROUP_SIG)
    members, sub = subalgebra_generated(S, {3})
    assert members == (0, 3)
    sub_verdict = holds(sub, p, q)
    assert not sub_verdict.ok
    # map the violating assignment back through the renumbering
    lifted = {v: members[x] for v, x in sub_verdict.witness.items()}
    assert evaluate(p, S, lifted) != evaluate(q, S, lifted)
    assert not holds(S, p, q).ok
