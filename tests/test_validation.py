"""Each algebra table is validated once.

``algebra._flatten`` checks a table from outside the library one nesting
level at a time; it is compared with ``frozen_flatten``, the depth-first walk
it replaced, on valid tables, on tables with one fault and on arbitrary
values.  Algebras the library builds (quotients, subalgebras, products,
least factorizations) skip validation, so each is compared with a validated
rebuild.  Bad arguments to the library functions raise their typed errors,
and every site of a rule that one guard or one cap constructor defines
raises it with its type and message.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ualgebra import (
    CarrierMap,
    Factorization,
    FiniteAlgebra,
    Partition,
    Signature,
    Variable,
    adjoined_infinity_monoid,
    all_congruences,
    all_partitions,
    clone_ternary_terms,
    congruence_generated,
    cyclic_group,
    diagonal_hom,
    enumerate_factorizations,
    greatest_factorization,
    has_malcev_term,
    is_factorization,
    is_homomorphism,
    largest_congruence_below,
    least_factorization,
    malcev_algebra_from,
    precedes,
    product,
    quotient,
    subalgebra_generated,
    translation_semigroup,
)
from ualgebra.algebra import _flatten
from ualgebra.congruences import is_congruence_direct, is_congruence_via_translations
from ualgebra.errors import (
    ArgumentError,
    ArityMismatchError,
    FormatError,
    MismatchedBaseError,
    OutOfCarrierError,
    PartitionError,
    SizeCapError,
    SizeMismatchError,
    UAlgError,
    UnknownSymbolError,
)
from ualgebra.translations import semigroup_tree

from _oracles import SIGNATURES, frozen_flatten, planted_algebra

flatten_test = settings(derandomize=True, max_examples=400, deadline=None)


def _outcome(flatten, table, arity, k):
    """``("flat", table)``, or the type and message of the error raised."""
    try:
        return "flat", flatten(table, arity, k, "f")
    except UAlgError as error:
        return type(error), str(error)


def _nest(entries, arity, k, container):
    if arity == 0:
        return entries[0]
    if arity == 1:
        return container(entries)
    step = k ** (arity - 1)
    return container(_nest(entries[i * step : (i + 1) * step], arity - 1, k, container) for i in range(k))


def _rows(node, parent=None, index=None):
    """Every list of a nested table, with its parent list and index (None for the top)."""
    if isinstance(node, list):
        yield node, parent, index
        for i, child in enumerate(node):
            yield from _rows(child, node, i)


@st.composite
def valid_tables(draw, container=st.sampled_from([list, tuple])):
    """A valid table, nested or flat, with its arity and carrier size."""
    arity = draw(st.integers(0, 3))
    k = draw(st.integers(1, 5))
    entries = draw(st.lists(st.integers(0, k - 1), min_size=k**arity, max_size=k**arity))
    box = draw(container)
    if arity and draw(st.booleans()):
        return box(entries), arity, k
    return _nest(entries, arity, k, box), arity, k


def _inject_fault(draw, table, arity, k):
    """``table`` (of lists) with one fault: a bad leaf, a row made longer or
    shorter, or a row replaced by an integer."""
    bad_leaves = st.sampled_from((True, False, "0", 0.5, [0], -1, k)).map(copy.deepcopy)
    if arity == 0 or not isinstance(table, list):
        return draw(bad_leaves)
    rows = list(_rows(table))
    leaf_rows = [row for row, _, _ in rows if any(type(x) is int for x in row)]
    kind = draw(st.sampled_from(["leaf"] * bool(leaf_rows) + ["longer", "shorter", "int"]))
    if kind == "leaf":
        row = leaf_rows[draw(st.integers(0, len(leaf_rows) - 1))]
        leaves = [i for i, x in enumerate(row) if type(x) is int]
        row[leaves[draw(st.integers(0, len(leaves) - 1))]] = draw(bad_leaves)
        return table
    row, parent, index = rows[draw(st.integers(0, len(rows) - 1))]
    if kind == "longer":
        row.append(copy.deepcopy(row[0]) if row else 0)
    elif kind == "shorter":
        del row[-1:]  # empty only after an earlier fault
    elif parent is None:
        return draw(st.integers(0, k - 1))
    else:
        parent[index] = draw(st.integers(0, k - 1))
    return table


@st.composite
def faulty_tables(draw, faults=1):
    table, arity, k = draw(valid_tables(container=st.just(list)))
    for _ in range(faults):
        table = _inject_fault(draw, table, arity, k)
    return table, arity, k


def _any_value():
    leaves = st.none() | st.booleans() | st.integers(-2, 6) | st.floats(allow_nan=False) | st.text(max_size=2)
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=6) | st.tuples(inner, inner), max_leaves=40)


@flatten_test
@given(valid_tables())
def test_valid_tables_flatten_as_before(case):
    table, arity, k = case
    got = _flatten(table, arity, k, "f")
    assert got == frozen_flatten(table, arity, k, "f")
    assert type(got) is tuple


@flatten_test
@given(faulty_tables())
def test_one_fault_gives_the_same_error_as_before(case):
    expected = _outcome(frozen_flatten, *case)
    assert expected[0] != "flat"
    assert _outcome(_flatten, *case) == expected


@flatten_test
@given(faulty_tables(faults=3) | st.tuples(_any_value(), st.integers(0, 3), st.integers(1, 5)))
def test_any_other_value_gives_the_same_error_type_as_before(case):
    expected = _outcome(frozen_flatten, *case)
    got = _outcome(_flatten, *case)
    assert got[0] == expected[0]
    if expected[0] == "flat":
        assert got == expected


def test_several_faults_name_the_first_found_level_by_level():
    table = [[[0, 0, 0, 1], 0], [[0, 0, 0, 1]]]
    with pytest.raises(FormatError, match="row of length 1, expected 2"):
        FiniteAlgebra(Signature([("t", 3)]), 2, {"t": table})
    with pytest.raises(FormatError, match="row of length 4, expected 2"):
        frozen_flatten(table, 3, 2, "t")


def _library_built(rng, X, other):
    """Algebras built from X by quotient, subalgebra, product and least factorization."""
    k = X.size
    pairs = [(rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(1, 2))]
    yield quotient(X, congruence_generated(X, pairs))[0]
    sub = subalgebra_generated(X, rng.sample(range(k), rng.randint(0, k))).algebra
    if sub is not None:
        yield sub
    yield product([X, other])[0]
    yield product([], X.sig)[0]
    f = CarrierMap(k, 3, tuple(rng.randrange(3) for _ in range(k)))
    yield least_factorization(X, f).Y


@pytest.mark.parametrize("sig", SIGNATURES, ids=lambda sig: sig.format())
def test_library_built_algebras_equal_a_validated_rebuild(sig):
    rng = random.Random(2026)
    for k in range(1, 7):
        for blocks in {k, max(1, k // 2)}:  # all blocks singletons: a random algebra
            X = planted_algebra(rng, k, blocks, sig)[0]
            other = planted_algebra(rng, rng.randint(1, 6), 1, sig)[0]
            for Y in _library_built(rng, X, other):
                assert Y == FiniteAlgebra(Y.sig, Y.size, Y.to_json_dict()["ops"])
                for name, arity in Y.sig:
                    table = Y._tables[name]
                    assert type(table) is tuple and len(table) == Y.size**arity
                    assert all(type(x) is int and 0 <= x < Y.size for x in table)


Z3, IDENTITY3 = cyclic_group(3), CarrierMap.identity(3)
SHORT_MAP = CarrierMap.identity(2)  # fits no carrier of Z3
BAD_ARGUMENTS = {
    "largest_congruence_below": (lambda: largest_congruence_below(Z3, Partition([0, 0])), SizeMismatchError),
    "is_congruence_via_translations": (
        lambda: is_congruence_via_translations(Z3, Partition([0, 0])),
        SizeMismatchError,
    ),
    "is_congruence_direct": (lambda: is_congruence_direct(Z3, Partition([0, 0, 0, 0])), SizeMismatchError),
    "congruence_generated": (lambda: congruence_generated(Z3, [(0, 3)]), OutOfCarrierError),
    "Partition.from_blocks": (lambda: Partition.from_blocks(3, [[0, 2]]), PartitionError),
    "Partition.from_pairs": (lambda: Partition.from_pairs(3, [(1, 3)]), PartitionError),
    "Partition.refines": (lambda: Partition([0, 0]).refines(Partition([0, 1, 1])), SizeMismatchError),
    "apply_tables arity": (lambda: Z3.apply_tables("m", [(0, 1)]), ArityMismatchError),
    "apply_tables lengths": (lambda: Z3.apply_tables("m", [(0, 1), (2,)]), SizeMismatchError),
    "is_homomorphism": (lambda: is_homomorphism(SHORT_MAP, Z3, Z3), SizeMismatchError),
    "CarrierMap length": (lambda: CarrierMap(3, 3, (0, 1)), SizeMismatchError),
    "CarrierMap image": (lambda: CarrierMap(2, 2, (0, 2)), OutOfCarrierError),
    "CarrierMap.then": (lambda: SHORT_MAP.then(IDENTITY3), SizeMismatchError),
    "least_factorization": (lambda: least_factorization(Z3, SHORT_MAP), SizeMismatchError),
    "greatest_factorization": (lambda: greatest_factorization(Z3, SHORT_MAP), SizeMismatchError),
    "enumerate_factorizations": (lambda: enumerate_factorizations(Z3, SHORT_MAP), SizeMismatchError),
    "is_factorization": (
        lambda: is_factorization(Z3, SHORT_MAP, greatest_factorization(Z3, IDENTITY3)),
        SizeMismatchError,
    ),
    "precedes across bases": (
        lambda: precedes(greatest_factorization(Z3, IDENTITY3), greatest_factorization(cyclic_group(2), SHORT_MAP)),
        MismatchedBaseError,
    ),
    "precedes across maps": (
        lambda: precedes(
            greatest_factorization(Z3, IDENTITY3), greatest_factorization(Z3, CarrierMap(3, 3, (1, 2, 0)))
        ),
        MismatchedBaseError,
    ),
    "precedes with g2 not onto": (
        lambda: precedes(
            greatest_factorization(Z3, IDENTITY3),
            Factorization(CarrierMap(3, 4, (0, 1, 2)), cyclic_group(4), CarrierMap(4, 3, (0, 1, 2, 0)), 3),
        ),
        MismatchedBaseError,
    ),
}


@pytest.mark.parametrize("call, error", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_bad_arguments_raise_their_typed_error(call, error):
    with pytest.raises(UAlgError) as info:
        call()
    assert type(info.value) is error


SHIFT3 = CarrierMap(3, 3, (1, 2, 0))  # x -> x + 1, a bijection but no homomorphism of Z3
DOMAIN_ERRORS = {
    "cyclic_group(0)": (lambda: cyclic_group(0), ArgumentError),
    "adjoined_infinity_monoid(0)": (lambda: adjoined_infinity_monoid(0), ArgumentError),
    "malcev_algebra_from, length not a cube": (lambda: malcev_algebra_from([0] * 5), FormatError),
    "Variable(0)": (lambda: Variable(0), ArgumentError),
    "diagonal_hom without maps": (lambda: diagonal_hom(Z3, [], []), ArgumentError),
    "diagonal_hom of a non-homomorphism": (lambda: diagonal_hom(Z3, [Z3], [SHIFT3]), ArgumentError),
}


@pytest.mark.parametrize("call, error", DOMAIN_ERRORS.values(), ids=DOMAIN_ERRORS)
def test_domain_errors_are_typed_and_still_value_errors(call, error):
    with pytest.raises(UAlgError) as info:
        call()
    assert type(info.value) is error
    assert isinstance(info.value, ValueError)


PAIR = Partition.singletons(2)  # fits no carrier of Z3
UNARY4 = FiniteAlgebra(Signature([("u", 1)]), 4, {"u": [0, 1, 2, 3]})  # all 15 partitions are congruences
# Each rule that one guard or one cap constructor defines, at every site that
# raises it.  Cap 0 cannot reach the congruence refusal: at k >= 2 the pairs
# a < b outnumber the cap first, and at k = 1 no join is made, so none is counted.
SHARED_RULE_MESSAGES = {
    "is_factorization": (
        lambda: is_factorization(Z3, SHORT_MAP, greatest_factorization(Z3, IDENTITY3)),
        SizeMismatchError,
        "f is not a map on X's carrier",
    ),
    "greatest_factorization": (
        lambda: greatest_factorization(Z3, SHORT_MAP),
        SizeMismatchError,
        "f is not a map on X's carrier",
    ),
    "least_factorization": (
        lambda: least_factorization(Z3, SHORT_MAP),
        SizeMismatchError,
        "f is not a map on X's carrier",
    ),
    "enumerate_factorizations": (
        lambda: enumerate_factorizations(Z3, SHORT_MAP),
        SizeMismatchError,
        "f is not a map on X's carrier",
    ),
    "is_congruence_direct": (
        lambda: is_congruence_direct(Z3, PAIR),
        SizeMismatchError,
        "partition size 2 != carrier size 3",
    ),
    "is_congruence_via_translations": (
        lambda: is_congruence_via_translations(Z3, PAIR),
        SizeMismatchError,
        "partition size 2 != carrier size 3",
    ),
    "largest_congruence_below": (
        lambda: largest_congruence_below(Z3, PAIR),
        SizeMismatchError,
        "partition size 2 != carrier size 3",
    ),
    "Partition.refines": (
        lambda: PAIR.refines(Partition.singletons(3)),
        SizeMismatchError,
        "partition sizes differ: 2 vs 3",
    ),
    "Partition.meet": (
        lambda: Partition.single_block(3).meet(PAIR),
        SizeMismatchError,
        "partition sizes differ: 3 vs 2",
    ),
    "semigroup cap 0": (
        lambda: semigroup_tree(cyclic_group(4), 0),
        SizeCapError,
        "1 translations found, cap 0 (--max-semigroup)",
    ),
    "semigroup cap within the identity's run": (
        lambda: semigroup_tree(cyclic_group(4), 2),
        SizeCapError,
        "3 translations found, cap 2 (--max-semigroup)",
    ),
    "semigroup cap mid-closure": (
        lambda: translation_semigroup(cyclic_group(4), 5),
        SizeCapError,
        "6 translations found, cap 5 (--max-semigroup)",
    ),
    "congruences cap mid-closure": (
        lambda: all_congruences(UNARY4, 6),
        SizeCapError,
        "7 congruences found, cap 6 (--max-partitions)",
    ),
    "clone cap 0": (
        lambda: clone_ternary_terms(Z3, 0),
        SizeCapError,
        "1 ternary term operations found, cap 0 (--max-clone)",
    ),
    "clone cap mid-closure": (
        lambda: has_malcev_term(Z3, 5),
        SizeCapError,
        "6 ternary term operations found, cap 5 (--max-clone)",
    ),
}


@pytest.mark.parametrize("call, error, message", SHARED_RULE_MESSAGES.values(), ids=SHARED_RULE_MESSAGES)
def test_shared_rules_keep_their_type_and_message(call, error, message):
    with pytest.raises(UAlgError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_unknown_symbol_has_no_index():
    with pytest.raises(UnknownSymbolError, match="unknown symbol 'g'"):
        Z3.sig.index("g")


def test_a_candidate_whose_maps_do_not_fit_is_no_factorization():
    onto_two = CarrierMap(3, 2, (0, 1, 0))
    verdict = is_factorization(Z3, onto_two, greatest_factorization(Z3, IDENTITY3))
    assert not verdict and verdict.witness == "maps do not fit between X, Y, and Z"


def test_precedes_fails_when_q_is_well_defined_but_no_homomorphism():
    # g1 = x + 1 factors the identity through Z3 with h = x - 1; q = g1 is no homomorphism.
    shifted = Factorization(SHIFT3, Z3, CarrierMap(3, 3, (2, 0, 1)), 3)
    assert shifted.composed() == IDENTITY3
    verdict = precedes(shifted, greatest_factorization(Z3, IDENTITY3))
    assert not verdict and verdict.witness is None


def test_empty_product_without_a_signature_is_the_trivial_algebra():
    trivial, projections = product([])
    assert (trivial.sig, trivial.size, projections) == (Signature([]), 1, [])


def test_the_empty_carrier_has_one_partition():
    assert list(all_partitions(0)) == [Partition(())]


def test_a_nested_ternary_table_builds_the_same_algebra_as_a_flat_one():
    flat = [(x - y + z) % 3 for x in range(3) for y in range(3) for z in range(3)]
    nested = [[flat[9 * x + 3 * y : 9 * x + 3 * y + 3] for y in range(3)] for x in range(3)]
    X = malcev_algebra_from(nested)
    assert X.size == 3 and X == malcev_algebra_from(flat)
