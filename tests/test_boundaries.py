"""Generated input at the boundary: parsers raise only ``UAlgError``, ``cli.main`` exits 0-3.

Sizes and arities reach 10^12, so that a size check that comes after an
allocation, or a power computed before its base is bounded, shows up as a
raw ``MemoryError``, ``TypeError`` or a run that does not end.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ualgebra import (
    CarrierMap,
    FiniteAlgebra,
    Partition,
    Signature,
    Variable,
    adjoined_infinity_monoid,
    cli,
    congruence_generated,
    cyclic_group,
    evaluate,
    find_malcev_operations,
    parse_signature,
    parse_term,
    subalgebra_generated,
)
from ualgebra.errors import ArgumentError, FormatError, OutOfCarrierError, ParseError, PartitionError, UAlgError

BIG = 10**12
boundary_test = settings(derandomize=True, max_examples=60, deadline=None)

_names = st.sampled_from(["f", "g", "u", "c", "m", "e", "i", "v1", "_x"])
_counts = st.integers(0, 4) | st.integers(-1, BIG)
# "v1" stays in algebra documents, which refuse it, and in term text, where it is a variable.
_signatures = st.dictionaries(
    _names.filter(lambda name: name != "v1"), _counts.filter(lambda n: n >= 0), max_size=4
).map(lambda arities: Signature(arities.items()))
_json = st.recursive(
    st.none() | st.booleans() | _counts | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_names | st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
_documents = _json | st.fixed_dictionaries({
    "signature": st.lists(st.fixed_dictionaries({"symbol": _names | _json, "arity": _counts | _json}), max_size=3)
    | _json,
    "size": _counts | _json,
    "ops": st.dictionaries(_names, _json, max_size=3) | _json,
})


def _text(alphabet):
    return st.text(alphabet=alphabet) | st.text()


@boundary_test
@given(_signatures, _text("fgucmeiv0123456789(), _x"))
def test_parse_term_raises_only_ualg_errors(sig, text):
    try:
        parse_term(text, sig)
    except UAlgError:
        pass


@boundary_test
@given(_text("0123456789,| "))
def test_partition_parse_raises_only_ualg_errors(text):
    try:
        Partition.parse(text)
    except UAlgError:
        pass


@boundary_test
@given(_text("fgu/0123456789 ") | st.lists(st.tuples(_names, _counts)).map(
    lambda entries: " ".join(f"{name}/{n}" for name, n in entries)
))
def test_parse_signature_raises_only_ualg_errors(text):
    try:
        parse_signature(text)
    except UAlgError:
        pass


@boundary_test
@given(_text("v0123456789=, ").filter(lambda text: not text.startswith("@")))  # '@path' reads a file
def test_parse_assignment_raises_only_ualg_errors(text):
    try:
        cli._parse_assignment(text)
    except UAlgError:
        pass


LONG = "1" * 5000  # past Python's default limit of 4,300 digits for int()


@pytest.mark.parametrize(
    "parse, text, error",
    [
        (lambda text: parse_term(text, Signature([])), "v" + LONG, ParseError),
        (parse_signature, "f/" + LONG, ParseError),
        (Partition.parse, LONG, PartitionError),
        (cli._parse_assignment, "v1=" + LONG, UAlgError),
        (cli._parse_assignment, f"v{LONG}=1", UAlgError),
    ],
    ids=["parse_term", "parse_signature", "Partition.parse", "assignment value", "assignment variable"],
)
def test_decimals_past_the_integer_string_limit_raise_typed_errors(parse, text, error):
    with pytest.raises(error, match="has 5000 digits"):
        parse(text)


@boundary_test
@given(_documents)
def test_algebra_documents_raise_only_ualg_errors(doc):
    try:
        FiniteAlgebra.from_json_dict(doc)
    except UAlgError:
        pass


# Small fixtures and arguments, so that every command can succeed, fail or
# hit a cap; no token starts with '-' or '@' by chance, which could ask for
# help or name a file.
_tokens = st.sampled_from([
    "Z2", "Z3", "Z4", "V4", "SL2", "Sinf3", "0", "1", "2", "3", "-1", "10000000", "[0,1]", "[0,1,0,1]", "[[0,1]]",
    "[[0", "0,1|2,3", "0,2|1,3", "m(v1,v2)", "m(v1,e)=v1", "i(v1)", "e", "v1=1,v2=0", "--json", "--oracle",
    "--threads", "--max-semigroup", "--max-partitions", "--max-clone", "--nope",
]) | st.text(alphabet="Zv0123456789,|()[]=", max_size=8)


@boundary_test
@given(st.sampled_from(sorted(cli._COMMANDS)) | _tokens, st.lists(_tokens, max_size=4))
def test_main_exits_0_to_3_on_generated_argvs(command, rest):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = cli.main([command, *rest])
        except SystemExit as exc:  # argparse rejects the arguments
            assert exc.code == 2
            return
    assert code in (0, 1, 2, 3)


# Each entry point that takes a carrier element x of X (here Z_k): the call, its typed error, and
# its message, which names x by repr.  For an int, repr and str agree, so those messages are as before.
_ELEMENT_SITES = {
    "congruence_generated": (
        lambda X, x: congruence_generated(X, [(x, 0)]),
        OutOfCarrierError,
        "pair ({x!r},0) outside carrier of size {k}",
    ),
    "Partition.from_pairs": (
        lambda X, x: Partition.from_pairs(X.size, [(x, 0)]),
        PartitionError,
        "pair ({x!r},0) out of range for size {k}",
    ),
    "Partition.from_blocks": (
        lambda X, x: Partition.from_blocks(X.size, [[x], range(X.size)]),
        PartitionError,
        "element {x!r} out of range for size {k}",
    ),
    "FiniteAlgebra.apply": (
        lambda X, x: X.apply("m", (0, x)),
        OutOfCarrierError,
        "argument {x!r} outside carrier of size {k}",
    ),
    "evaluate": (
        lambda X, x: evaluate(Variable(1), X, {1: x}),
        OutOfCarrierError,
        "v1 assigned {x!r}, carrier size {k}",
    ),
    "subalgebra_generated": (
        lambda X, x: subalgebra_generated(X, [x]),
        OutOfCarrierError,
        "seed element {x!r} outside carrier of size {k}",
    ),
    "CarrierMap": (
        lambda X, x: CarrierMap(1, X.size, (x,)),
        OutOfCarrierError,
        "image {x!r} outside target of size {k}",
    ),
}


def _non_elements(k):
    """Bools, floats (integral ones among them) and ints outside range(k)."""
    return (
        st.booleans()
        | st.floats()
        | st.integers(0, k - 1).map(float)
        | st.integers(-BIG, BIG).filter(lambda x: not 0 <= x < k)
    )


@pytest.mark.parametrize("call, error, message", _ELEMENT_SITES.values(), ids=_ELEMENT_SITES)
@boundary_test
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(st.just(k), _non_elements(k))))
def test_a_carrier_element_that_is_no_int_in_range_raises_the_sites_typed_error(call, error, message, case):
    k, x = case
    with pytest.raises(error) as caught:
        call(cyclic_group(k), x)
    assert str(caught.value) == message.format(x=x, k=k)


# Entry points that take a positive int: the call, and its message for a nonpositive int and for anything else.
_POSITIVE_SITES = {
    "cyclic_group": (cyclic_group, "group order must be positive", "group order must be an int, got {n!r}"),
    "adjoined_infinity_monoid": (adjoined_infinity_monoid, "n must be positive", "n must be an int, got {n!r}"),
    "Variable": (Variable, *["variable index must be a positive integer, got {n!r}"] * 2),
}


@pytest.mark.parametrize("call, int_message, message", _POSITIVE_SITES.values(), ids=_POSITIVE_SITES)
@boundary_test
@given(st.booleans() | st.floats() | st.integers(1, 9).map(float) | st.integers(-BIG, 0))
def test_a_size_or_index_that_is_no_positive_int_raises_argument_error(call, int_message, message, n):
    with pytest.raises(ArgumentError) as caught:
        call(n)
    assert str(caught.value) == (int_message if type(n) is int else message).format(n=n)


_PARTITION_SIZE = "partition size must be a non-negative int, got {n!r}"

# Entry points that take a size or an arity n: the call, its typed error, and its message, which names n by repr.
_SIZE_SITES = {
    "CarrierMap source": (
        lambda n: CarrierMap(n, 2, (0, 1)),
        ArgumentError,
        "map sizes must be non-negative ints, got {n!r} and 2",
    ),
    "CarrierMap target": (
        lambda n: CarrierMap(2, n, (0, 1)),
        ArgumentError,
        "map sizes must be non-negative ints, got 2 and {n!r}",
    ),
    "Partition.from_pairs": (lambda n: Partition.from_pairs(n, []), PartitionError, _PARTITION_SIZE),
    "Partition.from_blocks": (lambda n: Partition.from_blocks(n, []), PartitionError, _PARTITION_SIZE),
    "Partition.singletons": (Partition.singletons, PartitionError, _PARTITION_SIZE),
    "Partition.single_block": (Partition.single_block, PartitionError, _PARTITION_SIZE),
    "Signature": (
        lambda n: Signature([("m", n)]),
        FormatError,
        "arity of 'm' must be a nonnegative integer, got {n!r}",
    ),
    "FiniteAlgebra": (
        lambda n: FiniteAlgebra(Signature([]), n, {}),
        FormatError,
        "carrier size must be a positive integer, got {n!r}",
    ),
}

# Bools, floats (integral ones among them) and negative ints.
_non_counts = st.booleans() | st.floats() | st.integers(0, 9).map(float) | st.integers(-BIG, -1)


@pytest.mark.parametrize("call, error, message", _SIZE_SITES.values(), ids=_SIZE_SITES)
@boundary_test
@given(_non_counts)
def test_a_size_that_is_no_non_negative_int_raises_the_sites_typed_error(call, error, message, n):
    with pytest.raises(error) as caught:
        call(n)
    assert str(caught.value) == message.format(n=n)


@boundary_test
@given(_non_counts | st.just(0))
def test_find_malcev_operations_refuses_a_size_that_is_no_positive_int(k):
    with pytest.raises(UAlgError) as caught:
        find_malcev_operations(k)
    if type(k) is int:  # the type and message that `ualg malcev 0` prints
        assert type(caught.value) is UAlgError and str(caught.value) == "carrier size must be at least 1"
    else:
        assert type(caught.value) is ArgumentError and str(caught.value) == f"carrier size must be an int, got {k!r}"
