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

from ualgebra import FiniteAlgebra, Partition, Signature, cli, parse_signature, parse_term
from ualgebra.errors import ParseError, PartitionError, UAlgError

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
