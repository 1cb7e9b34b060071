import pytest

from ualgebra import Signature, parse_signature, parse_term
from ualgebra.errors import DuplicateSymbolError, FormatError, ParseError, UnknownSymbolError
from ualgebra.terms import Apply, Constant


def test_parse_group_signature():
    sig = parse_signature("m/2 i/1 e/0")
    assert sig.symbols == (("m", 2), ("i", 1), ("e", 0))
    assert sig.arity("m") == 2
    assert sig.arity("e") == 0
    assert sig.spectrum() == {0, 1, 2}


def test_parse_empty_signature():
    sig = parse_signature("")
    assert len(sig) == 0
    assert sig.spectrum() == frozenset()


def test_duplicate_symbol_rejected():
    with pytest.raises(DuplicateSymbolError):
        parse_signature("m/2 m/1")


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_signature("m/2 bogus")
    assert exc.value.pos == 4


@pytest.mark.parametrize("text", ["m/", "/2", "m/2x", "m//2", "3/m"])
def test_malformed_entries(text):
    with pytest.raises(ParseError):
        parse_signature(text)


def test_roundtrip_format_parse():
    for text in ["m/2 i/1 e/0", "f/3", "", "a/0 b/0 join/2"]:
        sig = parse_signature(text)
        assert parse_signature(sig.format()) == sig


def test_unknown_symbol_lookup():
    sig = parse_signature("m/2")
    with pytest.raises(UnknownSymbolError):
        sig.arity("q")
    assert "m" in sig and "q" not in sig


def test_negative_arity_rejected_by_constructor():
    with pytest.raises(ValueError):
        Signature([("m", -1)])


@pytest.mark.parametrize("name", ["v1", "v2", "v10", "v1234567890"])
def test_symbols_named_like_variables_are_refused(name):
    """Term text reads ``v1, v2, ...`` as variables, so no symbol may be named one."""
    for arity in (0, 2):
        with pytest.raises(FormatError, match="variable name"):
            Signature([("m", 2), (name, arity)])
        with pytest.raises(FormatError, match="variable name"):
            parse_signature(f"m/2 {name}/{arity}")


@pytest.mark.parametrize("name", ["v0", "v01", "V1", "v", "v1x", "x_v1"])
def test_names_that_are_not_variables_stay_symbols(name):
    sig = Signature([(name, 0), ("m", 2)])
    assert parse_term(f"m({name},{name})", sig) == Apply("m", (Constant(name),) * 2)
