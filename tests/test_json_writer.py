"""The ``--json`` writer against ``json.dumps(indent=2, sort_keys=True)``.

``cli._dumps`` must give the same bytes on every document a command emits,
its error object included, and on generated documents of the same kinds
of value.  It raises ``TypeError`` on any other kind.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ualgebra import cli

from test_cli import run_cli

# Calls per command; the last one ends in an error object (exit 2 or 3).
CALLS = {
    "check-identity": (["Sinf3", "m(v1,i(v1))", "e"], ["Z3", "m(v1)", "e"]),
    "variety-check": (["Z4", "m(v1,e)=v1", "m(v1,v2)=v1"], ["Z4", "m(v1,e)"]),
    "eval": (["Z4", "m(v1,v2)", "v1=1,v2=2"], ["Z4", "v1", "v1=x"]),
    "hom-check": (["Z4", "Z2", "[0,1,0,1]"], ["Z4", "Z2", "[0,true]"]),
    "subalgebra": (["Sinf3", "[1]"], ["Sinf3", "[9]"]),
    "product": (["Z2", "Z3"], ["Z2", "SL2"]),
    "quotient": (["Z4", "0,2|1,3"], ["Z4", "0,1|2|3"], ["Z4", "0,0"]),
    "congruences": (["V4"], ["V4", "--max-partitions", "1"]),
    "gen-congruence": (["Z4", "[[0,2]]"], ["Z4", "[[0]]"]),
    "translations": (["Z3"], ["Z3", "--max-semigroup", "2"]),
    "malcev": (["2"], ["3"]),
    "clone": (["SL2"], ["Z3", "--max-clone", "5"]),
    "factorize": (["Z4", "[0,1,0,1]", "--oracle"], ["Z4", "[0,1]"]),
    "fixtures": ([],),
}


def test_every_command_is_covered():
    assert set(CALLS) == set(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(CALLS))
def test_command_documents_match_json_dumps(command, monkeypatch, capsys):
    documents = []
    write = cli._dumps

    def spy(value):
        documents.append(value)
        return write(value)

    monkeypatch.setattr(cli, "_dumps", spy)
    codes = [run_cli([command, *argv, "--json"])[0] for argv in CALLS[command]]
    if command == "fixtures":  # it cannot fail; emit its error object as ``main`` would
        cli._emit(True, command, 2, {"error": {"type": "UAlgError", "message": "\u2218 \x07"}}, [])
        codes.append(2)
    capsys.readouterr()
    assert codes[-1] in (2, 3)
    assert [("error" in doc) for doc in documents] == [code >= 2 for code in codes]
    for doc in documents:
        assert write(doc) == json.dumps(doc, indent=2, sort_keys=True)


# Large ints, control characters and non-ASCII text, and bools inside int lists.
_scalars = st.none() | st.booleans() | st.integers(min_value=-(10**40), max_value=10**40) | st.text()
_documents = st.recursive(
    _scalars | st.lists(st.integers() | st.booleans()),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_documents)
def test_generated_documents_match_json_dumps(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_strings_are_escaped_to_ascii():
    doc = {"word": "m@1(1)∘i", "ctl": "\x00\x1f\"\\", "astral": "\U0001d400"}
    text = cli._dumps(doc)
    assert text == json.dumps(doc, indent=2, sort_keys=True)
    assert "\\u2218" in text and text.isascii()


def test_bools_in_int_lists_print_as_json_literals():
    assert cli._dumps([0, True, -1, False]) == "[\n  0,\n  true,\n  -1,\n  false\n]"


@pytest.mark.parametrize("value", [1.5, (1, 2), [0, 0.5], {"a": (1,)}, {1: 2}, [[{"x": 1e9}]]])
def test_other_kinds_raise_type_error(value):
    with pytest.raises(TypeError):
        cli._dumps(value)
