"""The ``--json`` writer against ``json.dumps(indent=2, sort_keys=True)``.

``cli._dumps`` must give the same bytes on every document a command emits,
its error object included, and on generated documents of the same kinds
of value.  A ``cli.Rows`` must print as the array of objects it stands for.
It raises ``TypeError`` on any other kind.  ``cli._emit`` writes a document
in blocks of ``cli._BLOCK`` rows or ints; the blocks must join to the same
bytes, and its peak memory must not grow with the length of a listing.
"""

import json
import sys
import tracemalloc
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ualgebra import cli, fixtures
from ualgebra.translations import principal_translations

from _oracles import frozen_word_semigroup
from test_cli import run_cli
from test_translations import _boundary_algebras, _differential_algebras

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


def expand(value):
    """``value`` with every ``cli.Rows`` replaced by its list of dicts, tuples and bytes by lists."""
    if type(value) is cli.Rows:
        keys = list(value.columns)
        return [dict(zip(keys, map(expand, row))) for row in zip(*value.columns.values())]
    if isinstance(value, (list, tuple, bytes)):
        return [expand(x) for x in value]
    if isinstance(value, dict):
        return {key: expand(x) for key, x in value.items()}
    return value


def test_every_command_is_covered():
    assert set(CALLS) == set(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(CALLS))
def test_command_documents_match_json_dumps(command, monkeypatch, capsys):
    documents = []
    write_json = cli._write_json

    def spy(value, newline, write):
        if newline == "\n":  # a whole document, not a value nested in one
            documents.append(value)
        write_json(value, newline, write)

    monkeypatch.setattr(cli, "_write_json", spy)
    codes = [run_cli([command, *argv, "--json"])[0] for argv in CALLS[command]]
    if command == "fixtures":  # it cannot fail; emit its error object as ``main`` would
        cli._emit(True, command, 2, {"error": {"type": "UAlgError", "message": "\u2218 \x07"}}, [])
        codes.append(2)
    capsys.readouterr()
    monkeypatch.undo()
    assert codes[-1] in (2, 3)
    assert [("error" in doc) for doc in documents] == [code >= 2 for code in codes]
    for doc in documents:
        assert cli._dumps(doc) == json.dumps(expand(doc), indent=2, sort_keys=True)


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


def _rows(n):
    """``Rows`` of ``n`` rows: str, int-tuple and bytes columns, empty tuples and bytes included."""
    column = (
        st.lists(st.text(), min_size=n, max_size=n)
        | st.lists(
            st.lists(st.integers(min_value=-(10**30), max_value=10**30), max_size=4).map(tuple), min_size=n, max_size=n
        )
        | st.lists(st.binary(max_size=4), min_size=n, max_size=n)
    )
    return st.dictionaries(st.text(), column, max_size=3).map(cli.Rows)


_row_documents = st.recursive(
    _scalars | st.integers(min_value=0, max_value=4).flatmap(_rows),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_row_documents)
@example({"members": cli.Rows({"word": ["e", "m@1(1)\u2218i", "\x00\x1f\"\\"], "\U0001d400": [(), (0,), (1, -2)]})})
@example([cli.Rows({}), cli.Rows({"a": []}), cli.Rows({"\x07": ["\u00e9"]})])
@example({"members": cli.Rows({"table": [b"", b"\x00", b"\xff\x01\x7f"], "word": ["e", "a", "b"]})})
@example([cli.Rows({"table": [b"", b"", b""], "word": ["e", "a", "b"]}), cli.Rows({"t": [(), ()]})])  # n = 0
@example([cli.Rows({"table": [b"\x00", b"\xff"], "u": [(-1,), (256,)], "word": ["a", "b"]})])  # n = 1
@example(cli.Rows({"table": [b"\x02\x00\x01"], "u": [(7, -7)], "word": ["\u2218"]}))  # one row
def test_documents_with_rows_match_json_dumps_of_their_expansion(doc):
    assert cli._dumps(doc) == json.dumps(expand(doc), indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "columns",
    [
        {"table": [(0, 1), (1, True)]},
        {"table": [(False,)]},
        {"table": [(0, 1), (0.5, 1)]},
        {"table": [(0, 1), [1, 0]]},
        {"mixed": ["e", (0,)]},
        {"word": ["e", None]},
        {1: ["e"]},
        {"word": ["e"], ("t",): [(0,)]},
        {"table": [b"\x00\x01", (1, 0)]},
        {"table": [(0, 1), b"\x01\x00"]},
        {"table": [b"\x00", bytearray(b"\x01")]},
    ],
)
def test_rows_of_other_kinds_raise_type_error(columns):
    with pytest.raises(TypeError):
        cli._dumps({"members": cli.Rows(columns)})


def test_rows_columns_of_different_lengths_are_refused():
    with pytest.raises(ValueError):
        cli._dumps(cli.Rows({"table": [(0,)], "word": []}))


def _translations_algebras(tmp_path):
    """(argument, algebra): the fixtures by name, then seeded random and planted algebras
    and the unary chain on both sides of 256 elements (bytes tables, then tuples) in files."""
    for name in fixtures.fixture_names():
        yield name, fixtures.get_fixture(name)
    chains = (next(_boundary_algebras(k)) for k in (255, 256, 257))
    for i, X in enumerate(chain(_differential_algebras(), chains)):
        path = tmp_path / f"a{i}.json"
        path.write_text(json.dumps(X.to_json_dict()))
        yield str(path), X


def test_translations_output_matches_the_member_dicts(tmp_path):
    for argument, X in _translations_algebras(tmp_path):
        members = frozen_word_semigroup(X, cap=10**6)
        s1_size = len(principal_translations(X))
        doc = {
            "schema": 1,
            "command": "translations",
            "exit_code": 0,
            "algebra": argument,
            "s1_size": s1_size,
            "s_size": len(members),
            "members": [{"word": t.format_word(), "table": list(t.table)} for t in members],
        }
        assert run_cli(["translations", argument, "--json"]) == (0, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        lines = [f"|S1| = {s1_size}", f"|S| = {len(members)}"]
        lines += [f"{t.format_word()} ⇒ [{','.join(str(v) for v in t.table)}]" for t in members]
        assert run_cli(["translations", argument]) == (0, "".join(line + "\n" for line in lines))


def _emitted(doc, capsys):
    """What ``cli._emit`` writes for ``doc`` in ``--json`` mode."""
    capsys.readouterr()
    cli._emit(True, "translations", 0, doc, [])
    return capsys.readouterr().out


def _block_edge_tables(length):
    """(kind of table column, its entries) for a listing of ``length`` rows."""
    for kind in (tuple, bytes):
        yield kind, [kind(range(i % 4)) for i in range(length)]  # lengths vary; every fourth is empty
        yield kind, [kind((i + 37 * j) % 256 for j in range(6)) for i in range(length)]  # one length; 0-255
        yield kind, [kind(range(3 if i < cli._BLOCK else i % 4)) for i in range(length)]  # one length, then several
    yield tuple, [tuple((i - 300) * (j + 1) for j in range(5)) for i in range(length)]  # below 0 and above 255


@pytest.mark.parametrize("length", [cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1, 2 * cli._BLOCK + 1])
def test_emitted_blocks_join_to_json_dumps(length, capsys):
    words = [f"w{i}\u2218" * (i % 3) for i in range(length)]
    for kind, tables in _block_edge_tables(length):
        doc = {
            "members": cli.Rows({"word": words, "table": tables, "z": tables}),
            "tables": [list(range(-1, length - 1)), [True] * (length % 3)],
            "map": list(range(length)),
        }
        expected = expand({"schema": 1, "command": "translations", "exit_code": 0, **doc})
        assert _emitted(doc, capsys) == json.dumps(expected, indent=2, sort_keys=True) + "\n", kind


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)

    def flush(self):
        pass


def _emit_peak(rows, monkeypatch):
    """tracemalloc's peak over ``_emit`` of a ``translations`` listing of ``rows`` members."""
    words = [f"m@{i % 3}({i % 7})\u2218i" for i in range(rows)]
    tables = [tuple((i + j) % 1000 for j in range(6)) for i in range(rows)]
    payload = {"members": cli.Rows({"table": tables, "word": words})}
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        cli._emit(True, "translations", 0, payload, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    assert sink.chars > 100 * rows
    return peak


def test_emit_peak_memory_does_not_grow_with_the_listing(monkeypatch):
    small, large = _emit_peak(8192, monkeypatch), _emit_peak(32768, monkeypatch)
    assert large <= 1.25 * small, (small, large)
