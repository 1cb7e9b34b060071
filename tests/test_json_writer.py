"""The ``--json`` writer against ``json.dumps(indent=2, sort_keys=True)``.

``cli._write_json`` must give the same bytes on every document a command
emits, its error object included, and on generated documents of the same
kinds of value, tuples among them, which it writes as arrays as
``json.dumps`` does.  A ``cli.Members`` must print as the array of
``{"table", "word"}`` objects it stands for, at any indent.  The writer
raises ``TypeError`` on any other kind, another tuple subclass included.  ``cli._emit`` writes a document in
blocks of ``cli._BLOCK`` rows or ints; the blocks must join to the same
bytes, and its peak memory must not grow with the length of a listing.
"""

import json
import sys
import tracemalloc
from itertools import chain
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ualgebra import CarrierMap, cli, fixtures
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


def _dumps(value):
    """What ``cli._write_json`` writes for ``value`` as a whole document."""
    out = []
    cli._write_json(value, "\n", out.append)
    return "".join(out)


def expand(value):
    """``value`` with every ``cli.Members`` replaced by its list of dicts, its
    words unescaped, and tuples and bytes by lists."""
    if type(value) is cli.Members:
        return [{"table": expand(table), "word": json.loads(f'"{word}"')} for table, word in zip(*value)]
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
        assert _dumps(doc) == json.dumps(expand(doc), indent=2, sort_keys=True)


# Large ints, control characters and non-ASCII text, bools inside int lists,
# and tuples, which ``json.dumps`` writes as arrays: all-int ones of either
# side of ``cli._BLOCK``, and ones of any value nested in lists, dicts and tuples.
_scalars = st.none() | st.booleans() | st.integers(min_value=-(10**40), max_value=10**40) | st.text()
_int_lists = st.lists(st.integers() | st.booleans())
_documents = st.recursive(
    _scalars | _int_lists | _int_lists.map(tuple),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_documents)
@example(tuple(range(cli._BLOCK + 1)))
@example({"a": [(), (0, (1, [2, ("x", None)]))], "b": tuple(range(3 * cli._BLOCK))})
def test_generated_documents_match_json_dumps(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_strings_are_escaped_to_ascii():
    doc = {"word": "m@1(1)∘i", "ctl": "\x00\x1f\"\\", "astral": "\U0001d400"}
    text = _dumps(doc)
    assert text == json.dumps(doc, indent=2, sort_keys=True)
    assert "\\u2218" in text and text.isascii()


def test_bools_in_int_lists_print_as_json_literals():
    assert _dumps([0, True, -1, False]) == "[\n  0,\n  true,\n  -1,\n  false\n]"


# A tuple subclass other than ``cli.Members``, such as a ``CarrierMap``, is refused, alone or nested.
@pytest.mark.parametrize(
    "value", [1.5, CarrierMap(2, 3, (1, 2)), [0, 0.5], {"a": CarrierMap(1, 2, (1,))}, {1: 2}, [[{"x": 1e9}]]]
)
def test_other_kinds_raise_type_error(value):
    with pytest.raises(TypeError):
        _dumps(value)



def _escaped(texts):
    """``texts`` in JSON string form, as ``cli.Members`` holds its words."""
    return [encode_basestring_ascii(text)[1:-1] for text in texts]


# Words hold the text of translation words and every character the escape pass changes.
_words = st.text(st.sampled_from("\u2218\"\\\x00\x1f\x7f\u00e9\U0001d400e@(1,)") | st.characters(), max_size=8)


@st.composite
def _members(draw):
    """A ``cli.Members`` of 1-3 rows: tables all ``bytes`` or all tuples, of one length 1-6."""
    rows, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        tables = draw(st.lists(st.binary(min_size=n, max_size=n), min_size=rows, max_size=rows))
    else:
        entries = st.integers(0, 255) | st.integers(256, 10**12)
        tables = draw(st.lists(st.tuples(*[entries] * n), min_size=rows, max_size=rows))
    return cli.Members(tables, _escaped(draw(st.lists(_words, min_size=rows, max_size=rows))))


_member_documents = st.recursive(
    _members(),
    lambda inner: st.lists(inner, min_size=1, max_size=2) | st.dictionaries(st.text(), inner, min_size=1, max_size=2),
    max_leaves=3,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_member_documents)
@example(cli.Members([b"\x00"], ["e"]))
@example({"members": cli.Members([b"\x02\x00\x01", b"\xff\x7f\x00"], _escaped(["e", "m@1(1)\u2218i\x00\"\\"]))})
@example([cli.Members([(256, 0), (1000, 2**40)], _escaped(["\U0001d400", "\x1f"]))])
@example({"a": [{"b": cli.Members([tuple(range(300)), tuple(range(299, -1, -1))], ["e", "u"])}]})  # n >= 257
def test_documents_with_rows_match_json_dumps_of_their_expansion(doc):
    assert _dumps(doc) == json.dumps(expand(doc), indent=2, sort_keys=True)


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
    """(kind of table, the tables) for a listing of ``length`` rows: each of one length."""
    for kind in (tuple, bytes):
        yield kind, [kind((i + 37 * j) % 256 for j in range(6)) for i in range(length)]  # 0-255
        yield kind, [kind((i % 256,)) for i in range(length)]  # n = 1
    yield tuple, [tuple((i - 300) * (j + 1) for j in range(5)) for i in range(length)]  # below 0 and above 255


@pytest.mark.parametrize("length", [cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1, 2 * cli._BLOCK + 1])
def test_emitted_blocks_join_to_json_dumps(length, capsys):
    words = _escaped(f"w{i}\u2218" * (i % 3) + "\x1f\"" * (i % 2) for i in range(length))
    for kind, tables in _block_edge_tables(length):
        doc = {
            "members": cli.Members(tables, words),
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
    words = [f"m@{i % 3}({i % 7})\\u2218i" for i in range(rows)]
    tables = [tuple((i + j) % 1000 for j in range(6)) for i in range(rows)]
    payload = {"members": cli.Members(tables, words)}
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
