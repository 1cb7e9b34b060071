"""Operation signatures: graded sets of symbols with arities.

Text form is whitespace-separated ``name/arity`` entries, e.g. the group
signature ``"m/2 i/1 e/0"``.
"""

import re
from typing import Iterable, Iterator

from .errors import DuplicateSymbolError, FormatError, ParseError, UnknownSymbolError, decimal

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ENTRY_RE = re.compile(rf"({_NAME_RE.pattern})/([0-9]+)")
# Names of this form are variables in term text, so no symbol may take one.
_VAR_RE = re.compile(r"v([1-9][0-9]*)")


class Signature:
    """An ordered list of (symbol, arity) pairs with unique symbol names."""

    __slots__ = ("_symbols", "_arity", "_index")

    def __init__(self, entries: Iterable[tuple[str, int]] = ()):
        symbols = []
        arity: dict[str, int] = {}
        index: dict[str, int] = {}
        for name, n in entries:
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise FormatError(f"bad symbol name: {name!r}")
            if _VAR_RE.fullmatch(name):
                raise FormatError(f"symbol name {name!r} is a variable name")
            if type(n) is not int or n < 0:
                raise FormatError(f"arity of '{name}' must be a nonnegative integer, got {n!r}")
            if name in arity:
                raise DuplicateSymbolError(f"duplicate symbol '{name}'")
            index[name] = len(symbols)
            symbols.append((name, n))
            arity[name] = n
        self._symbols = tuple(symbols)
        self._arity = arity
        self._index = index

    @property
    def symbols(self) -> tuple[tuple[str, int], ...]:
        return self._symbols

    def arity(self, name: str) -> int:
        try:
            return self._arity[name]
        except KeyError:
            raise UnknownSymbolError(f"unknown symbol '{name}'") from None

    def index(self, name: str) -> int:
        """Declaration position of ``name``; the canonical symbol order."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownSymbolError(f"unknown symbol '{name}'") from None

    def spectrum(self) -> frozenset[int]:
        """The set of arities that occur."""
        return frozenset(n for _, n in self._symbols)

    def format(self) -> str:
        return " ".join(f"{name}/{n}" for name, n in self._symbols)

    def __contains__(self, name: str) -> bool:
        return name in self._arity

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self._symbols)

    def __len__(self) -> int:
        return len(self._symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:
        return f"Signature({self.format()!r})"


def parse_signature(text: str) -> Signature:
    """Parse ``name/arity`` entries separated by whitespace.

    Printing the result with :meth:`Signature.format` and re-parsing yields
    an equal signature.
    """
    entries = []
    pos = 0
    length = len(text)
    while pos < length:
        if text[pos].isspace():
            pos += 1
            continue
        m = _ENTRY_RE.match(text, pos)
        if m is None or (m.end() < length and not text[m.end()].isspace()):
            raise ParseError("expected 'name/arity' entry", pos)
        entries.append((m.group(1), decimal(m.group(2), ParseError, "arity")))
        pos = m.end()
    return Signature(entries)
