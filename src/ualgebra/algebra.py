"""Finite algebras as dense operation tables, and the maps between them.

Carriers are always {0, ..., k-1}.  A table for an n-ary symbol is stored
flat in row-major (lexicographic argument) order; arity 0 is a single
element.  All values are immutable after construction and all operations
here are pure.

This module is the only one that knows the row-major layout and the byte
layout (:func:`_width`, :func:`_byte_map`).  Principal translations are
strided slices of the stored tables, and :func:`_images` reads them at
row-major indices.  :meth:`FiniteAlgebra.apply_tables` builds term and closure
tables: an operation with k^n <= 256 entries is applied with one base-256 sum
and one ``bytes.translate``, so its argument and result tables may be
``bytes``; larger ones are applied by row-major index.  :func:`holds`
evaluates both terms over ``bytes`` variable tables whenever every operation
fits that edge.  The one closure loop, :func:`_generated`, builds generated
subalgebras and the clone, which is the subalgebra of X^(X³) that the
projections generate; it holds each table as an integer of w-byte digits, with
w from :func:`_width`, and applies an operation with one sum of those integers
per argument tuple of tables.
"""

import itertools
import math
import sys
from array import array
from functools import partial
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .check import Check, Checked
from .congruences import is_congruence_via_translations
from .errors import (
    ArgumentError,
    ArityMismatchError,
    FormatError,
    NotACongruenceError,
    OutOfCarrierError,
    SignatureMismatchError,
    SizeCapError,
    SizeMismatchError,
    UnknownSymbolError,
    is_count,
    is_element,
    is_positive,
)
from .partitions import Partition
from .signature import Signature
from .terms import Term, term_table, vars_of

CARRIER_CAP = 4096  # guard for product carriers
TABLE_CAP = 1 << 20  # entries in one table held in memory, and elements in one carrier
ARITY_CAP = 20  # log2(TABLE_CAP): a higher arity overflows TABLE_CAP on any carrier of two or more elements


def _check_length(entries: int) -> None:
    if entries > TABLE_CAP:
        raise SizeCapError(f"a table of {entries} entries exceeds the fixed limit of {TABLE_CAP} entries")


def projection_tables(sizes: Sequence[int]) -> list[tuple[int, ...]]:
    """Coordinate tables of the tuples of ``range(sizes[0]) × range(sizes[1]) × ...``.

    The tuples are listed in row-major order, first coordinate most
    significant; table i holds the i-th coordinate of each tuple.  With
    every size equal to k these are the projections X^n -> X, the argument
    tables of a whole n-ary operation table.
    """
    total = math.prod(sizes)
    _check_length(total)
    tables = []
    outer = 1
    for i, k in enumerate(sizes):
        inner = math.prod(sizes[i + 1 :])
        block = itertools.chain.from_iterable([(x,) * inner for x in range(k)])
        tables.append(tuple(block) * outer)
        outer *= k
    return tables


def _encode(sizes: Sequence[int], columns: Sequence[Sequence[int]]) -> Sequence[int]:
    """Row-major position of each tuple listed column-wise (first column most significant)."""
    index = columns[0]
    for k, column in zip(sizes[1:], columns[1:]):
        index = [i * k + x for i, x in zip(index, column)]
    return index


def _byte_map(table: Sequence[int]) -> bytes:
    """A table of at most 256 entries as a ``bytes.translate`` map: padded with zeros to 256 bytes."""
    return bytes(table).ljust(256, b"\0")


def _width(entries: int) -> int:
    """The fewest bytes, 1, 2 or 4, that hold every index below ``entries`` <= TABLE_CAP."""
    return 1 if entries <= 256 else 2 if entries <= 1 << 16 else 4


def _closure_width(X: "FiniteAlgebra") -> int:
    """:func:`_width` of k^n, for the largest arity n >= 1 of an operation of X (k if none)."""
    return _width(X.size ** max((arity for _, arity in X.sig if arity >= 1), default=1))


def _first_difference(left: Iterable[int], right: Iterable[int]) -> int | None:
    return next((j for j, (a, b) in enumerate(zip(left, right)) if a != b), None)


def _flatten(table: Any, arity: int, size: int, symbol: str) -> tuple[int, ...]:
    """Check a table given from outside the library; return it flat, in row-major order.

    An n-ary table is nested to depth n with every row of length ``size``, or
    flat with size**n entries; a constant is a bare integer, returned as a
    one-entry table.  Entries must be ints (not bools) in ``range(size)``.
    Rows are checked one nesting level at a time, so of several faults the
    error names the first found scanning level by level.
    """
    if arity == 0:
        if type(table) is not int:
            raise FormatError(f"table for constant '{symbol}' must be an integer")
        flat: Sequence[Any] = (table,)
    elif not isinstance(table, (list, tuple)):
        raise FormatError(f"table for '{symbol}' must be a (nested) sequence")
    elif all(type(x) is int for x in table):  # already flat
        if len(table) != size**arity:
            raise FormatError(
                f"flat table for '{symbol}' has {len(table)} entries, expected {size**arity}"
            )
        flat = table
    else:
        flat = [table]
        for _ in range(arity):
            for row in flat:
                if not isinstance(row, (list, tuple)):
                    raise FormatError(f"table for '{symbol}' is not nested to depth {arity}")
                if len(row) != size:
                    raise FormatError(
                        f"table for '{symbol}' has a row of length {len(row)}, expected {size}"
                    )
            flat = list(itertools.chain.from_iterable(flat))
        if set(map(type, flat)) != {int}:
            node = next(x for x in flat if type(x) is not int)
            raise FormatError(f"table for '{symbol}' has a non-integer entry: {node!r}")
    if min(flat) < 0 or max(flat) >= size:
        entry = next(x for x in flat if not 0 <= x < size)
        raise OutOfCarrierError(f"table for '{symbol}' has entry {entry}, carrier size {size}")
    return tuple(flat)


class FiniteAlgebra:
    """A finite algebra: signature, carrier size, one lookup table per symbol."""

    __slots__ = ("sig", "size", "_tables")

    def __init__(self, sig: Signature, size: int, ops: Mapping[str, Any]):
        if not is_positive(size):
            raise FormatError(f"carrier size must be a positive integer, got {size!r}")
        if size > TABLE_CAP:
            raise SizeCapError(f"a carrier of {size} elements exceeds the fixed limit of {TABLE_CAP} elements")
        self.sig = sig
        self.size = size
        tables: dict[str, tuple[int, ...]] = {}
        for name, arity in sig:
            if name not in ops:
                raise FormatError(f"no table given for symbol '{name}'")
            if arity > ARITY_CAP:  # checked first, so that size**arity stays small
                raise SizeCapError(f"arity {arity} of '{name}' exceeds the fixed limit of {ARITY_CAP}")
            _check_length(size**arity)
            tables[name] = _flatten(ops[name], arity, size, name)
        extra = set(ops) - set(tables)
        if extra:
            raise UnknownSymbolError(f"tables for symbols not in signature: {sorted(extra)}")
        self._tables = tables

    def apply(self, symbol: str, args: Sequence[int]) -> int:
        arity = self.sig.arity(symbol)
        if len(args) != arity:
            raise ArityMismatchError(symbol, arity, len(args))
        index = 0
        for a in args:
            if not is_element(a, self.size):
                raise OutOfCarrierError(f"argument {a!r} outside carrier of size {self.size}")
            index = index * self.size + a
        return self._tables[symbol][index]

    def apply_tables(self, symbol: str, args: Sequence[Sequence[int]]) -> Sequence[int]:
        """Apply ``symbol`` pointwise to equal-length tables of carrier elements.

        Entry j of the result is the operation's value on the j-th entries
        of the argument tables.  Entries are not range-checked: its callers,
        ``term_table`` and :func:`_generated`, pass projection tables, tables
        built from them, or checked input.  A constant gives its one-entry table.

        For arity n with k^n <= 256 the base-256 number
        Σ int.from_bytes(args[i]) · k^(n-1-i) has as digit j the row-major
        index of the j-th argument tuple (below 256, so no digit carries),
        and its bytes translated through the table are the result.  There,
        ``bytes`` arguments give ``bytes``; otherwise the result is a tuple.
        """
        arity = self.sig.arity(symbol)
        if len(args) != arity:
            raise ArityMismatchError(symbol, arity, len(args))
        table = self._tables[symbol]
        if not args:
            return table
        length = len(args[0])
        _check_length(length)
        if any(len(arg) != length for arg in args):
            raise SizeMismatchError(f"argument tables for '{symbol}' differ in length")
        k = self.size
        if _width(k**arity) > 1:
            return tuple(map(table.__getitem__, _encode((k,) * arity, args)))
        index = int.from_bytes(args[0], "big")
        for arg in args[1:]:
            index = index * k + int.from_bytes(arg, "big")
        values = index.to_bytes(length, "big").translate(_byte_map(table))
        return values if all(type(arg) is bytes for arg in args) else tuple(values)

    def translation_tables(self, symbol: str) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
        """``(slot, fixed, table)`` of each principal translation of ``symbol``, by slot, then fixed tuple.

        Each table is a slice of the stored table, in steps of k^(arity - slot)."""
        k, arity, table = self.size, self.sig.arity(symbol), self._tables[symbol]
        for slot in range(1, arity + 1):
            step = k ** (arity - slot)
            starts = (high + low for high in range(0, k**arity, k * step) for low in range(step))
            for fixed, start in zip(itertools.product(range(k), repeat=arity - 1), starts):
                yield slot, fixed, table[start : start + k * step : step]

    def table(self, symbol: str):
        """Raw flat table (int for constants)."""
        return self._tables[symbol] if self.sig.arity(symbol) else self._tables[symbol][0]

    def to_json_dict(self) -> dict:
        ops: dict[str, Any] = {}
        for name, arity in self.sig:
            ops[name] = _nest(self._tables[name], arity, self.size)
        return {
            "signature": [{"symbol": name, "arity": arity} for name, arity in self.sig],
            "size": self.size,
            "ops": ops,
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping[str, Any]) -> "FiniteAlgebra":
        """Parse the algebra JSON document; unknown fields are rejected."""
        if not isinstance(doc, Mapping):
            raise FormatError("algebra document must be a JSON object")
        extra = set(doc) - {"signature", "size", "ops"}
        if extra:
            raise FormatError(f"unknown fields in algebra document: {sorted(extra)}")
        for field in ("signature", "size", "ops"):
            if field not in doc:
                raise FormatError(f"algebra document is missing '{field}'")
        if not isinstance(doc["signature"], list):
            raise FormatError("algebra 'signature' must be a JSON array")
        if not isinstance(doc["ops"], Mapping):
            raise FormatError("algebra 'ops' must be a JSON object")
        entries = []
        for item in doc["signature"]:
            if not isinstance(item, Mapping) or set(item) != {"symbol", "arity"}:
                raise FormatError(f"bad signature entry: {item!r}")
            entries.append((item["symbol"], item["arity"]))
        return cls(Signature(entries), doc["size"], doc["ops"])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteAlgebra)
            and self.sig == other.sig
            and self.size == other.size
            and self._tables == other._tables
        )

    def __hash__(self) -> int:
        return hash((self.sig, self.size, tuple(sorted(self._tables.items()))))

    def __reduce__(self):
        """Pickle as the constructor call, so unpickling checks the tables."""
        return FiniteAlgebra, (self.sig, self.size, {name: self.table(name) for name, _ in self.sig})

    def __repr__(self) -> str:
        return f"FiniteAlgebra(size={self.size}, sig={self.sig.format()!r})"


def _nest(table, arity: int, size: int):
    if arity == 0:
        return table[0]
    if arity == 1:
        return list(table)
    step = size ** (arity - 1)
    return [_nest(table[i * step : (i + 1) * step], arity - 1, size) for i in range(size)]


def _images(X: FiniteAlgebra, elements: Sequence[int]) -> dict[str, tuple[int, ...]]:
    """Each symbol's values on all tuples of ``elements``, in row-major order.

    Entry j of a symbol's table is its value on the j-th tuple of positions
    into ``elements``, read off the stored table at the tuple's row-major index.
    """
    out = {}
    for name, arity in X.sig:
        _check_length(len(elements) ** arity)
        index = [0]
        for _ in range(arity):
            index = [i * X.size + x for i in index for x in elements]
        out[name] = tuple(map(X._tables[name].__getitem__, index))
    return out


def _algebra(sig: Signature, size: int, tables: Mapping[str, Sequence[int]]) -> FiniteAlgebra:
    """The algebra with the given row-major tables, constants as one-entry tables.

    For tables the library built from an algebra it holds: they are taken as
    they are, not flattened or range-checked again.
    """
    X = FiniteAlgebra.__new__(FiniteAlgebra)
    X.sig, X.size, X._tables = sig, size, {name: tuple(tables[name]) for name, _ in sig}
    return X


class _CarrierMapFields(NamedTuple):
    source_size: int
    target_size: int
    values: tuple[int, ...]


class CarrierMap(Checked, _CarrierMapFields):
    """A total map between carriers, as the list of images."""

    __slots__ = ()

    def __new__(cls, source_size: int, target_size: int, values: tuple[int, ...]):
        if not (is_count(source_size) and is_count(target_size)):
            raise ArgumentError(f"map sizes must be non-negative ints, got {source_size!r} and {target_size!r}")
        if len(values) != source_size:
            raise SizeMismatchError(f"map has {len(values)} values, source size {source_size}")
        for v in values:
            if type(v) is not int or not 0 <= v < target_size:  # errors.is_element, inlined: one test per image
                raise OutOfCarrierError(f"image {v!r} outside target of size {target_size}")
        return super().__new__(cls, source_size, target_size, values)

    def __call__(self, x: int) -> int:
        return self.values[x]

    def then(self, after: "CarrierMap") -> "CarrierMap":
        """Composition ``after ∘ self`` (self applied first)."""
        if after.source_size != self.target_size:
            raise SizeMismatchError("composition sizes do not match")
        return CarrierMap(
            self.source_size, after.target_size, tuple(after.values[v] for v in self.values)
        )

    def is_surjective(self) -> bool:
        return len(set(self.values)) == self.target_size

    def is_injective(self) -> bool:
        return len(set(self.values)) == self.source_size

    @classmethod
    def identity(cls, size: int) -> "CarrierMap":
        return cls(size, size, tuple(range(size)))


def kernel(phi: CarrierMap) -> Partition:
    """Fiber partition of a total map, in canonical form."""
    return Partition(phi.values)


# ---------------------------------------------------------------------------
# homomorphisms


def is_homomorphism(phi: CarrierMap, X: FiniteAlgebra, Y: FiniteAlgebra) -> Check:
    """Check the defining equation for every symbol and argument tuple.

    On failure the witness is the violating ``(symbol, args)`` least by
    (argument tuple, symbol declaration order).
    """
    if X.sig != Y.sig:
        raise SignatureMismatchError("algebras have different signatures")
    if phi.source_size != X.size or phi.target_size != Y.size:
        raise SizeMismatchError("map does not fit between the carriers")
    target = _images(Y, phi.values)
    best = None
    for idx, (name, arity) in enumerate(X.sig):
        j = _first_difference(map(phi.values.__getitem__, X._tables[name]), target[name])
        if j is not None:
            args = tuple(j // X.size ** (arity - 1 - i) % X.size for i in range(arity))
            if best is None or (args, idx) < best[:2]:
                best = (args, idx, name)
    if best is None:
        return Check(True)
    return Check(False, (best[2], best[0]))


def holds(X: FiniteAlgebra, p: Term, q: Term) -> Check:
    """Check the identity ``p ≈ q`` over every assignment into ``X``.

    The witness on failure is the lexicographically least violating
    assignment, as a dict ``{variable index: element}``.  The term tables
    are built one chunk per value of a prefix of the variables (the first
    with two or more, else none), in order, so a failing identity stops at
    the first chunk that differs.  When every operation has k^n <= 256
    entries the variable tables are ``bytes``, so both term tables are
    ``bytes`` end to end.
    """
    k = X.size
    variables = sorted(vars_of(p) | vars_of(q))
    _check_length(k ** len(variables))
    as_table = bytes if _closure_width(X) == 1 else tuple
    fixed = 1 if len(variables) > 1 else 0
    rest = list(map(as_table, projection_tables((k,) * (len(variables) - fixed))))
    for prefix in itertools.product(range(k), repeat=fixed):
        env = dict(zip(variables, [*(as_table((x,)) * k ** len(rest) for x in prefix), *rest]))
        left, right = term_table(p, X, env), term_table(q, X, env)
        if left != right:
            j = _first_difference(left, right)
            return Check(False, {v: env[v][j] for v in variables})
    return Check(True)


def in_equational_class(X: FiniteAlgebra, identities: Iterable[tuple[Term, Term]]) -> Check:
    """Conjunction of :func:`holds`; witness is (p, q, assignment) for the first failure."""
    for p, q in identities:
        result = holds(X, p, q)
        if not result:
            return Check(False, (p, q, result.witness))
    return Check(True)


# ---------------------------------------------------------------------------
# subalgebras, products, quotients


class Subalgebra(NamedTuple):
    members: tuple[int, ...]  # ascending; new index i corresponds to members[i]
    algebra: "FiniteAlgebra | None"  # None only when the subalgebra is empty


def _generated(X: FiniteAlgebra, seeds: Sequence[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """Close ``seeds`` (tables of one length) and the constants under the operations
    of X applied pointwise, breadth-first: each round applies every operation to the
    argument tuples, in lexicographic order, that use a table of the round before.
    Tables are yielded when first found, so stopping early stops the closure.

    Where an operation's table is unchanged by swapping arguments i and i+1
    (:func:`_swap_invariant`), only the tuples c with c_i <= c_(i+1) are
    applied.  The tables found, and their order, are the same as over every
    tuple: sorting a skipped c within each run of such tied positions gives a
    tuple with the same table, which uses the same tables as c (so a table of
    the round before too) and comes earlier in lexicographic order.  It was
    applied earlier in the same round, so c would have found nothing new.

    Each known table t is also held as the integer whose w-byte digits are its
    entries (w from :func:`_closure_width`), times each power of k below the
    largest arity.  For f of arity n the sum Σ int(t_i)·k^(n-i) has as digit j
    the row-major index of (t_1[j], ..., t_n[j]), which is below k^n <= 256^w,
    so no digit carries.  With w = 1 its bytes translated through f's table,
    padded to 256 bytes, are f(t_1, ..., t_n); with w > 1 its digits are
    decoded through ``array`` and looked up in f's table.
    """
    length = len(seeds[0]) if seeds else 1
    constants = [X.apply_tables(name, ()) * length for name, arity in X.sig if arity == 0]
    known = list(dict.fromkeys([*seeds, *constants]))
    yield from known
    ops = [(name, arity) for name, arity in X.sig if arity >= 1]
    k, w, order = X.size, _closure_width(X), sys.byteorder
    # A table is held as bytes for w = 1 and as a tuple otherwise.  digits(t) is
    # a buffer of its w-byte digits in the byte order ``array`` uses, and
    # digits(b) reads such a buffer b back as the table's entries.
    if w == 1:
        known, digits = list(map(bytes, known)), bytes
    else:
        digits = partial(array, next(code for code in "HIL" if array(code).itemsize == w))
    weights = [k**p for p in range(max((arity for _, arity in ops), default=0))]
    weighted = [[int.from_bytes(digits(t), order) * weight for t in known] for weight in weights]
    maps = [(_byte_map(X._tables[name]) if w == 1 else X._tables[name].__getitem__, arity, name) for name, arity in ops]
    # ties[name][a]: the operation is unchanged by swapping the argument chosen
    # with a arguments left and the next.  Checked in the first round with two
    # tables known: with one there is one argument tuple, and nothing to skip.
    ties: dict[str, list[bool]] = {}
    untied = [False] * (len(weights) + 1)
    seen = set(known)
    start = 0
    while start < len(known):
        end = len(known)
        for table_map, arity, name in maps:
            if end > 1 and name not in ties:
                f = X._tables[name]
                ties[name] = [False, False, *(_swap_invariant(f, k, arity, arity - a) for a in range(2, arity + 1))]
            for index in _index_sums(weighted, ties.get(name, untied), arity, start, end):
                if w == 1:
                    table = index.to_bytes(length, order).translate(table_map)
                else:
                    table = tuple(map(table_map, digits(index.to_bytes(length * w, order))))
                if table not in seen:
                    seen.add(table)
                    known.append(table)
                    value = int.from_bytes(digits(table), order)
                    for column, weight in zip(weighted, weights):
                        column.append(value * weight)
                    yield tuple(table)
        start = end


def _swap_invariant(table: Sequence[int], k: int, arity: int, i: int) -> bool:
    """Whether the row-major ``table`` of an operation of ``arity`` on k elements
    is unchanged when arguments i and i+1 (from 0) are swapped.

    The table is a run of k×k blocks of cells (x, y), each cell ``inner``
    entries long.  A binary table, one block of one-entry cells, compares row
    x right of the diagonal with column x below it.  Otherwise each block
    compares cell (x, y) with cell (y, x) for x < y.  Stops at the first slice
    that differs.
    """
    if arity == 2:
        return all(table[x * k + x + 1 : x * k + k] == table[x * k + x + k :: k] for x in range(k))
    inner = k ** (arity - i - 2)
    step = k * inner  # from x to x + 1 in argument i
    pairs = [(x * step + y * inner, y * step + x * inner) for x in range(k) for y in range(x + 1, k)]
    return all(
        table[o + p : o + p + inner] == table[o + q : o + q + inner]
        for o in range(0, len(table), k * step)
        for p, q in pairs
    )


def _index_sums(
    weighted: Sequence[Sequence[int]],
    ties: Sequence[bool],
    arity: int,
    start: int,
    end: int,
    base: int = 0,
    fresh: bool = False,
    low: int = 0,
) -> Iterator[int]:
    """``base + Σ weighted[arity-1-i][c_i]`` for each argument tuple c over
    ``range(end)`` with some c_i >= start (every c, once ``fresh``), in
    lexicographic order.  c_0 >= ``low``, and c_i <= c_(i+1) wherever
    ``ties[arity - i]``: those tuples give the tables of the ones skipped
    (see :func:`_generated`)."""
    column = weighted[arity - 1]
    if arity == 1:
        yield from map(base.__add__, column[max(low, 0 if fresh else start) : end])
        return
    tied = ties[arity]
    for c in range(low, end):
        yield from _index_sums(
            weighted, ties, arity - 1, start, end, base + column[c], fresh or c >= start, c if tied else 0
        )


def subalgebra_generated(X: FiniteAlgebra, seed: Iterable[int]) -> Subalgebra:
    """Least subset containing ``seed`` and all constants, closed under every operation.

    The induced algebra is renumbered onto {0, ..., m-1} by ascending member
    order; ``members`` is the renumbering (new index -> original element).
    Empty only when the seed is empty and the signature has no constants.
    """
    seeds = []
    for x in seed:
        if not is_element(x, X.size):
            raise OutOfCarrierError(f"seed element {x!r} outside carrier of size {X.size}")
        seeds.append((x,))
    members = tuple(sorted(table[0] for table in _generated(X, seeds)))
    if not members:
        return Subalgebra((), None)
    position = {x: i for i, x in enumerate(members)}
    tables = {name: tuple(map(position.__getitem__, t)) for name, t in _images(X, members).items()}
    return Subalgebra(members, _algebra(X.sig, len(members), tables))


def product(
    factors: Sequence[FiniteAlgebra], sig: Signature | None = None
) -> tuple[FiniteAlgebra, list[CarrierMap]]:
    """Componentwise product; carrier is the lexicographic encoding of tuples.

    The first factor is the most significant digit.  Returns the product and
    the projection maps (each a homomorphism).  The empty product is the
    one-element algebra over ``sig`` (all operations return 0).
    """
    if factors:
        sig = factors[0].sig
        for f in factors[1:]:
            if f.sig != sig:
                raise SignatureMismatchError("product factors have different signatures")
    elif sig is None:
        sig = Signature([])
    sizes = [f.size for f in factors]
    total = math.prod(sizes)
    if total > CARRIER_CAP:
        raise SizeCapError(f"product carrier {total} exceeds the fixed limit of {CARRIER_CAP} elements")
    if not factors:
        return _algebra(sig, 1, {name: (0,) for name, _ in sig}), []
    coordinates = projection_tables(sizes)
    images = [_images(f, c) for f, c in zip(factors, coordinates)]
    tables = {name: _encode(sizes, [im[name] for im in images]) for name, _ in sig}
    projections = [CarrierMap(total, k, c) for k, c in zip(sizes, coordinates)]
    return _algebra(sig, total, tables), projections


def quotient(X: FiniteAlgebra, part: Partition) -> tuple[FiniteAlgebra, CarrierMap]:
    """Quotient algebra X/π and the quotient map, for a congruence π.

    Blocks become carrier elements in canonical order.  Raises
    ``NotACongruenceError`` (with a violating translation and pair) otherwise.
    """
    verdict = is_congruence_via_translations(X, part)  # raises SizeMismatchError on a wrong size
    if not verdict:
        raise NotACongruenceError(verdict.witness)
    return _quotient(X, part)


def _quotient(X: FiniteAlgebra, part: Partition) -> tuple[FiniteAlgebra, CarrierMap]:
    """:func:`quotient` without the congruence test, for a π already known to be a congruence of X."""
    reps = [block[0] for block in part.blocks()]
    block_of = part.block_of
    tables = {name: tuple(map(block_of.__getitem__, t)) for name, t in _images(X, reps).items()}
    return _algebra(X.sig, len(reps), tables), CarrierMap(X.size, len(reps), block_of)


def diagonal_hom(
    X: FiniteAlgebra, targets: Sequence[FiniteAlgebra], maps: Sequence[CarrierMap]
) -> tuple[CarrierMap, FiniteAlgebra, bool]:
    """Diagonal ``x -> (φ1(x), ..., φr(x))`` into the product of the targets.

    Every φi must be a homomorphism X -> targets[i].  Returns the diagonal
    map, the product algebra, and whether the diagonal is injective (i.e.
    the family separates points).
    """
    if not maps or len(maps) != len(targets):
        raise ArgumentError("need one homomorphism per target, at least one")
    for phi, Y in zip(maps, targets):
        if not is_homomorphism(phi, X, Y):
            raise ArgumentError("diagonal_hom requires homomorphisms")
    prod, _ = product(list(targets))
    values = _encode([Y.size for Y in targets], [phi.values for phi in maps])
    diag = CarrierMap(X.size, prod.size, tuple(values))
    return diag, prod, diag.is_injective()
