"""Finite algebras as dense operation tables, and the maps between them.

Carriers are always {0, ..., k-1}.  A table for an n-ary symbol is stored
flat in row-major (lexicographic argument) order; arity 0 is a single
element.  All values are immutable after construction and all operations
here are pure.

This module is the only one that knows the row-major layout.  Operation
and term tables are built by :meth:`FiniteAlgebra.apply_tables`, applied to
:func:`projection_tables` or to tables pulled back from them.  The one closure
loop, :func:`_generated`, builds generated subalgebras and the clone, which is
the subalgebra of X^(X³) that the projections generate.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .check import Check
from .congruences import is_congruence_via_translations
from .errors import (
    ArityMismatchError,
    FormatError,
    NotACongruenceError,
    OutOfCarrierError,
    SignatureMismatchError,
    SizeCapError,
    SizeMismatchError,
    UnknownSymbolError,
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
        if type(size) is not int or size < 1:
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
            if not 0 <= a < self.size:
                raise OutOfCarrierError(f"argument {a} outside carrier of size {self.size}")
            index = index * self.size + a
        return self._tables[symbol][index]

    def apply_tables(self, symbol: str, args: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """Apply ``symbol`` pointwise to equal-length tables of carrier elements.

        Entry j of the result is the operation's value on the j-th entries
        of the argument tables.  Entries are not range-checked: callers pass
        projection tables, tables built from them, or checked input.  A
        constant gives its one-entry table.
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
        return tuple(map(table.__getitem__, _encode((self.size,) * arity, args)))

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
    into ``elements``: the projection tables pulled back along ``elements``.
    """
    out = {}
    for name, arity in X.sig:
        positions = projection_tables((len(elements),) * arity)
        out[name] = X.apply_tables(name, [tuple(map(elements.__getitem__, p)) for p in positions])
    return out


def _algebra(sig: Signature, size: int, tables: Mapping[str, Sequence[int]]) -> FiniteAlgebra:
    """The algebra with the given row-major tables, constants as one-entry tables.

    For tables the library built from an algebra it holds: they are taken as
    they are, not flattened or range-checked again.
    """
    X = FiniteAlgebra.__new__(FiniteAlgebra)
    X.sig, X.size, X._tables = sig, size, {name: tuple(tables[name]) for name, _ in sig}
    return X


@dataclass(frozen=True)
class CarrierMap:
    """A total map between carriers, as the list of images."""

    source_size: int
    target_size: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.source_size:
            raise SizeMismatchError(
                f"map has {len(self.values)} values, source size {self.source_size}"
            )
        for v in self.values:
            if not 0 <= v < self.target_size:
                raise OutOfCarrierError(f"image {v} outside target of size {self.target_size}")

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
            args = tuple(p[j] for p in projection_tables((X.size,) * arity))
            if best is None or (args, idx) < best[:2]:
                best = (args, idx, name)
    if best is None:
        return Check(True)
    return Check(False, (best[2], best[0]))


def holds(X: FiniteAlgebra, p: Term, q: Term) -> Check:
    """Check the identity ``p ≈ q`` over every assignment into ``X``.

    The witness on failure is the lexicographically least violating
    assignment, as a dict ``{variable index: element}``.  With two or more
    variables the term tables are built one value of the first variable at
    a time, in order, so a failing identity stops at the first chunk that
    differs.
    """
    variables = sorted(vars_of(p) | vars_of(q))
    _check_length(X.size ** len(variables))
    if len(variables) < 2:
        chunks = [projection_tables((X.size,) * len(variables))]
    else:
        rest = projection_tables((X.size,) * (len(variables) - 1))
        chunks = ([(x,) * len(rest[0]), *rest] for x in range(X.size))
    for tables in chunks:
        env = dict(zip(variables, tables))
        j = _first_difference(term_table(p, X, env), term_table(q, X, env))
        if j is not None:
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
    Tables are yielded when first found, so stopping early stops the closure."""
    length = len(seeds[0]) if seeds else 1
    constants = [X.apply_tables(name, ()) * length for name, arity in X.sig if arity == 0]
    known = list(dict.fromkeys([*seeds, *constants]))
    yield from known
    seen = set(known)
    ops = [(name, arity) for name, arity in X.sig if arity >= 1]
    start = 0
    while start < len(known):
        end = len(known)
        for name, arity in ops:
            for combo in itertools.product(range(end), repeat=arity):
                if max(combo) < start:
                    continue  # all arguments old: already generated
                table = X.apply_tables(name, [known[i] for i in combo])
                if table not in seen:
                    seen.add(table)
                    known.append(table)
                    yield table
        start = end


def subalgebra_generated(X: FiniteAlgebra, seed: Iterable[int]) -> Subalgebra:
    """Least subset containing ``seed`` and all constants, closed under every operation.

    The induced algebra is renumbered onto {0, ..., m-1} by ascending member
    order; ``members`` is the renumbering (new index -> original element).
    Empty only when the seed is empty and the signature has no constants.
    """
    seeds = []
    for x in seed:
        if not 0 <= x < X.size:
            raise OutOfCarrierError(f"seed element {x} outside carrier of size {X.size}")
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
        raise ValueError("need one homomorphism per target, at least one")
    for phi, Y in zip(maps, targets):
        if not is_homomorphism(phi, X, Y):
            raise ValueError("diagonal_hom requires homomorphisms")
    prod, _ = product(list(targets))
    values = _encode([Y.size for Y in targets], [phi.values for phi in maps])
    diag = CarrierMap(X.size, prod.size, tuple(values))
    return diag, prod, diag.is_injective()
