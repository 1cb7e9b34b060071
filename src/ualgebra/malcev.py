"""Mal'cev operations: detection, enumeration, group-derived tables, and the
clone of ternary term operations.

A ternary operation μ is Mal'cev when μ(y,y,x) = μ(x,y,y) = x for all x, y.
Groups always carry one: μ(x,y,z) = x·y⁻¹·z.  More generally an algebra has
a Mal'cev *term* when its clone of ternary term operations, the subalgebra
of X^(X³) that the three projections generate, contains a Mal'cev table.
Only ``algebra`` knows the table layout: the cells the identities fix are
read off its projection tables.
"""

from itertools import compress, islice, product
from operator import eq
from typing import Iterator, NamedTuple

from .check import Check
from .errors import ArityMismatchError, NotAGroupError, SizeCapError, UAlgError
from .fixtures import group_axioms
from .algebra import TABLE_CAP, FiniteAlgebra, _check_length, _generated, in_equational_class, projection_tables
from .terms import parse_term, term_table

CLONE_CAP = 100_000  # ternary functions


def _malcev_cells(k: int) -> list[tuple[tuple[int, int], int, int]]:
    """The cells ``((x, y), position, x)`` of a ternary table on k elements where
    μ(y,y,x) = x or μ(x,y,y) = x fixes the entry: the positions where the
    first two, or the last two, projection tables agree.
    """
    xs, ys, zs = projection_tables((k,) * 3)
    positions = range(len(xs))
    cells = [((zs[i], ys[i]), i, zs[i]) for i in compress(positions, map(eq, xs, ys))]
    return cells + [((xs[i], ys[i]), i, xs[i]) for i in compress(positions, map(eq, ys, zs))]


def table_is_malcev(table, k: int) -> bool:
    """Check the two defining identities on a flat k^3 table in (x,y,z) order."""
    return all(table[i] == value for _, i, value in _malcev_cells(k))


def is_malcev_op(X: FiniteAlgebra, symbol: str) -> Check:
    """Check μ(y,y,x) = x and μ(x,y,y) = x; witness is the least failing (x, y)."""
    arity = X.sig.arity(symbol)
    if arity != 3:
        raise ArityMismatchError(symbol, 3, arity)
    table = X.table(symbol)
    failing = [pair for pair, i, value in _malcev_cells(X.size) if table[i] != value]
    return Check(not failing, min(failing, default=None))


class MalcevEnumeration(NamedTuple):
    tables: list[tuple[int, ...]]
    complete: bool


def find_malcev_operations(k: int, cap: int | None = None) -> MalcevEnumeration:
    """All ternary tables on {0, ..., k-1} satisfying the Mal'cev identities.

    The identities force the entries at (y,y,x) and (x,y,y); the remaining
    k(k-1)^2 cells are free.  Tables come out in lexicographic order and the
    listing is truncated (flagged incomplete) once ``cap`` tables are out.
    """
    if k < 1:
        raise UAlgError("carrier size must be at least 1")
    k3 = k**3
    _check_length(k3)
    # k ** (free cells), exact up to ``stop`` and past it whenever k >= 2
    stop = TABLE_CAP if cap is None else cap
    count = k ** min(k * (k - 1) ** 2, stop.bit_length())
    listed = count if cap is None else min(count, cap)
    if listed * k3 > TABLE_CAP:
        raise SizeCapError(
            f"listing {listed} Mal'cev tables of {k3} entries each exceeds the limit of"
            f" {TABLE_CAP} entries; lower --max-clone"
        )
    base: list[int | None] = [None] * k3
    for _, i, value in _malcev_cells(k):
        base[i] = value
    free_cells = [i for i, v in enumerate(base) if v is None]
    tables: list[tuple[int, ...]] = []
    for values in islice(product(range(k), repeat=len(free_cells)), listed):
        table = base[:]
        for i, v in zip(free_cells, values):
            table[i] = v
        tables.append(tuple(table))
    return MalcevEnumeration(tables, count <= stop)


def group_malcev(G: FiniteAlgebra) -> tuple[int, ...]:
    """The table (x,y,z) -> m(x, m(i(y), z)) for an algebra satisfying the
    group axioms; always a Mal'cev operation."""
    verdict = in_equational_class(G, group_axioms())
    if not verdict:
        p, q, assignment = verdict.witness
        raise NotAGroupError(f"group axiom fails at {assignment}")
    x, y, z = projection_tables((G.size,) * 3)
    return term_table(parse_term("m(v1,m(i(v2),v3))", G.sig), G, {1: x, 2: y, 3: z})


# ---------------------------------------------------------------------------
# clone of ternary term operations


def _clone_closure(X: FiniteAlgebra, cap: int) -> Iterator[tuple[int, ...]]:
    """The ternary term operations of X as flat k^3 tables: the subalgebra of
    X^(X³) that the three projections generate.  Every table counts toward
    ``cap``, projections and constants included."""
    for count, table in enumerate(_generated(X, projection_tables((X.size,) * 3)), 1):
        if count > cap:
            raise SizeCapError(f"{count} ternary term operations found, cap {cap} (--max-clone)")
        yield table


def clone_ternary_terms(X: FiniteAlgebra, cap: int = CLONE_CAP) -> list[tuple[int, ...]]:
    """All functions X^3 -> X induced by ternary terms, in discovery order."""
    return list(_clone_closure(X, cap))


def has_malcev_term(X: FiniteAlgebra, cap: int = CLONE_CAP) -> Check:
    """Whether some ternary term operation of X is Mal'cev; the witness is the
    first such table in discovery order, where the closure stops."""
    cells = _malcev_cells(X.size)  # table_is_malcev, with the cells found once
    witness = next((t for t in _clone_closure(X, cap) if all(t[i] == x for _, i, x in cells)), None)
    return Check(witness is not None, witness)
