"""Mal'cev operations: detection, enumeration, group-derived tables, and the
clone of ternary term operations.

A ternary operation μ is Mal'cev when μ(y,y,x) = μ(x,y,y) = x for all x, y.
Groups always carry one: μ(x,y,z) = x·y⁻¹·z.  More generally an algebra has
a Mal'cev *term* when the closure of the three ternary projections under
its operations contains a Mal'cev table.
"""

import itertools
from typing import Callable, NamedTuple

from .check import Check
from .errors import ArityMismatchError, NotAGroupError, SizeCapError, UAlgError
from .fixtures import group_axioms
from .algebra import TABLE_CAP, FiniteAlgebra, _check_length, in_equational_class, projection_tables
from .terms import parse_term, term_table

CLONE_CAP = 100_000  # ternary functions


def table_is_malcev(table, k: int) -> bool:
    """Check the two defining identities on a flat k^3 table in (x,y,z) order."""
    k2 = k * k
    for x in range(k):
        for y in range(k):
            if table[y * k2 + y * k + x] != x or table[x * k2 + y * k + y] != x:
                return False
    return True


def is_malcev_op(X: FiniteAlgebra, symbol: str) -> Check:
    """Check μ(y,y,x) = x and μ(x,y,y) = x; witness is the least failing (x, y)."""
    arity = X.sig.arity(symbol)
    if arity != 3:
        raise ArityMismatchError(symbol, 3, arity)
    for x in range(X.size):
        for y in range(X.size):
            if X.apply(symbol, (y, y, x)) != x or X.apply(symbol, (x, y, y)) != x:
                return Check(False, (x, y))
    return Check(True)


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
    # count = k ** (free cells), multiplied out only until it passes the
    # number of tables that could be listed
    stop = TABLE_CAP if cap is None else cap
    count = 1
    for _ in range(k * (k - 1) ** 2):
        count *= k
        if count > stop:
            break
    listed = count if cap is None else min(count, cap)
    if listed * k3 > TABLE_CAP:
        raise SizeCapError(
            f"listing {listed} Mal'cev tables of {k3} entries each exceeds the limit of"
            f" {TABLE_CAP} entries; lower --max-clone"
        )
    k2 = k * k
    base: list[int | None] = [None] * k3
    for x in range(k):
        for y in range(k):
            base[y * k2 + y * k + x] = x
            base[x * k2 + y * k + y] = x
    free = [i for i, v in enumerate(base) if v is None]
    tables: list[tuple[int, ...]] = []
    for values in itertools.islice(itertools.product(range(k), repeat=len(free)), listed):
        table = base[:]
        for i, v in zip(free, values):
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


def _clone_closure(
    X: FiniteAlgebra, cap: int, stop: Callable[[tuple[int, ...]], bool] | None = None
) -> tuple[list[tuple[int, ...]], tuple[int, ...] | None]:
    """Close the three projections (and constants) under the operations of X.

    Functions X^3 -> X are their flat length-k^3 tables.  Breadth-first, so
    output order is deterministic.  If ``stop`` accepts a table, closure
    halts early and that table is returned as the witness.
    """
    k3 = X.size**3
    seeds = projection_tables((X.size,) * 3)
    seeds += [X.apply_tables(name, ()) * k3 for name, arity in X.sig if arity == 0]
    known = list(dict.fromkeys(seeds))
    seen = set(known)
    for table in known:
        if stop is not None and stop(table):
            return known, table
    ops = [(name, arity) for name, arity in X.sig if arity >= 1]
    start = 0
    while start < len(known):
        end = len(known)
        for name, arity in ops:
            for combo in itertools.product(range(end), repeat=arity):
                if max(combo) < start:
                    continue  # all arguments old: already generated
                table = X.apply_tables(name, [known[i] for i in combo])
                if table in seen:
                    continue
                if len(seen) >= cap:
                    raise SizeCapError(
                        f"{len(seen) + 1} ternary term operations found, cap {cap} (--max-clone)"
                    )
                seen.add(table)
                known.append(table)
                if stop is not None and stop(table):
                    return known, table
        start = end
    return known, None


def clone_ternary_terms(X: FiniteAlgebra, cap: int = CLONE_CAP) -> list[tuple[int, ...]]:
    """All functions X^3 -> X induced by ternary terms, in discovery order."""
    known, _ = _clone_closure(X, cap)
    return known


def has_malcev_term(X: FiniteAlgebra, cap: int = CLONE_CAP) -> Check:
    """Whether some ternary term operation of X is Mal'cev.

    Witness on success is the found table; the closure stops as soon as a
    Mal'cev member appears.
    """
    k = X.size
    known, witness = _clone_closure(X, cap, stop=lambda t: table_is_malcev(t, k))
    if witness is None:
        return Check(False)
    return Check(True, witness)
