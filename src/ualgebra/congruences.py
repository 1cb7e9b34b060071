"""Congruence machinery: testing, generation, enumeration, and the largest
congruence refining a given partition.

Two congruence tests are provided: the direct definition (componentwise
equivalent argument tuples give equivalent values) and the principal
translation criterion (unary translates of equivalent pairs stay
equivalent).  They agree on every input; the translation route powers the
generation and refinement algorithms.
"""

import itertools
from typing import Iterable

from .check import Check
from .errors import NotACongruenceError, OutOfCarrierError, SizeCapError, SizeMismatchError
from .partitions import Partition, _closure, all_partitions, bell_number
from .translations import principal_translations

PARTITION_ENUM_CAP = 4140  # Bell(8)


def is_congruence_direct(X, part: Partition) -> Check:
    """Exhaustive check of the defining condition.

    Witness on failure: ``(symbol, xs, ys)`` with xs ~ ys componentwise but
    op(xs) !~ op(ys), least by (xs + ys, symbol declaration order).
    """
    if part.size != X.size:
        raise SizeMismatchError(f"partition size {part.size} != carrier size {X.size}")
    blocks = part.blocks()
    members = [blocks[part.block_of[x]] for x in range(X.size)]
    best = None
    for idx, (name, arity) in enumerate(X.sig):
        if arity == 0:
            continue
        found = None
        for xs in itertools.product(range(X.size), repeat=arity):
            fx = X.apply(name, xs)
            for ys in itertools.product(*(members[x] for x in xs)):
                if not part.same(fx, X.apply(name, ys)):
                    found = (xs + ys, idx, name, xs, ys)
                    break
            if found:
                break
        if found and (best is None or found[:2] < best[:2]):
            best = found
    if best is None:
        return Check(True)
    return Check(False, (best[2], best[3], best[4]))


def is_congruence_via_translations(X, part: Partition) -> Check:
    """Principal-translation criterion; agrees with the direct check.

    Witness on failure: ``(translation, (x, y))`` — the first violating
    principal translation (canonical order) and equivalent pair.
    """
    if part.size != X.size:
        raise SizeMismatchError(f"partition size {part.size} != carrier size {X.size}")
    pairs = [
        (x, y)
        for x in range(X.size)
        for y in range(x + 1, X.size)
        if part.same(x, y)
    ]
    for tr in principal_translations(X):
        for x, y in pairs:
            if not part.same(tr.table[x], tr.table[y]):
                return Check(False, (tr, (x, y)))
    return Check(True)


def congruence_generated(X, pairs: Iterable[tuple[int, int]]) -> Partition:
    """Least congruence containing the given pairs.

    Union-find with path compression; every merge is pushed through each
    principal translation until saturated.
    """
    pairs = list(pairs)
    for a, b in pairs:
        if not (0 <= a < X.size and 0 <= b < X.size):
            raise OutOfCarrierError(f"pair ({a},{b}) outside carrier of size {X.size}")
    return _closure(X.size, pairs, [t.table for t in principal_translations(X)])


def all_congruences(X, max_partitions: int = PARTITION_ENUM_CAP) -> list[Partition]:
    """Every congruence of X, in canonical partition order.

    Filters all partitions of the carrier, so the carrier must be small
    enough that their number stays within ``max_partitions``.
    """
    total = bell_number(X.size)
    if total > max_partitions:
        raise SizeCapError(
            f"carrier of size {X.size} has {total} partitions, cap {max_partitions}"
        )
    return [p for p in all_partitions(X.size) if is_congruence_direct(X, p)]


def largest_congruence_below(X, part: Partition) -> Partition:
    """The unique largest congruence refining ``part``.

    Moore refinement over the principal translations: relabel each x by its
    block and the blocks of its principal translates until the number of
    blocks stops growing.  The fixpoint refines ``part`` and is closed under
    every principal translation, so it is a congruence; every congruence
    below ``part`` refines each round, so the fixpoint is the largest.
    """
    if part.size != X.size:
        raise SizeMismatchError(f"partition size {part.size} != carrier size {X.size}")
    tables = [t.table for t in principal_translations(X)]
    while True:
        block = part.block_of
        finer = Partition(list(zip(block, *([block[v] for v in t] for t in tables))))
        if finer.num_blocks == part.num_blocks:
            return part
        part = finer


def join_congruences(X, p1: Partition, p2: Partition) -> Partition:
    """Least congruence containing two congruences."""
    for p in (p1, p2):
        verdict = is_congruence_via_translations(X, p)
        if not verdict:
            raise NotACongruenceError(verdict.witness)
    return congruence_generated(X, p1.pairs() + p2.pairs())
