"""Congruence machinery: testing, generation, enumeration, and the largest
congruence refining a given partition.

Two congruence tests are provided: the direct definition (componentwise
equivalent argument tuples give equivalent values) and the principal
translation criterion (each principal translation maps every block into
one block).  They agree on every input; the translation route powers the
generation and refinement algorithms.  The congruence lattice is listed as
the join-closure of the principal congruences Cg(a, b), never by testing
partitions.
"""

import itertools
from typing import Iterable

from .check import Check
from .errors import NotACongruenceError, OutOfCarrierError, SizeCapError, SizeMismatchError, is_element
from .partitions import Partition, _closure
from .translations import PrincipalDescriptor, Translation, _principal_tables

PARTITION_ENUM_CAP = 4140


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

    A partition is a congruence iff each principal translation maps every
    block into one block, so each element is compared with its block's least
    member.  Witness on failure: ``(translation, (a, x))`` — the first
    violating principal translation (canonical order) and the least pair it
    separates; if it separates x < y in a block, it separates (a, x) or (a, y).
    The witness ``Translation`` is built only on failure.
    """
    if part.size != X.size:
        raise SizeMismatchError(f"partition size {part.size} != carrier size {X.size}")
    block = part.block_of
    pairs = [(members[0], x) for members in part.blocks() for x in members[1:]]  # ascending
    for t, first in _principal_tables(X).items():
        found = [(a, x) for a, x in pairs if block[t[a]] != block[t[x]]]
        if found:
            return Check(False, (Translation(t, (PrincipalDescriptor(*first),)), found[0]))
    return Check(True)


def congruence_generated(X, pairs: Iterable[tuple[int, int]]) -> Partition:
    """Least congruence containing the given pairs.

    Block labels, the smaller block relabelled on each merge; every merge is
    pushed through each principal translation until saturated.
    """
    pairs = list(pairs)
    for a, b in pairs:
        if not (is_element(a, X.size) and is_element(b, X.size)):
            raise OutOfCarrierError(f"pair ({a!r},{b!r}) outside carrier of size {X.size}")
    return _closure(X.size, pairs, list(_principal_tables(X)))


def all_congruences(X, max_partitions: int = PARTITION_ENUM_CAP) -> list[Partition]:
    """Every congruence of X, in canonical partition order.

    Every congruence is the join of the principal congruences Cg(a, b) it
    contains, and congruences join as equivalences (Con(X) is a sublattice
    of the equivalence lattice), so closing the bottom under joins with each
    principal congruence reaches all of Con(X).  This is the method of
    R. Freese, "Computing congruences efficiently" (2008).

    ``max_partitions`` caps the partitions built: the pairs a < b, checked
    before any work, and the congruences found, the bottom included.
    """
    k = X.size
    pairs = k * (k - 1) // 2
    if pairs > max_partitions:
        raise SizeCapError(
            f"carrier of size {k} has {pairs} principal pairs, "
            f"cap {max_partitions} (--max-partitions)"
        )
    tables = list(_principal_tables(X))
    principal: dict[Partition, tuple[int, int]] = {}  # Cg(a, b) -> its first pair
    for a, b in itertools.combinations(range(k), 2):
        principal.setdefault(_closure(k, [(a, b)], tables), (a, b))
    generators = [(a, b, pi.pairs()) for pi, (a, b) in principal.items()]
    bottom = Partition.singletons(k)
    found = {bottom}
    frontier = [bottom]
    while frontier:
        theta = frontier.pop()
        base = theta.pairs()
        for a, b, generator in generators:
            if theta.same(a, b):  # Cg(a, b) is below theta
                continue
            join = _closure(k, base + generator)
            if join not in found:
                found.add(join)
                if len(found) > max_partitions:
                    raise SizeCapError(
                        f"{len(found)} congruences found, "
                        f"cap {max_partitions} (--max-partitions)"
                    )
                frontier.append(join)
    return sorted(found, key=lambda p: p.block_of)


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
    tables = list(_principal_tables(X))
    while True:
        block = part.block_of
        finer = Partition(list(zip(block, *([block[v] for v in t] for t in tables))))
        if finer.num_blocks == part.num_blocks:
            return part
        part = finer


def join_congruences(X, p1: Partition, p2: Partition) -> Partition:
    """Least congruence containing two congruences: their join as equivalences."""
    for p in (p1, p2):
        verdict = is_congruence_via_translations(X, p)
        if not verdict:
            raise NotACongruenceError(verdict.witness)
    return _closure(X.size, p1.pairs() + p2.pairs())
