"""Factorizations of a map f: X -> Z through surjective homomorphisms.

A factorization is a triple (g, Y, h): g a surjective homomorphism from X
onto an algebra Y, h a plain map Y -> Z, with f = h ∘ g.  Z carries no
structure beyond its size.  Factorizations are preordered by (g1,Y1,h1) ≺
(g2,Y2,h2) iff some homomorphism q: Y2 -> Y1 satisfies g1 = q ∘ g2; the
identity factorization (id, X, f) is greatest, and the least one is the
quotient by the largest congruence refining ker f.
"""

from dataclasses import dataclass

from .algebra import CarrierMap, FiniteAlgebra, _first_difference, _quotient, is_homomorphism, kernel
from .check import Check
from .congruences import PARTITION_ENUM_CAP, all_congruences, largest_congruence_below
from .errors import MismatchedBaseError, SizeMismatchError
from .partitions import Partition


@dataclass(frozen=True)
class Factorization:
    g: CarrierMap  # surjective homomorphism X -> Y
    Y: FiniteAlgebra
    h: CarrierMap  # plain map Y -> Z
    z_size: int

    def composed(self) -> CarrierMap:
        """h ∘ g, which must equal the factored map."""
        return self.g.then(self.h)


def is_factorization(X: FiniteAlgebra, f: CarrierMap, cand: Factorization) -> Check:
    """Verify the three defining clauses; the witness names the first violated one."""
    if f.source_size != X.size:
        raise SizeMismatchError("f is not a map on X's carrier")
    if (
        cand.g.source_size != X.size
        or cand.g.target_size != cand.Y.size
        or cand.h.source_size != cand.Y.size
        or cand.h.target_size != cand.z_size
        or cand.z_size != f.target_size
    ):
        return Check(False, "maps do not fit between X, Y, and Z")
    if not cand.g.is_surjective():
        return Check(False, "g is not surjective")
    hom = is_homomorphism(cand.g, X, cand.Y)
    if not hom:
        return Check(False, f"g is not a homomorphism (violation at {hom.witness})")
    x = _first_difference(cand.composed().values, f.values)
    if x is not None:
        return Check(False, f"h∘g differs from f at x={x}")
    return Check(True)


def precedes(F1: Factorization, F2: Factorization) -> Check:
    """Whether F1 ≺ F2: some homomorphism q: Y2 -> Y1 with g1 = q ∘ g2.

    q is determined on the image of g2 by the equation, so it is constructed
    from g1 and g2 and then checked for well-definedness and the
    homomorphism property.  The witness on success is q.
    """
    if F1.g.source_size != F2.g.source_size or F1.z_size != F2.z_size:
        raise MismatchedBaseError("factorizations have different X or Z")
    if F1.composed().values != F2.composed().values:
        raise MismatchedBaseError("factorizations do not factor the same map")
    values: list[int | None] = [None] * F2.Y.size
    for x in range(F1.g.source_size):
        y2 = F2.g(x)
        y1 = F1.g(x)
        if values[y2] is None:
            values[y2] = y1
        elif values[y2] != y1:
            return Check(False)  # q not well-defined: ker g2 does not refine ker g1
    if any(v is None for v in values):
        raise MismatchedBaseError("g2 is not surjective")
    q = CarrierMap(F2.Y.size, F1.Y.size, tuple(values))
    if not is_homomorphism(q, F2.Y, F1.Y):
        return Check(False)
    return Check(True, q)


def greatest_factorization(X: FiniteAlgebra, f: CarrierMap) -> Factorization:
    """(id, X, f): every factorization of f precedes it."""
    if f.source_size != X.size:
        raise SizeMismatchError("f is not a map on X's carrier")
    return Factorization(CarrierMap.identity(X.size), X, f, f.target_size)


def _factor_through(X: FiniteAlgebra, f: CarrierMap, theta: Partition) -> Factorization:
    """(g, Y, h) with g the quotient map by ``theta`` and h sending each block
    to f of its least member; ``theta``, a congruence refining ker f, is not tested again."""
    Y, g = _quotient(X, theta)
    h = CarrierMap(Y.size, f.target_size, tuple(f(block[0]) for block in theta.blocks()))
    return Factorization(g, Y, h, f.target_size)


def least_factorization(X: FiniteAlgebra, f: CarrierMap) -> Factorization:
    """The least factorization of f: the quotient by the largest congruence
    refining ker f, with h sending each block to f of its least member."""
    if f.source_size != X.size:
        raise SizeMismatchError("f is not a map on X's carrier")
    return _factor_through(X, f, largest_congruence_below(X, kernel(f)))


def enumerate_factorizations(
    X: FiniteAlgebra, f: CarrierMap, max_partitions: int = PARTITION_ENUM_CAP
) -> list[Factorization]:
    """One canonical factorization per congruence refining ker f.

    Brute-force oracle: factorizations up to renaming of Y correspond
    exactly to such congruences.  Ordered by canonical congruence order.
    """
    if f.source_size != X.size:
        raise SizeMismatchError("f is not a map on X's carrier")
    ker_f = kernel(f)
    return [
        _factor_through(X, f, theta)
        for theta in all_congruences(X, max_partitions=max_partitions)
        if theta.refines(ker_f)
    ]
