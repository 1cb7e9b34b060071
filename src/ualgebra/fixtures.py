"""Built-in algebras and identity sets used across tests and the CLI."""

import itertools
from functools import lru_cache, partial

from .algebra import FiniteAlgebra
from .errors import ArgumentError, FormatError, is_positive
from .signature import Signature
from .terms import Term, parse_term

GROUP_SIG = Signature([("m", 2), ("i", 1), ("e", 0)])
SEMILATTICE_SIG = Signature([("meet", 2)])
MALCEV_SIG = Signature([("mu", 3)])

_GROUP_AXIOM_TEXT = [
    ("m(v1,e)", "v1"),
    ("m(e,v1)", "v1"),
    ("m(v1,i(v1))", "e"),
    ("m(i(v1),v1)", "e"),
    ("m(v1,m(v2,v3))", "m(m(v1,v2),v3)"),
]


@lru_cache(maxsize=None)
def group_axioms() -> tuple[tuple[Term, Term], ...]:
    """Identity/inverse/associativity axioms over the group signature."""
    return tuple(
        (parse_term(p, GROUP_SIG), parse_term(q, GROUP_SIG)) for p, q in _GROUP_AXIOM_TEXT
    )


def cyclic_group(n: int) -> FiniteAlgebra:
    """The cyclic group of order n, written additively over m/i/e."""
    if not is_positive(n):
        raise ArgumentError("group order must be positive" if type(n) is int else f"group order must be an int, got {n!r}")
    return FiniteAlgebra(
        GROUP_SIG,
        n,
        {
            "m": tuple((x + y) % n for x, y in itertools.product(range(n), repeat=2)),
            "i": tuple((-x) % n for x in range(n)),
            "e": 0,
        },
    )


def klein_four() -> FiniteAlgebra:
    """The Klein four-group, elements as 2-bit vectors under xor."""
    return FiniteAlgebra(
        GROUP_SIG,
        4,
        {
            "m": tuple(x ^ y for x, y in itertools.product(range(4), repeat=2)),
            "i": (0, 1, 2, 3),
            "e": 0,
        },
    )


def semilattice2() -> FiniteAlgebra:
    """The two-element meet semilattice ({0,1}, and)."""
    return FiniteAlgebra(
        SEMILATTICE_SIG,
        2,
        {"meet": tuple(x & y for x, y in itertools.product(range(2), repeat=2))},
    )


def adjoined_infinity_monoid(n: int) -> FiniteAlgebra:
    """Addition mod n with an absorbing point adjoined.

    Carrier {0, ..., n-1, inf} with inf encoded as index n; inf + x =
    x + inf = inf and -inf = inf.  Satisfies the monoid axioms over the
    group signature but not the inverse axiom (it fails at inf).
    """
    if not is_positive(n):
        raise ArgumentError("n must be positive" if type(n) is int else f"n must be an int, got {n!r}")
    inf = n
    size = n + 1

    def add(x, y):
        if x == inf or y == inf:
            return inf
        return (x + y) % n

    return FiniteAlgebra(
        GROUP_SIG,
        size,
        {
            "m": tuple(add(x, y) for x, y in itertools.product(range(size), repeat=2)),
            "i": tuple(inf if x == inf else (-x) % n for x in range(size)),
            "e": 0,
        },
    )


def malcev_algebra_from(table) -> FiniteAlgebra:
    """An algebra with a single ternary operation given by ``table``.

    The table may be flat (length k^3) or nested; k is inferred.
    """
    if isinstance(table, (list, tuple)) and table and isinstance(table[0], (list, tuple)):
        size = len(table)
    else:
        size = round(len(table) ** (1 / 3))
        if size**3 != len(table):
            raise FormatError(f"flat ternary table length {len(table)} is not a cube")
    return FiniteAlgebra(MALCEV_SIG, size, {"mu": table})


# ---------------------------------------------------------------------------
# named registry (CLI), in the order ``ualg fixtures`` lists it

_FIXTURES = {
    **{f"Z{n}": partial(cyclic_group, n) for n in range(2, 9)},
    "V4": klein_four,
    "SL2": semilattice2,
    **{f"Sinf{n}": partial(adjoined_infinity_monoid, n) for n in range(2, 9)},
}


def fixture_names() -> list[str]:
    return list(_FIXTURES)


def get_fixture(name: str) -> FiniteAlgebra | None:
    """Resolve a registry name (Z2..Z8, V4, SL2, Sinf2..Sinf8), else None."""
    make = _FIXTURES.get(name)
    return make() if make else None
