"""Principal translations and the translation semigroup of a finite algebra.

A principal translation fixes all but one argument slot of an operation;
the translation semigroup is the closure of the principal translations and
the identity under composition, inside the monoid of self-maps of the
carrier.  Members carry the word (sequence of principal-translation
descriptors) that produced them, applied left to right.
"""

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .errors import SizeCapError

SEMIGROUP_HARD_CAP = 10**6  # tables; |S(X)| <= k^k always


@dataclass(frozen=True)
class PrincipalDescriptor:
    """Operation symbol, 1-based slot index, and the fixed argument tuple."""

    symbol: str
    slot: int
    fixed: tuple[int, ...]

    def format(self) -> str:
        if not self.fixed:
            return self.symbol
        return f"{self.symbol}@{self.slot}({','.join(str(x) for x in self.fixed)})"


@dataclass(frozen=True)
class Translation:
    """A self-map of the carrier together with its generating word.

    The table equals the word's principal translations applied left to
    right (word[0] acts first).  The identity has an empty word.
    """

    table: tuple[int, ...]
    word: tuple[PrincipalDescriptor, ...]

    def __call__(self, x: int) -> int:
        return self.table[x]

    def format_word(self) -> str:
        if not self.word:
            return "e"
        # composition notation: the last-applied descriptor is leftmost
        return "∘".join(d.format() for d in reversed(self.word))


def _descriptor_table(X, desc: PrincipalDescriptor) -> tuple[int, ...]:
    args = [(c,) * X.size for c in desc.fixed]
    args.insert(desc.slot - 1, tuple(range(X.size)))
    return X.apply_tables(desc.symbol, args)


def principal_translations(X) -> list[Translation]:
    """All principal translations, deduplicated by table (first word kept).

    Enumeration order is lexicographic over (symbol declaration order, slot,
    fixed tuple).  Nullary symbols contribute nothing.
    """
    out: list[Translation] = []
    seen: set[tuple[int, ...]] = set()
    for name, arity in X.sig:
        if arity == 0:
            continue
        for slot in range(1, arity + 1):
            for fixed in itertools.product(range(X.size), repeat=arity - 1):
                desc = PrincipalDescriptor(name, slot, fixed)
                table = _descriptor_table(X, desc)
                if table not in seen:
                    seen.add(table)
                    out.append(Translation(table, (desc,)))
    return out


def translation_semigroup(X, cap: int = SEMIGROUP_HARD_CAP) -> list[Translation]:
    """Closure of the principal translations and the identity under composition.

    Breadth-first by word length with lexicographic tie-breaking, so every
    member carries a shortest witness word and the output order is
    deterministic.  Deduplication is by table; words are provenance only.
    """
    k = X.size
    generators = principal_translations(X)
    identity = Translation(tuple(range(k)), ())
    members = [identity]
    if k == 1:  # the identity is the only self-map, and itemgetter(0) would return a scalar
        return members
    seen = {identity.table}
    frontier = [identity]
    while frontier:
        nxt = []
        for t in frontier:
            pick = itemgetter(*t.table)  # pick(g) is the table of t followed by g
            for gen in generators:
                table = pick(gen.table)
                if table in seen:
                    continue
                if len(seen) >= cap:
                    raise SizeCapError(
                        f"{len(seen) + 1} translations found, cap {cap} (--max-semigroup)"
                    )
                new = Translation(table, t.word + gen.word)
                seen.add(table)
                members.append(new)
                nxt.append(new)
        frontier = nxt
    return members


def evaluate_word(X, word: tuple[PrincipalDescriptor, ...]) -> tuple[int, ...]:
    """Re-evaluate a word left to right; used to audit Translation tables."""
    table = tuple(range(X.size))
    for desc in word:
        step = _descriptor_table(X, desc)
        table = tuple(step[v] for v in table)
    return table
