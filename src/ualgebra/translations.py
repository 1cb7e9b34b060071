"""Principal translations and the translation semigroup of a finite algebra.

A principal translation fixes all but one argument slot of an operation;
the translation semigroup is the closure of the principal translations and
the identity under composition, inside the monoid of self-maps of the
carrier.  Members carry the word (sequence of principal-translation
descriptors) that produced them, applied left to right.
"""

from array import array
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

from . import algebra  # not "from .algebra import": algebra imports congruences, which imports this module
from .errors import SizeCapError, UAlgError

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


def principal_translations(X) -> list[Translation]:
    """All principal translations, deduplicated by table (first word kept).

    The tables are the slices of :meth:`FiniteAlgebra.translation_tables`, in
    symbol declaration order, then slot, then fixed tuple; constants give none.
    """
    out: dict[tuple[int, ...], Translation] = {}
    for name, _ in X.sig:
        for slot, fixed, table in X.translation_tables(name):
            if table not in out:
                out[table] = Translation(table, (PrincipalDescriptor(name, slot, fixed),))
    return list(out.values())


class SemigroupTree(NamedTuple):
    """The translation semigroup as a spanning tree of its right Cayley graph.

    Member 0 is the identity.  Every other member i is member ``parent[i]``
    followed by ``generators[letter[i]]``, with ``parent[i] < i``, so its
    word is its parent's word plus one letter.  Members are in shortlex
    order of their words, and each word is the shortlex-least one of its
    table (Froidure and Pin, 1997).  A table is ``bytes`` for k <= 256 and a
    tuple above, the form the closure composes it in.
    """

    generators: list[Translation]
    tables: list[bytes] | list[tuple[int, ...]]
    parent: list[int]
    letter: list[int]

    def format_words(self) -> list[str]:
        """``Translation.format_word`` of every member, each built once from its parent's."""
        texts = [g.format_word() for g in self.generators]
        words = ["e"]
        for p, j in zip(self.parent[1:], self.letter[1:]):
            words.append(texts[j] if p == 0 else texts[j] + "∘" + words[p])
        return words


def semigroup_tree(X, cap: int = SEMIGROUP_HARD_CAP) -> SemigroupTree:
    """Closure of the principal translations and the identity under composition.

    Breadth-first: each member, in order, is followed by generators in
    order, and a product not seen before becomes the next member.  So the
    members come in shortlex order of their words, each word is the
    shortlex-least one of its table, and the output order is deterministic.
    Deduplication is by table; words are provenance only.

    The identity is followed by every generator, any other member i only by
    those that the suffix rule of Froidure and Pin leaves.  Write i's word
    as a·v with first letter a: v is shortlex-least too, so it is a member,
    suffix(i), that came before i.  If suffix(i) followed by generator j
    made no new member, v·j has a shortlex-smaller word u, so i·j = a·u has
    a word smaller than a·v·j and is already a member: it is not composed.
    The members that one member made form a contiguous run, so the run
    starts and the suffixes, two arrays of 4-byte ints, are all the
    bookkeeping.

    For k <= 256 the closure composes in ``bytes``: each generator becomes
    the map ``algebra._byte_map(table)``, and member t followed by generator
    g is ``t.translate(g)`` (member bytes are below k, so the pad is never
    read).  Larger carriers compose tuples with ``itemgetter``.  The tables
    are returned as composed, so ``bytes`` up to k = 256 and tuples above.
    The identity counts against ``cap``, so cap 0 admits no member.
    """
    if cap < 1:
        raise SizeCapError(f"1 translations found, cap {cap} (--max-semigroup)")
    k = X.size
    generators = principal_translations(X)
    small = algebra._width(k) == 1
    if small:
        gen_maps = [algebra._byte_map(g.table) for g in generators]
        tables = [bytes(range(k))]
    else:
        gen_maps = [g.table for g in generators]
        tables = [tuple(range(k))]
    parent, letter = [-1], [-1]
    seen = {tables[0]}
    # C ints: a closure of 2**31 members would not fit in memory anyway
    suffix = array("i", [0])  # the identity's own entry is never read
    bounds = array("i")  # members bounds[s] .. bounds[s + 1] - 1 are the ones member s made
    tries = zip(repeat(0), range(len(gen_maps)))  # (suffix of the product, letter) for the identity
    for i, t in enumerate(tables):  # the list grows while it is walked
        bounds.append(len(tables))
        if i:
            s = suffix[i]
            lo, hi = bounds[s], bounds[s + 1]
            if lo == hi:
                continue  # suffix(i) made no member, so neither does i
            tries = zip(range(lo, hi), letter[lo:hi])
        pick = t.translate if small else itemgetter(*t)  # pick(g) is member i followed by g
        for c, j in tries:
            table = pick(gen_maps[j])
            if table in seen:
                continue
            if len(tables) >= cap:
                raise SizeCapError(
                    f"{len(tables) + 1} translations found, cap {cap} (--max-semigroup)"
                )
            seen.add(table)
            tables.append(table)
            parent.append(i)
            letter.append(j)
            suffix.append(c)
    return SemigroupTree(generators, tables, parent, letter)


def translation_semigroup(X, cap: int = SEMIGROUP_HARD_CAP) -> list[Translation]:
    """The members of ``semigroup_tree(X, cap)``, in its order, with their words."""
    tree = semigroup_tree(X, cap)
    words = [()]
    for p, j in zip(tree.parent[1:], tree.letter[1:]):
        words.append(words[p] + tree.generators[j].word)
    return [Translation(tuple(table), word) for table, word in zip(tree.tables, words)]


def evaluate_word(X, word: tuple[PrincipalDescriptor, ...]) -> tuple[int, ...]:
    """Re-evaluate a word left to right, one ``X.apply`` per point; used to audit Translation tables.

    A slot outside 1..arity raises ``UAlgError``; ``X.apply`` raises
    ``ArityMismatchError`` when ``fixed`` does not hold arity - 1 values and
    ``OutOfCarrierError`` when one of them is outside the carrier.
    """
    table = tuple(range(X.size))
    for desc in word:
        arity = X.sig.arity(desc.symbol)
        if not 1 <= desc.slot <= arity:
            raise UAlgError(f"slot {desc.slot} of '{desc.symbol}' is outside 1..{arity}")
        before, after = desc.fixed[: desc.slot - 1], desc.fixed[desc.slot - 1 :]
        table = tuple(X.apply(desc.symbol, (*before, x, *after)) for x in table)
    return table
