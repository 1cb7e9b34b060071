"""Principal translations and the translation semigroup of a finite algebra.

A principal translation fixes all but one argument slot of an operation;
the translation semigroup is the closure of the principal translations and
the identity under composition, inside the monoid of self-maps of the
carrier.  Members carry the word (sequence of principal-translation
descriptors) that produced them, applied left to right.
"""

from array import array
from itertools import islice
from operator import itemgetter
from typing import NamedTuple

from . import algebra  # not "from .algebra import": algebra imports congruences, which imports this module
from .errors import SizeCapError, UAlgError

SEMIGROUP_HARD_CAP = 10**6  # tables; |S(X)| <= k^k always


class PrincipalDescriptor(NamedTuple):
    """Operation symbol, 1-based slot index, and the fixed argument tuple."""

    symbol: str
    slot: int
    fixed: tuple[int, ...]

    def format(self) -> str:
        if not self.fixed:
            return self.symbol
        return f"{self.symbol}@{self.slot}({','.join(str(x) for x in self.fixed)})"


class Translation(NamedTuple):
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


def _principal_tables(X) -> dict[tuple[int, ...], tuple[str, int, tuple[int, ...]]]:
    """Each distinct principal-translation table -> the ``(symbol, slot, fixed)`` that first gives it.

    The tables are the slices of :meth:`FiniteAlgebra.translation_tables`, in
    symbol declaration order, then slot, then fixed tuple, and the dict keeps
    the first occurrence of each in that order; constants give none.  The
    congruence routines read the tables alone, so they build no descriptor.
    """
    out: dict[tuple[int, ...], tuple[str, int, tuple[int, ...]]] = {}
    for name, _ in X.sig:
        for slot, fixed, table in X.translation_tables(name):
            if table not in out:
                out[table] = (name, slot, fixed)
    return out


def principal_translations(X) -> list[Translation]:
    """All principal translations, deduplicated by table (first word kept).

    One ``Translation`` per entry of ``_principal_tables(X)``, in its order,
    with the one-letter word of the ``(symbol, slot, fixed)`` that first gives
    the table.
    """
    return [Translation(table, (PrincipalDescriptor(*first),)) for table, first in _principal_tables(X).items()]


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

    def format_words(self, compose: str = "∘") -> list[str]:
        """``Translation.format_word`` of every member, each built once from its
        parent's, with ``compose`` in place of ``∘``.

        Every word is ASCII apart from ``∘``: symbol names are ASCII
        identifiers, and slots and fixed arguments are decimals.  So
        ``compose="\\u2218"`` gives each word's JSON string form without
        its quotes, ``encode_basestring_ascii(word)[1:-1]``, at one byte per
        character.
        """
        texts = [g.format_word() for g in self.generators]
        words = ["e"]
        for p, j in zip(self.parent[1:], self.letter[1:]):
            words.append(texts[j] if p == 0 else texts[j] + compose + words[p])
        return words


def semigroup_tree(X, cap: int = SEMIGROUP_HARD_CAP) -> SemigroupTree:
    """Closure of the principal translations and the identity under composition.

    Breadth-first: each member, in order, is followed by generators in
    order, and a product not seen before becomes the next member.  So the
    members come in shortlex order of their words, each word is the
    shortlex-least one of its table, and the output order is deterministic.
    Deduplication is by table; words are provenance only.

    The identity followed by a generator is that generator, so the
    identity makes every generator but itself, with no composition.  Any
    other member i is followed only by the generators that the suffix rule
    of Froidure and Pin leaves.  Write i's word as a·v with first letter a:
    v is shortlex-least too, so it is a member, suffix(i), that came before
    i.  If suffix(i) followed by generator j made no new member, v·j has a
    shortlex-smaller word u, so i·j = a·u has a word smaller than a·v·j and
    is already a member: it is not composed.  The members that one member
    made form a contiguous run, so member i walks the run of suffix(i), and
    for each member c of it reads ``maps[c]``, the map of c's last letter.
    The run starts and the suffixes, two arrays of 4-byte ints, and the
    list ``maps`` are all the bookkeeping.

    For k <= 256 the closure composes in ``bytes``: a generator's map is
    ``algebra._byte_map(table)``, and member t followed by generator g is
    ``t.translate(g)`` (member bytes are below k, so the pad is never read).
    Larger carriers compose tuples with ``itemgetter``.  The tables are
    returned as composed, so ``bytes`` up to k = 256 and tuples above.  The
    identity counts against ``cap``, so cap 0 admits no member.
    """
    k = X.size
    generators = principal_translations(X)
    identity = tuple(range(k))
    letter = [-1, *(j for j, g in enumerate(generators) if g.table != identity)]
    if len(letter) > cap:  # the identity's run is made at once; the cap counts the identity too
        raise SizeCapError(f"{max(cap, 0) + 1} translations found, cap {cap} (--max-semigroup)")
    first = [generators[j].table for j in letter[1:]]
    form, to_map = (bytes, algebra._byte_map) if algebra._width(k) == 1 else (tuple, tuple)
    tables = [form(identity), *map(form, first)]
    maps = [None, *map(to_map, first)]  # maps[c] is the map of member c's last letter
    parent = [-1] + [0] * len(first)
    seen = set(tables)
    # C ints: a closure of 2**31 members would not fit in memory anyway
    suffix = array("i", [0]) * len(tables)  # the identity is the suffix of a one-letter word
    bounds = array("i", [1])  # members bounds[s] .. bounds[s + 1] - 1 are the ones member s made
    for i, t in enumerate(islice(tables, 1, None), 1):  # the list grows while it is walked
        bounds.append(len(tables))
        s = suffix[i]
        lo, hi = bounds[s], bounds[s + 1]
        if lo == hi:
            continue  # suffix(i) made no member, so neither does i
        pick = t.translate if form is bytes else itemgetter(*t)  # pick(g) is member i followed by g
        for c in range(lo, hi):
            g = maps[c]
            table = pick(g)
            if table in seen:
                continue
            if len(tables) >= cap:
                raise SizeCapError(
                    f"{len(tables) + 1} translations found, cap {cap} (--max-semigroup)"
                )
            seen.add(table)
            tables.append(table)
            parent.append(i)
            letter.append(letter[c])
            suffix.append(c)
            maps.append(g)
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
