"""Partitions of a carrier {0, ..., n-1} in canonical form.

Canonical form is a restricted-growth string: ``block_of[0] == 0`` and each
new block id is one more than the largest id seen so far, so block ids run
in order of least representative.  Text form joins blocks with ``|`` and
elements with ``,``: ``"0,2|1,3"``.
"""

from collections import deque
from typing import Hashable, Iterable, Iterator, Sequence

from .errors import PartitionError, SizeMismatchError, decimal, is_count, is_decimal, is_element


class Partition:
    """An equivalence relation on {0, ..., n-1}."""

    __slots__ = ("_block_of", "_num_blocks")

    def __init__(self, labels: Sequence[Hashable]):
        """Build from any labelling of the elements; equal labels share a block.

        Labels are relabelled to canonical block ids by first occurrence.
        """
        relabel: dict = {}
        block_of = []
        for lab in labels:
            block_of.append(relabel.setdefault(lab, len(relabel)))
        self._block_of = tuple(block_of)
        self._num_blocks = len(relabel)

    @property
    def size(self) -> int:
        return len(self._block_of)

    @property
    def block_of(self) -> tuple[int, ...]:
        return self._block_of

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks in canonical order, each sorted ascending."""
        out: list[list[int]] = [[] for _ in range(self._num_blocks)]
        for x, b in enumerate(self._block_of):
            out[b].append(x)
        return tuple(tuple(block) for block in out)

    def same(self, x: int, y: int) -> bool:
        return self._block_of[x] == self._block_of[y]

    def refines(self, other: "Partition") -> bool:
        """True iff every block of ``self`` lies inside a block of ``other``."""
        if other.size != self.size:
            raise SizeMismatchError(f"partition sizes differ: {self.size} vs {other.size}")
        return len(set(zip(self._block_of, other._block_of))) == self._num_blocks  # each block meets one of other

    def meet(self, other: "Partition") -> "Partition":
        """Common refinement."""
        if other.size != self.size:
            raise SizeMismatchError(f"partition sizes differ: {self.size} vs {other.size}")
        return Partition(list(zip(self._block_of, other._block_of)))

    def pairs(self) -> list[tuple[int, int]]:
        """One chain of pairs per block, enough to regenerate the relation."""
        out = []
        for block in self.blocks():
            out.extend(zip(block, block[1:]))
        return out

    def format(self) -> str:
        return "|".join(",".join(str(x) for x in block) for block in self.blocks())

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse block text like ``"0,2|1,3"``.

        Non-canonical block or element order is accepted and canonicalized;
        duplicate, missing, or non-numeric elements are rejected.
        """
        blocks = []
        for chunk in text.split("|"):
            elems = []
            for piece in chunk.split(","):
                piece = piece.strip()
                if not is_decimal(piece):
                    raise PartitionError(f"bad partition element {piece!r}")
                elems.append(decimal(piece, PartitionError, "partition element"))
            blocks.append(elems)
        size = sum(len(b) for b in blocks)
        return cls.from_blocks(size, blocks)

    @classmethod
    def from_blocks(cls, size: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        labels = [None] * _count(size)
        for i, block in enumerate(blocks):
            for x in block:
                if not is_element(x, size):
                    raise PartitionError(f"element {x!r} out of range for size {size}")
                if labels[x] is not None:
                    raise PartitionError(f"element {x} appears twice")
                labels[x] = i
        if any(lab is None for lab in labels):
            missing = [x for x, lab in enumerate(labels) if lab is None]
            raise PartitionError(f"elements missing from partition: {missing}")
        return cls(labels)

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple[int, int]]) -> "Partition":
        """Equivalence closure of the given pairs (merged block labels)."""
        _count(size)
        pairs = list(pairs)
        for a, b in pairs:
            if not (is_element(a, size) and is_element(b, size)):
                raise PartitionError(f"pair ({a!r},{b!r}) out of range for size {size}")
        return _closure(size, pairs)

    @classmethod
    def singletons(cls, size: int) -> "Partition":
        return cls(range(_count(size)))

    @classmethod
    def single_block(cls, size: int) -> "Partition":
        return cls([0] * _count(size))

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self._block_of == other._block_of

    def __hash__(self) -> int:
        return hash(self._block_of)

    def __reduce__(self):
        """Pickle as the constructor call, which puts the labels in canonical form."""
        return Partition, (self._block_of,)

    def __repr__(self) -> str:
        return f"Partition({self.format()!r})"


def _count(size) -> int:
    """``size``, which must be a carrier size: a non-negative ``int``."""
    if not is_count(size):
        raise PartitionError(f"partition size must be a non-negative int, got {size!r}")
    return size


def _closure(
    size: int, pairs: Iterable[tuple[int, int]], tables: Sequence[Sequence[int]] = ()
) -> Partition:
    """Least equivalence containing ``pairs`` and closed under every self-map in ``tables``.

    ``block[x]`` names x's block by a member, and ``members[p]`` lists block
    p once it has two or more.  ``union`` merges two distinct blocks by
    relabelling the smaller, so each x at most log2(size) times.  Each
    merge of a and b is queued, and a queued pair merges (t[a], t[b]) for
    every table t.  Pairs must lie in range(size).
    """
    block = list(range(size))
    members: list = [None] * size

    def union(a: int, b: int) -> int:
        keep, drop = block[a], block[b]
        kept, dropped = members[keep] or [keep], members[drop] or [drop]
        if len(kept) < len(dropped):
            keep, drop, kept, dropped = drop, keep, dropped, kept
        for x in dropped:
            block[x] = keep
        kept += dropped
        members[keep], members[drop] = kept, None
        return len(kept)

    merged = deque((a, b) for a, b in pairs if block[a] != block[b] and union(a, b))
    while merged:
        a, b = merged.popleft()
        for table in tables:
            x, y = table[a], table[b]
            if block[x] != block[y]:
                if union(x, y) == size:  # one block is closed under everything
                    members.clear()
                    return Partition(block)
                merged.append((x, y))
    members.clear()  # freed before Partition copies block, so the two never peak together
    return Partition(block)


def all_partitions(n: int) -> Iterator[Partition]:
    """All partitions of {0, ..., n-1} in lexicographic canonical order."""
    if n == 0:
        yield Partition(())
        return
    labels = [0] * n

    def rec(i: int, top: int):
        if i == n:
            yield Partition(tuple(labels))
            return
        for v in range(top + 2):
            labels[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(1, 0)


def bell_number(n: int) -> int:
    """Number of partitions of an n-set."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def meet(p1: Partition, p2: Partition) -> Partition:
    return p1.meet(p2)
