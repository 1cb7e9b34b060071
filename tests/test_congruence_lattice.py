"""``all_congruences`` (the join-closure of the principal congruences) against
the routes that filter every partition.

Seeded random and planted algebras over four signatures; the constant-only
one makes every partition a congruence, so it gives the largest lattices.
For k = 1..6 the lattice is compared with the naive oracle, for k = 7..8
with the partition filter ``all_congruences`` used before, and for planted
algebras with k = 12..16, out of reach of both, ``ualg congruences`` is
checked against the definition: every member is a congruence, the planted
one is among them, and the list is closed under meet and join.
"""

import io
import json
import random
from contextlib import redirect_stdout

from ualgebra import (
    FiniteAlgebra,
    Partition,
    Signature,
    all_congruences,
    all_partitions,
    is_congruence_direct,
)
from ualgebra.cli import main

from _oracles import naive_congruence_labelings, planted_algebra

SIGNATURES = (
    Signature([("f", 2)]),
    Signature([("f", 2), ("u", 1), ("c", 0)]),
    Signature([("u", 1)]),
    Signature([("c", 0)]),
)


def random_algebras(rng, k):
    """Per signature: one random algebra, and one with a planted congruence
    unless the signature has only constants (every partition is planted)."""
    for sig in SIGNATURES:
        ops = {
            name: rng.randrange(k) if a == 0 else tuple(rng.randrange(k) for _ in range(k**a))
            for name, a in sig
        }
        yield FiniteAlgebra(sig, k, ops)
        if any(a for _, a in sig):
            yield planted_algebra(rng, k, rng.randint(1, min(k, 3)), sig)[0]


def test_lattice_matches_naive_oracle_up_to_6():
    rng = random.Random(27182)
    nontrivial = 0
    for k in range(1, 7):
        for X in random_algebras(rng, k):
            got = [c.block_of for c in all_congruences(X)]
            expected = {Partition(labels).block_of for labels in naive_congruence_labelings(X)}
            assert got == sorted(expected)
            nontrivial += len(got) > 2
    assert nontrivial > 15  # lattices beyond {0, 1} really occurred


def test_lattice_matches_partition_filter_at_7_and_8():
    rng = random.Random(16180)
    for k in (7, 8):
        for X in random_algebras(rng, k):
            expected = [p for p in all_partitions(k) if is_congruence_direct(X, p)]
            assert all_congruences(X) == expected


def test_cli_lattice_of_planted_algebras_12_to_16(tmp_path):
    rng = random.Random(14142)
    for k in range(12, 17):
        sig = SIGNATURES[k % 2]
        X, planted = planted_algebra(rng, k, rng.randint(2, 4), sig)
        path = tmp_path / f"planted{k}.json"
        path.write_text(json.dumps(X.to_json_dict()))
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["congruences", str(path), "--json"])
        assert code == 0
        lattice = [Partition.parse(text) for text in json.loads(buf.getvalue())["congruences"]]
        assert lattice == sorted(lattice, key=lambda p: p.block_of)
        assert Partition(planted) in lattice
        members = set(lattice)
        for i, a in enumerate(lattice):
            assert is_congruence_direct(X, a).ok
            for b in lattice[i + 1 :]:
                assert a.meet(b) in members
                # members are congruences, so the equivalence join is the least upper bound
                assert Partition.from_pairs(k, a.pairs() + b.pairs()) in members
