"""``largest_congruence_below`` and ``least_factorization`` on planted algebras.

Random algebras with a congruence built in, k = 6..16, so that the answers
are not all singletons.  Up to k = 6 the result is compared with the
pullback of ker f along the whole translation semigroup; for every k it is
checked against the definition: a congruence, below ker f, and maximal —
adding any further pair inside a block of ker f generates a congruence
that leaves ker f.
"""

import random

from ualgebra import (
    CarrierMap,
    Partition,
    Signature,
    congruence_generated,
    is_congruence_direct,
    is_factorization,
    kernel,
    largest_congruence_below,
    least_factorization,
    translation_semigroup,
)

from _oracles import planted_algebra

SIGNATURES = (Signature([("f", 2)]), Signature([("f", 2), ("u", 1), ("c", 0)]))


def semigroup_pullback(semigroup, part):
    """x ~ y iff every translation sends them into one block of ``part``."""
    block = part.block_of
    return Partition([tuple(block[t.table[x]] for t in semigroup) for x in range(part.size)])


def assert_largest_congruence_below(X, theta, ker_f):
    assert is_congruence_direct(X, theta).ok
    assert theta.refines(ker_f)
    blocks = theta.blocks()
    for i, a in enumerate(blocks):
        for b in blocks[i + 1 :]:
            if ker_f.same(a[0], b[0]):
                coarser = congruence_generated(X, theta.pairs() + [(a[0], b[0])])
                assert not coarser.refines(ker_f)


def test_refinement_on_planted_algebras():
    rng = random.Random(31415)
    nontrivial = proper = 0
    for k in range(6, 17):
        for _ in range(3):
            blocks = rng.randint(2, 4)
            X, planted = planted_algebra(rng, k, blocks, rng.choice(SIGNATURES))
            semigroup = translation_semigroup(X) if k <= 6 else None
            for i in range(4):
                if i < 3:  # constant on the planted blocks, so above the planted congruence
                    coarse = [rng.randrange(blocks) for _ in range(blocks)]
                    values = [coarse[b] for b in planted]
                else:
                    values = [rng.randrange(3) for _ in range(k)]
                f = CarrierMap(k, max(values) + 1, tuple(values))
                ker_f = kernel(f)
                theta = largest_congruence_below(X, ker_f)
                F = least_factorization(X, f)
                assert kernel(F.g) == theta
                assert is_factorization(X, f, F).ok
                assert_largest_congruence_below(X, theta, ker_f)
                if semigroup is not None:
                    assert theta == semigroup_pullback(semigroup, ker_f)
                nontrivial += theta.num_blocks < k
                proper += theta != ker_f
    assert nontrivial > 80 and proper > 60  # answers above singletons and below ker f occurred
