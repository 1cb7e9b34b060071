"""Seeded workload generator.

Each workload is a fixed list of ``ualg <command> ... --json`` argument
vectors.  Random algebras come from a family drawn once from a constant
seed; the run seed relabels each family member (an isomorphic copy with
different tables), draws the maps, pairs, seed sets and identities, and
shuffles the op order.  The cost of the translation semigroup varies about
tenfold between random algebras of one carrier size, so drawing fresh
algebras per seed would measure different amounts of work on different
seeds; isomorphic copies keep |S1| and |S| fixed while the bytes change.

Only ``naive`` is used here, never ``ualgebra``.
"""

import json
import math
import random
from collections import Counter
from pathlib import Path

import naive

# Each workload joins two op lists, each list drawing its algebras from its
# own family stream.  Two long runs average the host's slow and fast phases
# out better than four short ones in the same time.
WORKLOADS = {
    "factorize-translations": ("factorize", "translations"),
    "lattice-terms": ("lattice", "terms"),
}
FAMILY_SEED = "ualgebra-bench-family-1"
SIG_BINARY = [("f", 2)]
SIG_FULL = [("f", 2), ("u", 1), ("c", 0)]


def random_algebra(rng: random.Random, k: int, sig) -> dict:
    ops = {name: (rng.randrange(k) if a == 0 else tuple(rng.randrange(k) for _ in range(k**a))) for name, a in sig}
    return {"size": k, "sig": list(sig), "ops": ops}


def planted_algebra(rng: random.Random, k: int, blocks: int) -> tuple[dict, tuple[int, ...]]:
    """A random binary algebra with a congruence of ``blocks`` blocks built in.

    Draws an operation on the blocks, then lifts each value to a random
    member of the target block; returns the algebra and that congruence.
    """
    labels = [x % blocks for x in range(k)]
    rng.shuffle(labels)
    members = {b: [x for x in range(k) if labels[x] == b] for b in range(blocks)}
    top = [rng.randrange(blocks) for _ in range(blocks * blocks)]
    table = tuple(rng.choice(members[top[labels[x] * blocks + labels[y]]]) for x in range(k) for y in range(k))
    return {"size": k, "sig": list(SIG_BINARY), "ops": {"f": table}}, naive.canon(labels)


def surjection(rng: random.Random, k: int, values: int) -> list[int]:
    out = [x % values for x in range(k)]
    rng.shuffle(out)
    return out


class Plan:
    """Collects ops and writes the algebra files they name."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.family = random.Random()
        self.dir = workdir / "alg"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.ops: list[dict] = []
        self.files: list[str] = []

    def copy(self, alg: dict) -> tuple[str, dict, list[int]]:
        """Write a relabelled copy of ``alg``; returns its path, the copy and
        the relabelling (old element -> new)."""
        perm = list(range(alg["size"]))
        self.rng.shuffle(perm)
        alg = naive.relabel(alg, perm)
        path = self.dir / f"a{len(self.files):03d}.json"
        path.write_text(json.dumps(naive.to_doc(alg)))
        self.files.append(str(path))
        return str(path), alg, perm

    def op(self, k: int, *argv: str) -> None:
        self.ops.append({"argv": [*argv, "--json"], "k": k})

    def finish(self) -> dict:
        # A seeded shuffle spreads each algebra's ops over the pass, so a burst
        # of machine noise slows ops of every size a little instead of one
        # algebra's ops a lot.
        self.rng.shuffle(self.ops)
        mix = Counter(op["k"] for op in self.ops)
        kinds = Counter(op["argv"][0] for op in self.ops)
        return {
            "ops": self.ops,
            "algebra_files": self.files,
            "k_mix": {str(k): mix[k] for k in sorted(mix)},
            "commands": dict(sorted(kinds.items())),
        }


def _factorize(b: Plan) -> None:
    # (k, algebras per signature, maps per algebra); 103 ops with the k=7 one.
    # The median falls among the k=5 ops and the 90th percentile among the
    # k=6 ops, not at the edge between two tiers; many algebras with two maps
    # each spread the costs around both.
    for k, per_sig, maps in ((4, 3, 5), (5, 14, 2), (6, 4, 2)):
        for sig in (SIG_BINARY, SIG_FULL):
            for _ in range(per_sig):
                path = b.copy(random_algebra(b.family, k, sig))[0]
                for _ in range(maps):
                    f = surjection(b.rng, k, b.rng.choice((2, 3)))
                    b.op(k, "factorize", path, json.dumps(f))
    # The k=7 member comes from its own stream: |S| = 113,622, about 4 s an op;
    # a random k=7 algebra can have 300k members or more.
    path = b.copy(random_algebra(random.Random(f"{FAMILY_SEED}:factorize:k7"), 7, SIG_BINARY))[0]
    b.op(7, "factorize", path, json.dumps(surjection(b.rng, 7, b.rng.choice((2, 3)))))


def _translations(b: Plan) -> None:
    for k, count in ((4, 30), (5, 64), (6, 4)):  # the median falls mid-way through k=5
        for i in range(count):
            sig = SIG_BINARY if i % 2 else SIG_FULL
            path = b.copy(random_algebra(b.family, k, sig))[0]
            b.op(k, "translations", path)
    for name in ("Z5", "Z6", "Sinf5"):
        b.op(naive.fixture(name)["size"], "translations", name)


def _lattice(b: Plan) -> None:
    targets = []  # 30 congruence lists, so the 90th percentile falls among them
    for k, count in ((6, 5), (7, 5), (8, 2)):
        for i in range(count):
            targets.append((k, b.copy(random_algebra(b.family, k, (SIG_BINARY, SIG_FULL)[i % 2]))[0]))
    targets += [(naive.fixture(n)["size"], n) for n in ("Z8", "Sinf7", "V4")]
    for k, target in targets:
        b.op(k, "congruences", target)
        b.op(k, "congruences", target, "--threads", "2")
    for i in range(35):
        k = 8 + (i * 24) // 34  # 8..32
        planted, theta = planted_algebra(b.family, k, 2 + i % 4)
        path, alg, perm = b.copy(planted)
        blocks = {}
        for x in range(k):
            blocks.setdefault(theta[x], []).append(perm[x])
        pairs = []
        for _ in range(b.rng.randint(1, 3)):
            block = b.rng.choice([m for m in blocks.values() if len(m) > 1])
            pairs.append(sorted(b.rng.sample(block, 2)))
        b.op(k, "gen-congruence", path, json.dumps(pairs))
        b.op(k, "quotient", path, naive.format_partition(naive.generated(alg, pairs)))


def _tree(rng: random.Random, leaves: list[str]) -> str:
    """A random bracketing of ``m`` over the leaves, in the given order."""
    if len(leaves) == 1:
        return leaves[0]
    cut = rng.randint(1, len(leaves) - 1)
    return f"m({_tree(rng, leaves[:cut])},{_tree(rng, leaves[cut:])})"


def identity(rng: random.Random, n: int, abelian: bool, toggle: int = 0) -> tuple[str, str]:
    """An identity in v1..vn with one inverted leaf.

    When ``abelian``, both sides multiply the same leaves in different orders
    and bracketings, so it holds in every abelian group and in every Sinf
    monoid and each check scans all k^n assignments; otherwise the right
    side's leaf of variable ``toggle + 1`` has its inverse toggled.  The
    check then stops at the first assignment that moves that variable, so
    ``toggle`` fixes the cost: the caller chooses it, not the seed.
    """
    leaves = [f"v{j}" for j in range(1, n + 1)]
    j = rng.randrange(n)
    leaves[j] = f"i({leaves[j]})"
    right = list(leaves)
    if not abelian:
        right[toggle] = right[toggle][2:-1] if right[toggle].startswith("i(") else f"i({right[toggle]})"
    return _tree(rng, rng.sample(leaves, n)), _tree(rng, rng.sample(right, n))


def _terms(b: Plan) -> None:
    randoms = [b.copy(random_algebra(b.family, k, naive.GROUP_SIG))[:2] for k in (4, 5, 6, 7, 8, 8)]
    randoms = [(path, alg["size"]) for path, alg in randoms]
    fixtures = [("Z8", 8), ("Sinf7", 8), ("V4", 4)]
    for name in ("Z8", "Sinf7"):
        for n, count, abelian in ((5, 1, True), (4, 3, True), (3, 4, True), (4, 3, False)):
            for t in range(count):
                b.op(8, "check-identity", name, *identity(b.rng, n, abelian, t % n))
    for i in range(16):
        path, k = randoms[i % 6]
        b.op(k, "check-identity", path, *identity(b.rng, 3 + i % 3, i % 2 == 0, i % 3))
    for i in range(12):
        name, k = fixtures[i % 4] if i % 4 < 3 else randoms[i % 6]
        # arities, verdicts and toggles depend on i only: the seed must not
        # change how many full k^n scans an op makes
        shapes = [(3 + (i + j) % 2, (i + j) % 3 != 2) for j in range(2 + i % 2)]
        ids = ["=".join(identity(b.rng, n, abelian, (i + j) % n)) for j, (n, abelian) in enumerate(shapes)]
        b.op(k, "variety-check", name, *ids)
    for factors in (("Z8", "Z8"), ("Z4", "Z4", "Z4"), ("Z2", "Z4"), ("Z3", "Z5"), ("V4", "Z4"),
                    ("Sinf3", "Z4"), ("Z2", "Z2", "Z2"), ("Z6", "Z6"), ("Z2", "Sinf3"), ("V4", "V4", "Z2")):
        factors = b.rng.sample(factors, len(factors))
        b.op(math.prod(naive.fixture(name)["size"] for name in factors), "product", *factors)
    for i in range(20):
        name, k = fixtures[i % 2] if i % 4 < 2 else randoms[i % 6]
        seed = sorted(b.rng.sample(range(k), b.rng.randint(1, 2)))
        b.op(k, "subalgebra", name, json.dumps(seed))
    for name in ("Z3", "Z4", "Z5", "Sinf3", "Sinf4"):
        k = naive.fixture(name)["size"]
        b.op(k, "clone", name)
        b.op(k, "malcev", name)
    for n, m in ((8, 4), (8, 2), (6, 3), (6, 2), (4, 2)):
        unit = b.rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
        hom = [(unit * x) % m for x in range(n)]
        broken = list(hom)
        x = b.rng.randrange(1, n)
        broken[x] = (broken[x] + 1) % m
        b.op(n, "hom-check", f"Z{n}", f"Z{m}", json.dumps(hom))
        b.op(n, "hom-check", f"Z{n}", f"Z{m}", json.dumps(broken))


_PLANNERS = {
    "factorize": _factorize,
    "translations": _translations,
    "lattice": _lattice,
    "terms": _terms,
}


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write the algebra files for one run into ``workdir``; return the op list."""
    b = Plan(workload, seed, workdir)
    for part in WORKLOADS[workload]:
        b.family.seed(f"{FAMILY_SEED}:{part}")
        _PLANNERS[part](b)
    return b.finish()
