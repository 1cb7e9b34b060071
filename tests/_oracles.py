"""Independent brute-force oracles.

Everything here recomputes results from first principles with naive loops,
deliberately sharing no algorithmic route with the library: set partitions
are enumerated recursively (not as restricted-growth strings), semigroup,
clone and subalgebra closures run as repeated full passes over raw tables, the
largest-congruence oracle filters the whole congruence lattice, and terms
are evaluated one assignment at a time by recursion.  Three are exceptions,
routes the library used before, kept as the references it must reproduce
exactly: ``frozen_word_semigroup``, the closure loop that the translation
semigroup used before it kept its members as a tree;
``naive_translation_witness``, the same-block pair scan that the
translation congruence test used before it compared each element with its
block's least member; and ``frozen_flatten``, the depth-first table check
that algebra construction used before it checked one nesting level at a time.
"""

import itertools
import random
from operator import itemgetter

from ualgebra import Constant, FiniteAlgebra, Signature, Translation, Variable, principal_translations
from ualgebra.check import Check
from ualgebra.errors import FormatError, OutOfCarrierError, SizeCapError


def naive_partitions(n):
    """All partitions of {0..n-1} as frozensets of frozensets, via recursion."""
    if n == 0:
        return [frozenset()]
    out = []
    for smaller in naive_partitions(n - 1):
        blocks = sorted(smaller, key=min)
        for i in range(len(blocks)):
            out.append(frozenset(b | {n - 1} if j == i else b for j, b in enumerate(blocks)))
        out.append(frozenset(list(blocks) + [frozenset({n - 1})]))
    return out


def blocks_to_labels(blocks, n):
    labels = [None] * n
    for i, block in enumerate(sorted(blocks, key=min)):
        for x in block:
            labels[x] = i
    return labels


def naive_is_congruence(X, labels):
    """Direct definition: componentwise-equivalent tuples get equivalent values."""
    k = X.size
    for name, arity in X.sig:
        for xs in itertools.product(range(k), repeat=arity):
            for ys in itertools.product(range(k), repeat=arity):
                if all(labels[a] == labels[b] for a, b in zip(xs, ys)):
                    if labels[X.apply(name, xs)] != labels[X.apply(name, ys)]:
                        return False
    return True


def naive_congruence_labelings(X):
    """Label arrays of all congruences of X, via the naive partition filter."""
    out = []
    for blocks in naive_partitions(X.size):
        labels = blocks_to_labels(blocks, X.size)
        if naive_is_congruence(X, labels):
            out.append(labels)
    return out


def naive_principal_tables(X):
    """Tables of all principal translations, by direct definition."""
    k = X.size
    tables = set()
    for name, arity in X.sig:
        if arity == 0:
            continue
        for slot in range(1, arity + 1):
            for fixed in itertools.product(range(k), repeat=arity - 1):
                table = tuple(
                    X.apply(name, fixed[: slot - 1] + (x,) + fixed[slot - 1 :])
                    for x in range(k)
                )
                tables.add(table)
    return tables


def naive_semigroup_tables(X):
    """Tables of the translation semigroup: repeated composition passes."""
    k = X.size
    tables = naive_principal_tables(X) | {tuple(range(k))}
    while True:
        new = set()
        for a in tables:
            for b in tables:
                composed = tuple(a[b[x]] for x in range(k))
                if composed not in tables:
                    new.add(composed)
        if not new:
            return tables
        tables |= new


def frozen_word_semigroup(X, cap):
    """The translation semigroup as one frozen ``Translation`` per member,
    each word the tuple of its parent's word plus one generator."""
    k = X.size
    generators = principal_translations(X)
    identity = Translation(tuple(range(k)), ())
    members = [identity]
    if k == 1:
        return members
    seen = {identity.table}
    frontier = [identity]
    while frontier:
        nxt = []
        for t in frontier:
            pick = itemgetter(*t.table)
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


def naive_translation_witness(X, part):
    """Every same-block pair under every principal translation: the verdict
    and the first (translation, pair) it finds separated."""
    pairs = [
        (x, y)
        for x in range(X.size)
        for y in range(x + 1, X.size)
        if part.same(x, y)
    ]
    for tr in principal_translations(X):
        for x, y in pairs:
            if not part.same(tr.table[x], tr.table[y]):
                return Check(False, (tr, (x, y)))
    return Check(True)


def naive_clone_tables(X):
    """Ternary term operation tables: repeated closure passes over tuples."""
    k = X.size
    points = list(itertools.product(range(k), repeat=3))
    tables = {tuple(p[i] for p in points) for i in range(3)}
    for name, arity in X.sig:
        if arity == 0:
            tables.add((X.apply(name, ()),) * len(points))
    while True:
        new = set()
        for name, arity in X.sig:
            if arity == 0:
                continue
            for args in itertools.product(tables, repeat=arity):
                composed = tuple(
                    X.apply(name, tuple(arg[i] for arg in args)) for i in range(len(points))
                )
                if composed not in tables:
                    new.add(composed)
        if not new:
            return tables
        tables |= new


def naive_subalgebra(X, seed):
    """Members and induced flat tables of the subalgebra generated by ``seed``.

    A fixpoint: every symbol is applied with ``X.apply`` to all tuples of the
    current members until no new element appears.  Tables are renumbered by
    ascending member order, each tuple of new indices in lexicographic order.
    """
    members = set(seed)
    while True:
        found = {
            X.apply(name, args)
            for name, arity in X.sig
            for args in itertools.product(sorted(members), repeat=arity)
        }
        if found <= members:
            break
        members |= found
    members = sorted(members)
    position = {x: i for i, x in enumerate(members)}
    tables = {
        name: [position[X.apply(name, args)] for args in itertools.product(members, repeat=arity)]
        for name, arity in X.sig
    }
    return members, tables


def naive_evaluate(t, X, assignment):
    """Value of term ``t`` under one assignment, by recursion over ``X.apply``."""
    if isinstance(t, Variable):
        return assignment[t.index]
    if isinstance(t, Constant):
        return X.apply(t.symbol, ())
    return X.apply(t.symbol, tuple(naive_evaluate(c, X, assignment) for c in t.children))


def naive_holds(X, p, q, variables):
    """First assignment (lexicographic over sorted variables) where p and q differ, else None."""
    for values in itertools.product(range(X.size), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if naive_evaluate(p, X, assignment) != naive_evaluate(q, X, assignment):
            return assignment
    return None


def naive_product_table(factors, name, arity):
    """Flat table of ``name`` on the product, one ``X.apply`` per factor and tuple.

    Product element x encodes the tuple of factor elements with the first
    factor most significant.
    """
    sizes = [f.size for f in factors]
    total = 1
    for k in sizes:
        total *= k

    def decode(x):
        out = []
        for k in reversed(sizes):
            x, digit = divmod(x, k)
            out.append(digit)
        return out[::-1]

    table = []
    for args in itertools.product(range(total), repeat=arity):
        coords = [decode(a) for a in args]
        value = 0
        for i, (f, k) in enumerate(zip(factors, sizes)):
            value = value * k + f.apply(name, tuple(c[i] for c in coords))
        table.append(value)
    return table


def naive_is_malcev_table(table, k):
    """Whether a flat k^3 table in (x,y,z) order is Mal'cev, as a Check whose
    witness on failure is the least (x, y) breaking μ(y,y,x) = x or μ(x,y,y) = x."""
    for x in range(k):
        for y in range(k):
            if table[(y * k + y) * k + x] != x:
                return Check(False, (x, y))
            if table[(x * k + y) * k + y] != x:
                return Check(False, (x, y))
    return Check(True)


def brute_malcev_tables(k):
    """Filter every ternary table on {0..k-1}; only feasible for k <= 2."""
    return [
        table
        for table in itertools.product(range(k), repeat=k**3)
        if naive_is_malcev_table(table, k)
    ]


def coarsest_labels(labelings):
    """The unique coarsest labelling among the given ones; asserts uniqueness."""
    def finer(a, b):  # a refines b
        image = {}
        return all(image.setdefault(la, lb) == lb for la, lb in zip(a, b))

    best = max(labelings, key=lambda lab: -len(set(lab)))
    for lab in labelings:
        assert finer(lab, best), "no unique coarsest labelling"
    return best


def naive_largest_congruence_below(X, labels):
    """Coarsest congruence refining the given labelling, by lattice filter."""
    refining = []
    for cong in naive_congruence_labelings(X):
        image = {}
        if all(image.setdefault(c, l) == l for c, l in zip(cong, labels)):
            refining.append(cong)
    return coarsest_labels(refining)


def s1_saturation_refinement(X, labels, principal_tables):
    """Fixed point of: split classes whose members some principal translation
    separates.  Moore-style refinement; independent of the semigroup route."""
    current = list(labels)
    while True:
        signature = [
            (current[x],) + tuple(current[t[x]] for t in principal_tables)
            for x in range(X.size)
        ]
        relabel = {}
        nxt = [relabel.setdefault(s, len(relabel)) for s in signature]
        if nxt == current:
            return current
        current = nxt


def all_maps(source, target):
    """Every total map {0..source-1} -> {0..target-1} as value tuples."""
    return itertools.product(range(target), repeat=source)


def random_maps(source, target, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.randrange(target) for _ in range(source)) for _ in range(count)]


def random_term_text(sig, rng, depth):
    """Random term text over a signature; variables drawn from v1..v4."""
    choices = []
    if depth == 0:
        choices = ["var"] + [name for name, arity in sig if arity == 0]
    else:
        choices = ["var"] + [name for name, _ in sig]
    pick = rng.choice(choices)
    if pick == "var":
        return f"v{rng.randint(1, 4)}"
    arity = sig.arity(pick)
    if arity == 0:
        return pick
    args = ",".join(random_term_text(sig, rng, depth - 1) for _ in range(arity))
    return f"{pick}({args})"


SIGNATURES = (
    Signature([("f", 2)]),
    Signature([("f", 2), ("u", 1), ("c", 0)]),
    Signature([("u", 1), ("w", 1), ("c", 0)]),
)


def planted_algebra(rng, k, blocks, sig):
    """A random algebra over ``sig`` with a congruence of ``blocks`` blocks
    built in: each operation is drawn on the blocks, and each of its values
    lifted to a random member of the target block.  Returns the algebra and
    the block labels of the planted congruence."""
    labels = [x % blocks for x in range(k)]
    rng.shuffle(labels)
    members = [[x for x in range(k) if labels[x] == b] for b in range(blocks)]
    ops = {}
    for name, arity in sig:
        top = {args: rng.randrange(blocks) for args in itertools.product(range(blocks), repeat=arity)}
        lifted = tuple(
            rng.choice(members[top[tuple(labels[x] for x in xs)]])
            for xs in itertools.product(range(k), repeat=arity)
        )
        ops[name] = lifted if arity else lifted[0]
    return FiniteAlgebra(sig, k, ops), labels


def frozen_flatten(table, arity, size, symbol):
    """A table checked and flattened to a row-major tuple, the way
    ``FiniteAlgebra`` did before it checked one nesting level at a time: a
    depth-first walk with one call per entry, then the range of each entry."""
    if arity == 0:
        if type(table) is not int:
            raise FormatError(f"table for constant '{symbol}' must be an integer")
        flat = [table]
    elif not isinstance(table, (list, tuple)):
        raise FormatError(f"table for '{symbol}' must be a (nested) sequence")
    elif all(type(x) is int for x in table):  # already flat
        if len(table) != size**arity:
            raise FormatError(
                f"flat table for '{symbol}' has {len(table)} entries, expected {size**arity}"
            )
        flat = list(table)
    else:
        flat = []

        def walk(node, depth):
            if depth == 0:
                if type(node) is not int:
                    raise FormatError(f"table for '{symbol}' has a non-integer entry: {node!r}")
                flat.append(node)
                return
            if isinstance(node, (list, tuple)):
                if len(node) != size:
                    raise FormatError(
                        f"table for '{symbol}' has a row of length {len(node)}, expected {size}"
                    )
                for child in node:
                    walk(child, depth - 1)
            else:
                raise FormatError(f"table for '{symbol}' is not nested to depth {arity}")

        walk(table, arity)
        if len(flat) != size**arity:
            raise FormatError(
                f"table for '{symbol}' has {len(flat)} entries, expected {size**arity}"
            )
    for entry in flat:
        if not 0 <= entry < size:
            raise OutOfCarrierError(f"table for '{symbol}' has entry {entry}, carrier size {size}")
    return tuple(flat)
