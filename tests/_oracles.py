"""Independent brute-force oracles.

Everything here recomputes results from first principles with naive loops,
deliberately sharing no algorithmic route with the library: set partitions
are enumerated recursively (not as restricted-growth strings), semigroup,
clone and subalgebra closures run as repeated full passes over raw tables, the
largest-congruence oracle filters the whole congruence lattice, and terms
are evaluated one assignment at a time by recursion.  Fourteen are exceptions,
routes the library used before, kept as the references it must reproduce
exactly: ``frozen_word_semigroup``, the closure loop that the translation
semigroup used before it kept its members as a tree;
``frozen_semigroup_tree``, the level loop that built that tree by following
every member with every generator, before the suffix rule skipped the
products already known to be members;
``naive_translation_witness``, the same-block pair scan that the
translation congruence test used before it compared each element with its
block's least member; ``frozen_flatten``, the depth-first table check
that algebra construction used before it checked one nesting level at a
time; ``frozen_generated``, the tuple-table closure loop that generated
subalgebras and the clone used before they composed in bytes;
``frozen_apply_tables``, the row-major tuple route that applied every
operation before small ones were applied in bytes; ``frozen_closure``,
the union-find forest with path compression that generated every
congruence, join and equivalence closure before the closure kept one block
label per element; ``frozen_algebra`` with ``frozen_read_file``, the
pathlib loader that read algebra files and ``@path`` arguments before the
command line read them with one plain ``open()``; ``frozen_open_read_file``,
that text-mode ``open()``, before the command line read files with raw
``os.read``; and ``frozen_is_congruence_via_translations`` with
``frozen_principal_translations``, the translation congruence test as it ran
over one ``Translation`` per principal table, before the congruence routines
read the tables alone; and ``frozen_tokenize`` with
``frozen_parse_signature``, the hand-written loops that scanned term and
signature text one character at a time, before both scanned it with ``re``.
"""

import itertools
import random
from collections import deque
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from ualgebra import Constant, FiniteAlgebra, Partition, Signature, Translation, Variable, fixtures
from ualgebra import principal_translations
from ualgebra.check import Check
from ualgebra.algebra import TABLE_CAP
from ualgebra.cli import _json
from ualgebra.errors import ArityMismatchError, FormatError, OutOfCarrierError, SizeCapError, SizeMismatchError
from ualgebra.errors import ParseError, UAlgError, decimal
from ualgebra.signature import _ENTRY_RE, _NAME_RE
from ualgebra.translations import PrincipalDescriptor, SemigroupTree


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


def naive_principal_translations(X):
    """``(table, (symbol, slot, fixed))`` of every principal translation by
    direct definition, one ``X.apply`` per point, in symbol declaration order,
    then slot, then fixed tuple; of equal tables only the first is kept."""
    k = X.size
    first = {}
    for name, arity in X.sig:
        for slot in range(1, arity + 1):
            for fixed in itertools.product(range(k), repeat=arity - 1):
                table = tuple(
                    X.apply(name, fixed[: slot - 1] + (x,) + fixed[slot - 1 :])
                    for x in range(k)
                )
                first.setdefault(table, (name, slot, fixed))
    return list(first.items())


def naive_principal_tables(X):
    """Tables of all principal translations, by direct definition."""
    return {table for table, _ in naive_principal_translations(X)}


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
    each word the tuple of its parent's word plus one generator.  The
    identity counts toward ``cap`` like every other member."""
    if cap < 1:
        raise SizeCapError(f"1 translations found, cap {cap} (--max-semigroup)")
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


def frozen_semigroup_tree(X, cap):
    """``semigroup_tree`` as a level loop that follows every member with every
    generator: the members start..end-1 of one word length make the next."""
    if cap < 1:
        raise SizeCapError(f"1 translations found, cap {cap} (--max-semigroup)")
    k = X.size
    generators = principal_translations(X)
    if k <= 256:
        gen_maps = [bytes(g.table) + bytes(range(k, 256)) for g in generators]
        tables = [bytes(range(k))]
    else:
        gen_maps = [g.table for g in generators]
        tables = [tuple(range(k))]
    parent, letter = [-1], [-1]
    seen = {tables[0]}
    start = 0
    while start < len(tables):  # members start..end-1 are the words of one length
        end = len(tables)
        for i in range(start, end):
            t = tables[i]
            pick = t.translate if k <= 256 else itemgetter(*t)  # pick(g) is member i followed by g
            for j, table in enumerate(map(pick, gen_maps)):
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
        start = end
    return SemigroupTree(generators, list(map(tuple, tables)), parent, letter)


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


def frozen_apply_tables(X, symbol, args):
    """``symbol`` applied pointwise to equal-length tables, the way
    ``FiniteAlgebra.apply_tables`` did before it applied small operations in
    bytes: one row-major index per entry, looked up in a tuple."""
    arity = X.sig.arity(symbol)
    if len(args) != arity:
        raise ArityMismatchError(symbol, arity, len(args))
    table = X.table(symbol)
    if not args:
        return (table,)
    length = len(args[0])
    if length > TABLE_CAP:
        raise SizeCapError(f"a table of {length} entries exceeds the fixed limit of {TABLE_CAP} entries")
    if any(len(arg) != length for arg in args):
        raise SizeMismatchError(f"argument tables for '{symbol}' differ in length")
    index = args[0]
    for column in args[1:]:
        index = [i * X.size + x for i, x in zip(index, column)]
    return tuple(map(table.__getitem__, index))


def frozen_generated(X, seeds):
    """Close ``seeds`` (tables of one length) and the constants under the operations
    of X applied pointwise, breadth-first: each round applies every operation to the
    argument tuples, in lexicographic order, that use a table of the round before.
    Tables are yielded when first found, so stopping early stops the closure."""
    length = len(seeds[0]) if seeds else 1
    constants = [frozen_apply_tables(X, name, ()) * length for name, arity in X.sig if arity == 0]
    known = list(dict.fromkeys([*seeds, *constants]))
    yield from known
    seen = set(known)
    ops = [(name, arity) for name, arity in X.sig if arity >= 1]
    start = 0
    while start < len(known):
        end = len(known)
        for name, arity in ops:
            for combo in itertools.product(range(end), repeat=arity):
                if max(combo) < start:
                    continue  # all arguments old: already generated
                table = frozen_apply_tables(X, name, [known[i] for i in combo])
                if table not in seen:
                    seen.add(table)
                    known.append(table)
                    yield table
        start = end


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


def naive_quotient_tables(X, labels):
    """Flat tables of X over the blocks of a congruence given by canonical
    ``labels``: each block is represented by its least member."""
    reps = [labels.index(b) for b in range(max(labels) + 1)]
    return {
        name: [
            labels[X.apply(name, tuple(reps[i] for i in args))]
            for args in itertools.product(range(len(reps)), repeat=arity)
        ]
        for name, arity in X.sig
    }


def naive_hom_witness(values, X, Y):
    """The least ``(args, symbol index, symbol)`` with
    values[f(args)] != f(values[args]), one ``X.apply`` per tuple; None for a homomorphism."""
    violations = (
        (args, idx, name)
        for idx, (name, arity) in enumerate(X.sig)
        for args in itertools.product(range(X.size), repeat=arity)
        if values[X.apply(name, args)] != Y.apply(name, tuple(values[a] for a in args))
    )
    return min(violations, default=None)


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


def frozen_closure(
    size: int, pairs: Iterable[tuple[int, int]], tables: Sequence[Sequence[int]] = ()
) -> Partition:
    """Least equivalence containing ``pairs`` and closed under every self-map in ``tables``.

    Union-find with path compression.  Each merge of a and b is queued, and
    a queued pair merges (t[a], t[b]) for every table t.  Pairs must lie in
    range(size).
    """
    parent = list(range(size))
    blocks = size

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> bool:
        nonlocal blocks
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[rb] = ra
        blocks -= 1
        return True

    merged = deque((a, b) for a, b in pairs if union(a, b))
    while merged and blocks > 1:  # one block is closed under everything
        a, b = merged.popleft()
        for table in tables:
            x, y = table[a], table[b]
            if union(x, y):
                merged.append((x, y))
    return Partition([find(x) for x in range(size)])


def frozen_read_file(path: str) -> str:
    """The text of the file at ``path`` through ``Path.read_text``, read as UTF-8;
    other bytes are a FormatError naming the file.  An OSError names the path
    as pathlib normalises it (``./a//b`` as ``a/b``, ``""`` as ``.``)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"file '{path}' is not UTF-8: {exc.reason} at byte {exc.start}") from None


def frozen_algebra(name: str) -> FiniteAlgebra:
    """The built-in fixture ``name``, or the algebra in the JSON file at that
    path if ``Path(name).is_file()``."""
    fixture = fixtures.get_fixture(name)
    if fixture is not None:
        return fixture
    if Path(name).is_file():
        return FiniteAlgebra.from_json_dict(_json(frozen_read_file(name), f"algebra file '{name}'", FormatError))
    raise UAlgError(f"unknown algebra '{name}' (not a fixture name or readable file)")


def frozen_open_read_file(path: str) -> str:
    """The text of the file at ``path`` through one text-mode ``open()``, read as
    UTF-8 with universal newlines; other bytes are a FormatError naming the
    file.  An OSError names the path as given."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"file '{path}' is not UTF-8: {exc.reason} at byte {exc.start}") from None


def frozen_principal_translations(X) -> list[Translation]:
    """``principal_translations`` as it built one ``Translation`` per distinct
    table while it read the slices of ``X.translation_tables``."""
    out: dict[tuple[int, ...], Translation] = {}
    for name, _ in X.sig:
        for slot, fixed, table in X.translation_tables(name):
            if table not in out:
                out[table] = Translation(table, (PrincipalDescriptor(name, slot, fixed),))
    return list(out.values())


def frozen_is_congruence_via_translations(X, part: Partition) -> Check:
    """The principal-translation congruence test over ``frozen_principal_translations``:
    each element is compared with its block's least member, and the witness
    is the first violating ``Translation`` with the least pair it separates."""
    if part.size != X.size:
        raise SizeMismatchError(f"partition size {part.size} != carrier size {X.size}")
    block = part.block_of
    pairs = [(members[0], x) for members in part.blocks() for x in members[1:]]  # ascending
    for tr in frozen_principal_translations(X):
        t = tr.table
        found = [(a, x) for a, x in pairs if block[t[a]] != block[t[x]]]
        if found:
            return Check(False, (tr, found[0]))
    return Check(True)


def frozen_tokenize(text: str) -> list[tuple[str, str, int]]:
    """``terms._tokenize`` as it walked the text by hand: ``(kind, value,
    position)`` of each punctuation mark and name, whitespace skipped by
    ``str.isspace``; any other character is a ParseError at its position."""
    tokens = []
    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "(),":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        m = _NAME_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {ch!r}", pos)
        tokens.append(("name", m.group(0), pos))
        pos = m.end()
    return tokens


def frozen_parse_signature(text: str) -> Signature:
    """``parse_signature`` as it walked the text by hand: each entry must be
    followed by whitespace or the end of the text."""
    entries = []
    pos = 0
    length = len(text)
    while pos < length:
        if text[pos].isspace():
            pos += 1
            continue
        m = _ENTRY_RE.match(text, pos)
        if m is None or (m.end() < length and not text[m.end()].isspace()):
            raise ParseError("expected 'name/arity' entry", pos)
        entries.append((m.group(1), decimal(m.group(2), ParseError, "arity")))
        pos = m.end()
    return Signature(entries)
