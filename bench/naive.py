"""Independent brute-force algebra code for the benchmark.

Nothing here imports ``ualgebra``: the generator uses it to derive inputs
and the checker uses it to recompute every op's answer the slow, obvious
way.  An algebra is a plain dict ``{"size": k, "sig": [(name, arity), ...],
"ops": {name: flat row-major tuple, or an int for a constant}}``.
"""

import itertools
import re

GROUP_SIG = [("m", 2), ("i", 1), ("e", 0)]


def from_doc(doc: dict) -> dict:
    """Algebra dict from the program's algebra JSON document."""
    sig = [(item["symbol"], item["arity"]) for item in doc["signature"]]
    ops = {}
    for name, arity in sig:
        table = doc["ops"][name]
        for _ in range(arity - 1):
            table = [x for row in table for x in row]
        ops[name] = table if arity == 0 else tuple(table)
    return {"size": doc["size"], "sig": sig, "ops": ops}


def to_doc(alg: dict) -> dict:
    """The program's algebra JSON document (nested tables) for an algebra dict."""
    k = alg["size"]
    ops = {}
    for name, arity in alg["sig"]:
        table = alg["ops"][name]
        if arity >= 2:
            for _ in range(arity - 1):
                step = len(table) // k
                table = [table[i * step : (i + 1) * step] for i in range(k)]
            table = _lists(table)
        elif arity == 1:
            table = list(table)
        ops[name] = table
    return {
        "signature": [{"symbol": n, "arity": a} for n, a in alg["sig"]],
        "size": k,
        "ops": ops,
    }


def _lists(node):
    return [_lists(x) for x in node] if isinstance(node, (list, tuple)) else node


def apply(alg: dict, name: str, args) -> int:
    table = alg["ops"][name]
    if not args:
        return table
    index = 0
    for a in args:
        index = index * alg["size"] + a
    return table[index]


# ---------------------------------------------------------------------------
# fixtures, built from their definitions


def cyclic(n: int) -> dict:
    return {
        "size": n,
        "sig": GROUP_SIG,
        "ops": {
            "m": tuple((x + y) % n for x in range(n) for y in range(n)),
            "i": tuple((-x) % n for x in range(n)),
            "e": 0,
        },
    }


def klein() -> dict:
    return {
        "size": 4,
        "sig": GROUP_SIG,
        "ops": {"m": tuple(x ^ y for x in range(4) for y in range(4)), "i": (0, 1, 2, 3), "e": 0},
    }


def sinf(n: int) -> dict:
    """Addition mod n with an absorbing point n adjoined."""
    inf = n

    def add(x, y):
        return inf if inf in (x, y) else (x + y) % n

    return {
        "size": n + 1,
        "sig": GROUP_SIG,
        "ops": {
            "m": tuple(add(x, y) for x in range(n + 1) for y in range(n + 1)),
            "i": tuple(inf if x == inf else (-x) % n for x in range(n + 1)),
            "e": 0,
        },
    }


def fixture(name: str) -> dict | None:
    if re.fullmatch(r"Z[2-8]", name):
        return cyclic(int(name[1:]))
    if re.fullmatch(r"Sinf[2-8]", name):
        return sinf(int(name[4:]))
    if name == "V4":
        return klein()
    return None


def transport(alg: dict, elements, image) -> dict:
    """The algebra on ``elements`` (new element i is ``elements[i]``) whose
    operations send each value x to ``image[x]``: a relabelling, quotient or
    subalgebra, depending on the two maps."""
    ops = {}
    for name, arity in alg["sig"]:
        if arity == 0:
            ops[name] = image[alg["ops"][name]]
        else:
            ops[name] = tuple(
                image[apply(alg, name, tuple(elements[i] for i in args))]
                for args in itertools.product(range(len(elements)), repeat=arity)
            )
    return {"size": len(elements), "sig": list(alg["sig"]), "ops": ops}


def relabel(alg: dict, perm) -> dict:
    """Isomorphic copy: element x becomes perm[x]."""
    inv = [0] * alg["size"]
    for x, y in enumerate(perm):
        inv[y] = x
    return transport(alg, inv, perm)


# ---------------------------------------------------------------------------
# partitions as canonical label tuples (restricted growth strings)


def canon(labels) -> tuple[int, ...]:
    ids: dict = {}
    return tuple(ids.setdefault(x, len(ids)) for x in labels)


def parse_partition(text: str) -> tuple[int, ...]:
    blocks = [[int(x) for x in chunk.split(",")] for chunk in text.split("|")]
    labels = [None] * sum(len(b) for b in blocks)
    for i, block in enumerate(blocks):
        for x in block:
            labels[x] = i
    return canon(labels)


def format_partition(labels) -> str:
    blocks: dict[int, list[int]] = {}
    for x, b in enumerate(labels):
        blocks.setdefault(b, []).append(x)
    return "|".join(",".join(str(x) for x in blocks[b]) for b in sorted(blocks, key=lambda b: blocks[b][0]))


def partitions(n: int):
    """Every partition of {0..n-1}, in lexicographic restricted-growth order."""
    labels = [0] * n

    def rec(i, top):
        if i == n:
            yield tuple(labels)
            return
        for v in range(top + 2):
            labels[i] = v
            yield from rec(i + 1, max(top, v))

    if n == 0:
        yield ()
    else:
        yield from rec(1, 0)


def refines(p, q) -> bool:
    image: dict = {}
    return all(image.setdefault(a, b) == b for a, b in zip(p, q))


def _violations(alg: dict, labels):
    """Pairs (op(args), op(args with one slot moved to its block's least member))
    that ``labels`` separates.  None exist iff ``labels`` is a congruence: any
    componentwise-equivalent tuples are joined by such one-slot moves."""
    k = alg["size"]
    rep: dict = {}
    for x in range(k):
        rep.setdefault(labels[x], x)
    for name, arity in alg["sig"]:
        for args in itertools.product(range(k), repeat=arity):
            value = apply(alg, name, args)
            for slot in range(arity):
                moved = args[:slot] + (rep[labels[args[slot]]],) + args[slot + 1 :]
                other = apply(alg, name, moved)
                if labels[value] != labels[other]:
                    yield value, other


def is_congruence(alg: dict, part) -> bool:
    return next(_violations(alg, part), None) is None


def congruences(alg: dict) -> list[tuple[int, ...]]:
    return [p for p in partitions(alg["size"]) if is_congruence(alg, p)]


def generated(alg: dict, pairs) -> tuple[int, ...]:
    """Least congruence containing ``pairs``: merge violations until there are none."""
    labels = list(range(alg["size"]))

    def merge(a, b):
        la, lb = labels[a], labels[b]
        for x, lab in enumerate(labels):
            if lab == lb:
                labels[x] = la

    for a, b in pairs:
        merge(a, b)
    while True:
        found = list(_violations(alg, labels))
        if not found:
            return canon(labels)
        for a, b in found:
            merge(a, b)


def largest_congruence_below(alg: dict, part) -> tuple[int, ...]:
    """Brute force over the partitions refining ``part``, block by block."""
    blocks: dict[int, list[int]] = {}
    for x, b in enumerate(part):
        blocks.setdefault(b, []).append(x)
    per_block = [[(members, sub) for sub in partitions(len(members))] for members in blocks.values()]
    found = []
    for choice in itertools.product(*per_block):
        labels = [0] * len(part)
        for bi, (members, sub) in enumerate(choice):
            for x, s in zip(members, sub):
                labels[x] = (bi, s)
        cand = canon(labels)
        if is_congruence(alg, cand):
            found.append(cand)
    top = [p for p in found if all(refines(q, p) for q in found)]
    if len(top) != 1:
        raise ValueError("congruences below a partition must have one largest member")
    return top[0]


def representatives(labels) -> list[int]:
    """Least member of each block, blocks in order of least member."""
    reps: dict = {}
    for x, b in enumerate(labels):
        reps.setdefault(b, x)
    return list(reps.values())


def quotient_doc(alg: dict, part) -> dict:
    """The quotient algebra document; block i is the block of ``part`` labelled i."""
    return to_doc(transport(alg, representatives(part), part))


def induced_doc(alg: dict, members: list[int]) -> dict:
    """The subalgebra on ``members``, renumbered in ascending order."""
    return to_doc(transport(alg, members, {x: i for i, x in enumerate(members)}))


def subalgebra(alg: dict, seed) -> list[int]:
    current = set(seed)
    for name, arity in alg["sig"]:
        if arity == 0:
            current.add(alg["ops"][name])
    while True:
        new = {
            apply(alg, name, args)
            for name, arity in alg["sig"]
            if arity
            for args in itertools.product(sorted(current), repeat=arity)
        } - current
        if not new:
            return sorted(current)
        current |= new


def is_homomorphism(phi, src: dict, dst: dict):
    """First violating (symbol, args) by (args, declaration order), or None."""
    best = None
    for idx, (name, arity) in enumerate(src["sig"]):
        for args in itertools.product(range(src["size"]), repeat=arity):
            if phi[apply(src, name, args)] != apply(dst, name, tuple(phi[a] for a in args)):
                if best is None or (args, idx) < best[:2]:
                    best = (args, idx, name)
                break
    return None if best is None else (best[2], list(best[0]))


def product_doc(factors: list[dict]) -> tuple[dict, list[list[int]]]:
    sizes = [f["size"] for f in factors]
    tuples = list(itertools.product(*(range(k) for k in sizes)))
    index = {t: i for i, t in enumerate(tuples)}
    sig = factors[0]["sig"]
    ops = {}
    for name, arity in sig:
        if arity == 0:
            ops[name] = index[tuple(f["ops"][name] for f in factors)]
        else:
            ops[name] = tuple(
                index[tuple(apply(f, name, tuple(t[i] for t in args)) for i, f in enumerate(factors))]
                for args in itertools.product(tuples, repeat=arity)
            )
    doc = to_doc({"size": len(tuples), "sig": sig, "ops": ops})
    return doc, [[t[i] for t in tuples] for i in range(len(factors))]


# ---------------------------------------------------------------------------
# terms: nested tuples ("v", index) | ("c", name) | ("a", name, children)

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[(),])")


def parse_term(text: str):
    tokens = _TOKEN.findall(text)
    pos = 0

    def term():
        nonlocal pos
        name = tokens[pos]
        pos += 1
        if re.fullmatch(r"v[1-9][0-9]*", name):
            return ("v", int(name[1:]))
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            children = [term()]
            while tokens[pos] == ",":
                pos += 1
                children.append(term())
            pos += 1  # ")"
            return ("a", name, tuple(children))
        return ("c", name)

    out = term()
    if pos != len(tokens):
        raise ValueError(f"trailing input in term {text!r}")
    return out


def format_term(t) -> str:
    if t[0] == "v":
        return f"v{t[1]}"
    if t[0] == "c":
        return t[1]
    return f"{t[1]}({','.join(format_term(c) for c in t[2])})"


def variables(t) -> set[int]:
    if t[0] == "v":
        return {t[1]}
    if t[0] == "c":
        return set()
    return set().union(*(variables(c) for c in t[2]))


def evaluate(alg: dict, t, env) -> int:
    if t[0] == "v":
        return env[t[1]]
    if t[0] == "c":
        return alg["ops"][t[1]]
    return apply(alg, t[1], tuple(evaluate(alg, c, env) for c in t[2]))


def first_failure(alg: dict, p, q):
    """Least failing assignment of ``p = q`` (lexicographic over sorted variables), or None."""
    names = sorted(variables(p) | variables(q))
    for values in itertools.product(range(alg["size"]), repeat=len(names)):
        env = dict(zip(names, values))
        if evaluate(alg, p, env) != evaluate(alg, q, env):
            return {f"v{v}": env[v] for v in names}
    return None


def occurrence_class(p, q) -> str:
    def counts(t, out):
        if t[0] == "v":
            out[t[1]] = out.get(t[1], 0) + 1
        elif t[0] == "a":
            for c in t[2]:
                counts(c, out)
        return out

    pc, qc = counts(p, {}), counts(q, {})
    pairs = [(pc.get(v, 0), qc.get(v, 0)) for v in set(pc) | set(qc)]
    if all(a <= 1 and b <= 1 for a, b in pairs):
        return "Linear"
    if all((a <= 1 and b <= 2) or (a <= 2 and b <= 1) for a, b in pairs):
        return "LinearQuadratic"
    return "Unclassified"


# ---------------------------------------------------------------------------
# ternary clone and Mal'cev operations


def clone(alg: dict) -> set[tuple[int, ...]]:
    """Every ternary term operation: projections and constants closed under the operations.

    Functions are value tables over the k^3 points; each round applies every
    operation to every argument tuple that uses a function new in the last
    round.
    """
    k = alg["size"]
    points = list(itertools.product(range(k), repeat=3))
    known = {tuple(p[i] for p in points) for i in range(3)}
    known |= {(alg["ops"][n],) * len(points) for n, a in alg["sig"] if a == 0}
    fresh = set(known)
    while fresh:
        funcs = sorted(known)
        new = set()
        for name, arity in alg["sig"]:
            if arity == 0:
                continue
            table = alg["ops"][name]
            for args in itertools.product(funcs, repeat=arity):
                if fresh.isdisjoint(args):
                    continue
                new.add(tuple(table[_index(column, k)] for column in zip(*args)))
        fresh = new - known
        known |= fresh
    return known


def _index(args, k: int) -> int:
    index = 0
    for a in args:
        index = index * k + a
    return index


def is_malcev(table, k: int) -> bool:
    return all(
        table[(y * k + y) * k + x] == x and table[(x * k + y) * k + y] == x
        for x in range(k)
        for y in range(k)
    )


def compose(first, then) -> tuple[int, ...]:
    """``then ∘ first`` as a table."""
    return tuple(then[v] for v in first)


def principal_tables(alg: dict) -> list[tuple[int, ...]]:
    """Distinct principal translation tables, first occurrence kept."""
    k = alg["size"]
    seen: dict[tuple[int, ...], None] = {}
    for name, arity in alg["sig"]:
        for slot in range(arity):
            for fixed in itertools.product(range(k), repeat=arity - 1):
                table = tuple(apply(alg, name, fixed[:slot] + (x,) + fixed[slot:]) for x in range(k))
                seen.setdefault(table, None)
    return list(seen)


_WORD = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:@([0-9]+)\(([0-9,]*)\))?")


def word_table(alg: dict, word: str, steps: dict) -> tuple[int, ...]:
    """Table of a composition word like ``f@1(2)∘u`` (rightmost factor acts first).

    ``steps`` caches the table of each factor across calls.
    """
    k = alg["size"]
    table = tuple(range(k))
    if word == "e":
        return table
    for piece in reversed(word.split("∘")):
        step = steps.get(piece)
        if step is None:
            m = _WORD.fullmatch(piece)
            name, slot = m.group(1), int(m.group(2) or 1)
            fixed = tuple(int(x) for x in m.group(3).split(",")) if m.group(3) else ()
            step = tuple(apply(alg, name, fixed[: slot - 1] + (x,) + fixed[slot - 1 :]) for x in range(k))
            steps[piece] = step
        table = compose(table, step)
    return table
