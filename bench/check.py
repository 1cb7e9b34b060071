"""Untimed output check for every benchmark op.

Each op's JSON stdout is compared with an answer recomputed by ``naive``,
which never calls ``ualgebra``.  ``Checker.check`` returns None when the
exit code and output are right, else a one-line reason.
"""

import json
from pathlib import Path

import naive

GROUP_AXIOMS = [
    ("m(v1,e)", "v1"),
    ("m(e,v1)", "v1"),
    ("m(v1,i(v1))", "e"),
    ("m(i(v1),v1)", "e"),
    ("m(v1,m(v2,v3))", "m(m(v1,v2),v3)"),
]


class Checker:
    """Naive answers, cached per algebra for the length of one run."""

    def __init__(self):
        self._algebra_dicts: dict[str, dict] = {}
        self._clone_sets: dict[str, set] = {}
        self._congruence_lists: dict[str, list] = {}

    def algebra(self, name: str) -> dict:
        if name not in self._algebra_dicts:
            alg = naive.fixture(name)
            if alg is None:
                alg = naive.from_doc(json.loads(Path(name).read_text()))
            self._algebra_dicts[name] = alg
        return self._algebra_dicts[name]

    def clone(self, name: str) -> set:
        if name not in self._clone_sets:
            self._clone_sets[name] = naive.clone(self.algebra(name))
        return self._clone_sets[name]

    def check(self, argv: list[str], code, stdout: str) -> str | None:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return f"exit {code}, stdout is not JSON"
        command = argv[0]
        if doc.get("command") != command or doc.get("schema") != 1 or doc.get("exit_code") != code:
            return f"exit {code}, header {doc.get('command')!r}/{doc.get('exit_code')!r}"
        positional = []
        args = iter(argv[1:])
        for arg in args:
            if arg == "--threads":
                next(args)
            elif not arg.startswith("--"):
                positional.append(arg)
        expected_code, expected, verify = getattr(self, "_" + command.replace("-", "_"))(*positional)
        if code != expected_code:
            return f"exit {code}, expected {expected_code}"
        for key, value in expected.items():
            if doc.get(key) != value:
                return f"field {key!r} differs from the naive answer"
        return verify(doc) if verify else None

    # -- one method per command: (exit code, expected fields, extra check or None)

    def _factorize(self, name, map_text):
        alg = self.algebra(name)
        f = json.loads(map_text)
        theta = naive.largest_congruence_below(alg, naive.canon(f))
        reps = naive.representatives(theta)
        return 0, {
            "f": f,
            "kernel": naive.format_partition(theta),
            "y_size": len(reps),
            "y": naive.quotient_doc(alg, theta),
            "h": [f[r] for r in reps],
            "oracle": None,
        }, None

    def _translations(self, name):
        alg = self.algebra(name)
        s1 = naive.principal_tables(alg)
        return 0, {"algebra": name, "s1_size": len(s1)}, lambda doc: check_semigroup(alg, s1, doc)

    def _congruences(self, name):
        if name not in self._congruence_lists:
            self._congruence_lists[name] = [naive.format_partition(p) for p in naive.congruences(self.algebra(name))]
        found = self._congruence_lists[name]
        return 0, {"algebra": name, "count": len(found), "congruences": found}, None

    def _gen_congruence(self, name, pairs_text):
        pairs = json.loads(pairs_text)
        theta = naive.generated(self.algebra(name), pairs)
        return 0, {"algebra": name, "pairs": pairs, "congruence": naive.format_partition(theta)}, None

    def _quotient(self, name, partition_text):
        alg = self.algebra(name)
        part = naive.parse_partition(partition_text)
        if not naive.is_congruence(alg, part):
            return 1, {"is_congruence": False}, None
        return 0, {
            "partition": naive.format_partition(part),
            "is_congruence": True,
            "quotient": naive.quotient_doc(alg, part),
            "map": list(part),
        }, None

    def _check_identity(self, name, p_text, q_text):
        alg = self.algebra(name)
        p, q = naive.parse_term(p_text), naive.parse_term(q_text)
        witness = naive.first_failure(alg, p, q)
        return (0 if witness is None else 1), {
            "p": naive.format_term(p),
            "q": naive.format_term(q),
            "holds": witness is None,
            "counterexample": witness,
            "class": naive.occurrence_class(p, q),
        }, None

    def _variety_check(self, name, *identities):
        alg = self.algebra(name)
        results, first = [], None
        for text in identities:
            p_text, q_text = text.split("=", 1)
            p, q = naive.parse_term(p_text), naive.parse_term(q_text)
            witness = naive.first_failure(alg, p, q)
            entry = {"p": naive.format_term(p), "q": naive.format_term(q)}
            results.append({**entry, "holds": witness is None})
            if witness is not None and first is None:
                first = {**entry, "counterexample": witness}
        fields = {"identities": results, "all_hold": first is None, "first_failure": first}
        return (0 if first is None else 1), fields, None

    def _product(self, *names):
        doc, projections = naive.product_doc([self.algebra(n) for n in names])
        return 0, {"factors": list(names), "size": doc["size"], "algebra": doc, "projections": projections}, None

    def _subalgebra(self, name, seed_text):
        alg = self.algebra(name)
        seed = json.loads(seed_text)
        members = naive.subalgebra(alg, seed)
        return 0, {"seed": seed, "members": members, "subalgebra": naive.induced_doc(alg, members)}, None

    def _clone(self, name):
        has, verify = self._malcev_term(name)
        return 0, {"count": len(self.clone(name)), "has_malcev_term": has}, verify

    def _malcev(self, name):
        has, verify = self._malcev_term(name)
        alg = self.algebra(name)
        table = None
        if all(naive.first_failure(alg, naive.parse_term(p), naive.parse_term(q)) is None for p, q in GROUP_AXIOMS):
            k, inv = alg["size"], alg["ops"]["i"]

            def mul(x, y):
                return naive.apply(alg, "m", (x, y))

            table = [mul(x, mul(inv[y], z)) for x in range(k) for y in range(k) for z in range(k)]
        fields = {"mode": "algebra", "has_malcev_term": has, "group_malcev": table}
        return (0 if has else 1), fields, verify

    def _malcev_term(self, name):
        """Whether the naive clone has a Mal'cev member, and a check of the witness.

        The program stops at the first Mal'cev table its closure finds, so
        the witness must be Mal'cev and in the clone, not a particular one.
        """
        k = self.algebra(name)["size"]
        clone = self.clone(name)
        has = any(naive.is_malcev(t, k) for t in clone)

        def verify(doc):
            witness = doc.get("witness")
            if not has:
                return None if witness is None else "witness given but no Mal'cev term exists"
            if not isinstance(witness, list) or tuple(witness) not in clone or not naive.is_malcev(witness, k):
                return "witness is not a Mal'cev member of the clone"
            return None

        return has, verify

    def _hom_check(self, source, target, map_text):
        phi = json.loads(map_text)
        violation = naive.is_homomorphism(phi, self.algebra(source), self.algebra(target))
        return (0 if violation is None else 1), {
            "map": phi,
            "is_homomorphism": violation is None,
            "counterexample": None if violation is None else {"symbol": violation[0], "args": violation[1]},
        }, None


def check_semigroup(alg: dict, s1: list[tuple[int, ...]], doc: dict) -> str | None:
    """Whether ``members`` is exactly the translation semigroup, with witness words.

    It must start with the identity, repeat no table, list words in
    non-decreasing length (breadth first), give each word the table its
    principal translations compose to, and be closed under composition with
    every principal translation.
    """
    members = doc.get("members")
    k = alg["size"]
    if not isinstance(members, list) or not members or doc.get("s_size") != len(members):
        return "s_size does not count the members"
    if members[0] != {"word": "e", "table": list(range(k))}:
        return "the first member is not the identity"
    steps: dict = {}
    tables = set()
    last = 0
    for m in members:
        table, word = tuple(m["table"]), m["word"]
        length = 0 if word == "e" else word.count("∘") + 1
        if length < last or table in tables:
            return f"member {word} repeats a table or breaks breadth-first order"
        last = length
        if naive.word_table(alg, word, steps) != table:
            return f"member {word} does not compose to its table"
        tables.add(table)
    if not all(naive.compose(t, g) in tables for t in tables for g in s1):
        return "members are not closed under the principal translations"
    return None
