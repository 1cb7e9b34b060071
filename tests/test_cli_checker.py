"""The command line against the benchmark's independent checker, on drawn algebras.

``bench/check.py`` recomputes the answer of a ``--json`` command line through
``bench/naive.py``, which never imports ``ualgebra``.  The benchmark feeds it
fixed families only; here hypothesis draws algebras with k = 1..5 over four
signatures, writes each to a file, runs a command on it through
``cli.main`` in this process, and asks ``Checker.check`` for a verdict.  The
checker is imported from ``bench/`` as it is and never changed.

Inputs that reach one of the checker's three known faults are not drawn:
ternary operations (``naive.to_doc`` nests them wrongly), an empty
subalgebra seed with no constants (it expects a document, not null), and
``malcev`` off the group signature (its group-axiom check needs m, i and e).
``clone`` and ``malcev`` run at k <= 2 only, where the naive clone has at
most 2^8 members.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ualgebra import FiniteAlgebra, Signature, cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
try:
    from check import Checker
finally:
    del sys.path[0]

SIGNATURES = [
    [("f", 2)],
    [("f", 2), ("u", 1), ("c", 0)],
    [("u", 1), ("v", 1)],
    [("m", 2), ("i", 1), ("e", 0)],
]


def algebras(sig, k):
    """Documents of the algebras over ``sig`` on k elements."""
    element = st.integers(0, k - 1)
    tables = st.tuples(*(element if arity == 0 else st.tuples(*[element] * k**arity) for _, arity in sig))
    return tables.map(lambda ops: FiniteAlgebra(Signature(sig), k, dict(zip(dict(sig), ops))).to_json_dict())


def terms(sig, depth=2):
    """Term text over ``sig`` and the variables v1..v3."""
    leaves = st.sampled_from(["v1", "v2", "v3", *(name for name, arity in sig if arity == 0)])
    if depth == 0:
        return leaves
    sub = terms(sig, depth - 1)
    applications = [
        st.tuples(*[sub] * arity).map(lambda args, name=name: f"{name}({','.join(args)})")
        for name, arity in sig
        if arity > 0
    ]
    return st.one_of(leaves, *applications)


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


COMMANDS = ["factorize", "translations", "congruences", "gen-congruence", "quotient", "check-identity",
            "variety-check", "product", "subalgebra", "hom-check", "clone", "malcev"]


@pytest.mark.parametrize("command", COMMANDS)
@settings(
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(st.data())
def test_every_command_agrees_with_the_independent_checker(tmp_path, command, data):
    sig = SIGNATURES[-1] if command == "malcev" else data.draw(st.sampled_from(SIGNATURES))
    k = data.draw(st.integers(1, 2 if command in ("clone", "malcev") else 5))
    name = _write(tmp_path / "x.json", data.draw(algebras(sig, k)))
    element = st.integers(0, k - 1)
    if command == "factorize":
        args = [json.dumps(data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))]
    elif command == "gen-congruence":
        args = [json.dumps(data.draw(st.lists(st.lists(element, min_size=2, max_size=2), max_size=3)))]
    elif command == "quotient":
        labels = data.draw(st.lists(element, min_size=k, max_size=k))
        blocks = [[x for x in range(k) if labels[x] == b] for b in dict.fromkeys(labels)]
        args = ["|".join(",".join(map(str, block)) for block in data.draw(st.permutations(blocks)))]
    elif command == "check-identity":
        args = [data.draw(terms(sig)), data.draw(terms(sig))]
    elif command == "variety-check":
        identities = st.tuples(terms(sig), terms(sig)).map("=".join)
        args = data.draw(st.lists(identities, min_size=1, max_size=2))
    elif command == "subalgebra":
        has_constants = any(arity == 0 for _, arity in sig)
        seed = st.lists(element, min_size=0 if has_constants else 1, max_size=k, unique=True)
        args = [json.dumps(data.draw(seed))]
    elif command in ("product", "hom-check"):
        k2 = data.draw(st.integers(1, 5))
        args = [_write(tmp_path / "y.json", data.draw(algebras(sig, k2)))]
        if command == "hom-check":
            args.append(json.dumps(data.draw(st.lists(st.integers(0, k2 - 1), min_size=k, max_size=k))))
    else:
        args = []
    argv = [command, name, *args, "--json"]
    code, stdout = _run(argv)
    assert Checker().check(argv, code, stdout) is None, (argv, stdout)
