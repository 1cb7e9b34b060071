r"""Golden transcript of the command line: exit code and exact stdout per argv.

``cli_golden.json`` pins the bytes of the criterion-10 commands and of
``translations`` on four more fixtures (plain and ``--json``), and of
failing ``quotient`` calls whose partitions have two or more non-singleton
blocks, so that the reported violation (translation, table and pair)
cannot drift.  It also pins ``clone``, ``malcev`` and ``subalgebra`` on
fixtures whose operations are commutative, so that the closure's pruning of
symmetric argument tuples cannot change what it finds.  After a deliberate
output change, regenerate it from the repository root with

    PYTHONPATH=src:tests python -c "import json, test_cli_golden as g; g.GOLDEN.write_text(json.dumps([g.record(a) for a in g.ARGVS], indent=1) + '\n')"
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ualgebra.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

_CRITERION_10 = [
    ["check-identity", "Z3", "m(v1,v2)", "m(v2,v1)"],
    ["variety-check", "Z4", "m(v1,e)=v1", "m(v1,i(v1))=e"],
    ["eval", "Z4", "i(m(v1,v2))", "v1=1,v2=2"],
    ["hom-check", "Z4", "Z2", "[0,1,0,1]"],
    ["subalgebra", "Z6", "[2]"],
    ["product", "Z2", "Z2"],
    ["quotient", "Z4", "0,2|1,3"],
    ["congruences", "Z6"],
    ["gen-congruence", "Z4", "[[0,2]]"],
    ["translations", "Z3"],
    ["malcev", "2"],
    ["malcev", "Z4"],
    ["clone", "SL2"],
    ["factorize", "Z4", "[0,1,0,1]", "--oracle"],
    ["fixtures"],
]

# (fixture, partition): none is a congruence, each has two or more non-singleton blocks
_NOT_CONGRUENCES = [
    ("Z4", "0,3|1,2"),
    ("Z5", "0,2|1,3,4"),
    ("Z6", "0,3|1,2,4,5"),
    ("Z7", "0|1,2,4|3,5,6"),
    ("Z8", "0,4,7|1,3|2|5,6"),
    ("Z8", "0,5|1,6|2,3,7|4"),
    ("Sinf4", "0,2|1,3,4"),
    ("Sinf6", "0|1,2,3|4,5,6"),
    ("Sinf7", "0|1,6,7|2,3,5|4"),
    ("Sinf8", "0,6|1,3,7|2,4,5,8"),
]

_CONGRUENCES = [("Z6", "0,2,4|1,3,5"), ("Z8", "0,4|1,5|2,6|3,7"), ("Sinf8", "0,4|1,5|2,6|3,7|8")]

_TRANSLATIONS = [["translations", name] for name in ("V4", "Sinf3", "SL2", "Z6")]

_SYMMETRIC_CLOSURES = [
    ["clone", "Z5", "--json"],
    ["clone", "Sinf4", "--json"],
    ["malcev", "Sinf3", "--json"],
    ["subalgebra", "Sinf7", "[2,5]", "--json"],
]

ARGVS = (
    [argv + flags for argv in _CRITERION_10 + _TRANSLATIONS for flags in ([], ["--json"])]
    + [["quotient", name, part, "--json"] for name, part in _NOT_CONGRUENCES + _CONGRUENCES]
    + [["quotient", name, part] for name, part in _NOT_CONGRUENCES[::3]]
    + _SYMMETRIC_CLOSURES
)


def record(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue()}


def test_golden_file_lists_every_argv_once():
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == ARGVS
    assert GOLDEN.stat().st_size < 100_000


def test_cli_matches_the_golden_transcript():
    for entry in json.loads(GOLDEN.read_text()):
        assert record(entry["argv"]) == entry, entry["argv"]
