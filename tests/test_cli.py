import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ualgebra import CarrierMap, Signature, fixtures, kernel, least_factorization
from ualgebra.cli import _COMMANDS, _OPTIONS, _plain_args, build_parser, main
from ualgebra.terms import MAX_TERM_DEPTH

from _oracles import planted_algebra

ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run_cli(argv + ["--json"])
    return code, json.loads(out)


def test_check_identity_pass():
    code, doc = run_json(["check-identity", "Z3", "m(v1,v2)", "m(v2,v1)"])
    assert code == 0
    assert doc["holds"] is True
    assert doc["class"] == "Linear"
    assert doc["schema"] == 1


def test_check_identity_fail():
    code, doc = run_json(["check-identity", "Sinf3", "m(v1,i(v1))", "e"])
    assert code == 1
    assert doc["holds"] is False
    assert doc["counterexample"] == {"v1": 3}


def test_check_identity_parse_error_exit_2(capsys):
    code = main(["check-identity", "Z3", "m(v1)", "e"])
    assert code == 2
    assert "m" in capsys.readouterr().err


def test_unknown_algebra_exit_2(capsys):
    assert main(["congruences", "NoSuch"]) == 2
    assert "unknown algebra" in capsys.readouterr().err


def test_fixture_registry_resolves_exactly_the_listed_names():
    names = fixtures.fixture_names()
    assert names == [f"Z{n}" for n in range(2, 9)] + ["V4", "SL2"] + [f"Sinf{n}" for n in range(2, 9)]
    assert [fixtures.get_fixture(name).size for name in names] == [*range(2, 9), 4, 2, *range(3, 10)]
    for name in ["Z1", "Z9", "Z02", "z4", "Sinf9", "V4 ", "Sinf1", ""]:
        assert fixtures.get_fixture(name) is None, name


def test_variety_check():
    axioms = [
        "m(v1,e)=v1",
        "m(e,v1)=v1",
        "m(v1,i(v1))=e",
        "m(i(v1),v1)=e",
        "m(v1,m(v2,v3))=m(m(v1,v2),v3)",
    ]
    code, doc = run_json(["variety-check", "Z4"] + axioms)
    assert code == 0 and doc["all_hold"] is True

    code, doc = run_json(["variety-check", "Sinf3"] + axioms)
    assert code == 1
    assert doc["first_failure"]["p"] == "m(v1,i(v1))"


def test_eval():
    code, doc = run_json(["eval", "Z4", "i(m(v1,v2))", "v1=1,v2=2"])
    assert code == 0 and doc["value"] == 1
    code, doc = run_json(["eval", "Z3", "e"])
    assert code == 0 and doc["value"] == 0


UNKNOWN_SYMBOL_FILE = {"signature": [{"symbol": "f", "arity": 1}], "size": 2, "ops": {"f": [0, 1], "g": [1, 0]}}
INPUT_ERRORS = {
    "value outside the carrier": (["eval", "Z4", "v1", "v1=9"], "OutOfCarrierError", "v1 assigned 9, carrier size 4"),
    "arguments without a comma": (
        ["eval", "Z4", "m(v1 v2)", "v1=1,v2=2"],
        "ParseError",
        "expected ',' or ')', found 'v2' (at position 5)",
    ),
    "table for a symbol outside the signature": (
        ["translations", "@"],
        "UnknownSymbolError",
        "tables for symbols not in signature: ['g']",
    ),
}


@pytest.mark.parametrize("argv, kind, message", INPUT_ERRORS.values(), ids=INPUT_ERRORS)
def test_input_errors_exit_2_in_json_and_text(argv, kind, message, tmp_path, capsys):
    if argv[-1] == "@":  # an algebra file
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(UNKNOWN_SYMBOL_FILE))
        argv = argv[:-1] + [str(path)]
    assert main(argv + ["--json"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"type": kind, "message": message}
    assert err == f"error: {message}\n"
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_hom_check():
    code, doc = run_json(["hom-check", "Z4", "Z2", "[0,1,0,1]"])
    assert code == 0 and doc["is_homomorphism"] is True
    code, doc = run_json(["hom-check", "Z4", "Z4", "[1,2,3,0]"])
    assert code == 1
    assert doc["counterexample"] == {"symbol": "e", "args": []}


def test_subalgebra():
    code, doc = run_json(["subalgebra", "Z6", "[2]"])
    assert code == 0 and doc["members"] == [0, 2, 4]


def test_product():
    code, doc = run_json(["product", "Z2", "Z2"])
    assert code == 0 and doc["size"] == 4


def test_quotient():
    code, doc = run_json(["quotient", "Z4", "0,2|1,3"])
    assert code == 0 and doc["quotient"]["size"] == 2
    code, doc = run_json(["quotient", "Z4", "0,1|2,3"])
    assert code == 1 and doc["violation"]["pair"] == [0, 1]


def test_congruences():
    code, doc = run_json(["congruences", "Z4"])
    assert code == 0 and doc["count"] == 3


def test_gen_congruence():
    code, doc = run_json(["gen-congruence", "Z4", "[[0,2]]"])
    assert code == 0 and doc["congruence"] == "0,2|1,3"


def test_translations():
    code, doc = run_json(["translations", "Z3"])
    assert code == 0
    assert doc["s1_size"] == 4 and doc["s_size"] == 6
    for member in doc["members"]:
        assert len(member["table"]) == 3


def test_malcev_enumerate():
    code, doc = run_json(["malcev", "2"])
    assert code == 0 and doc["count"] == 4 and doc["complete"] is True


def test_malcev_enumerate_cap_exit_3():
    code, doc = run_json(["malcev", "2", "--max-clone", "2"])
    assert code == 3 and doc["count"] == 2 and doc["complete"] is False


def test_malcev_of_an_empty_carrier_is_a_typed_usage_error(capsys):
    for size in ("0", "-1"):
        code, doc = run_json(["malcev", size])
        assert code == 2 and doc["error"] == {"type": "UAlgError", "message": "carrier size must be at least 1"}
        assert capsys.readouterr().err == "error: carrier size must be at least 1\n"


def test_malcev_algebra_modes():
    code, doc = run_json(["malcev", "Z3"])
    assert code == 0 and doc["has_malcev_term"] is True
    assert doc["group_malcev"] is not None
    code, doc = run_json(["malcev", "SL2"])
    assert code == 1 and doc["has_malcev_term"] is False
    assert doc["group_malcev"] is None


def test_clone():
    code, doc = run_json(["clone", "Z2"])
    assert code == 0 and doc["count"] == 8
    code, doc = run_json(["clone", "SL2"])
    assert code == 0 and doc["count"] == 7 and doc["has_malcev_term"] is False


def test_factorize():
    code, doc = run_json(["factorize", "Z4", "[0,1,0,1]"])
    assert code == 0
    assert doc["kernel"] == "0,2|1,3" and doc["y_size"] == 2

    code, doc = run_json(["factorize", "Z4", "[1,0,0,0]"])
    assert doc["kernel"] == "0|1|2|3" and doc["y_size"] == 4

    code, doc = run_json(["factorize", "Z4", "[0,0,0,0]"])
    assert doc["y_size"] == 1


def test_factorize_oracle():
    code, doc = run_json(["factorize", "Z4", "[0,1,0,1]", "--oracle"])
    assert code == 0
    assert doc["oracle"]["factorization_count"] == 2
    assert doc["oracle"]["least_precedes_all"] is True
    assert doc["oracle"]["greatest_dominates_all"] is True


def test_factorize_map_length_mismatch(capsys):
    assert main(["factorize", "Z4", "[0,1]"]) == 2
    capsys.readouterr()


def test_fixtures():
    code, doc = run_json(["fixtures"])
    assert code == 0
    names = [e["name"] for e in doc["fixtures"]]
    assert "Z2" in names and "V4" in names and "SL2" in names and "Sinf3" in names


def test_file_inputs(tmp_path):
    algebra_path = tmp_path / "z4.json"
    _, doc = run_json(["quotient", "Z4", "0,2|1,3"])
    algebra_path.write_text(json.dumps({"signature": [
        {"symbol": "m", "arity": 2}, {"symbol": "i", "arity": 1}, {"symbol": "e", "arity": 0}],
        "size": 2, "ops": {"m": [[0, 1], [1, 0]], "i": [0, 1], "e": 0}}))
    code, doc = run_json(["congruences", str(algebra_path)])
    assert code == 0 and doc["count"] == 2

    term_path = tmp_path / "term.txt"
    term_path.write_text("m(v1,v2)\n")
    code, doc = run_json(["check-identity", "Z3", f"@{term_path}", "m(v2,v1)"])
    assert code == 0 and doc["p"] == "m(v1,v2)"


def test_path_argument_errors_name_the_path_as_typed(tmp_path, monkeypatch, capsys):
    # Before, pathlib normalised the path, and the message read 'a/nope.txt'.
    monkeypatch.chdir(tmp_path)
    message = "[Errno 2] No such file or directory: './a//nope.txt'"
    assert main(["eval", "Z4", "@./a//nope.txt", "--json"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"type": "FileNotFoundError", "message": message}
    assert err == f"error: {message}\n"
    assert main(["eval", "Z4", "@./a//nope.txt"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_fixture_name_wins_over_a_file_of_that_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "Z4").write_text(json.dumps({"signature": [{"symbol": "f", "arity": 1}], "size": 2, "ops": {"f": [1, 0]}}))
    code, doc = run_json(["congruences", "Z4"])
    assert code == 0 and doc["count"] == 3  # the cyclic group Z4
    code, doc = run_json(["congruences", "./Z4"])
    assert code == 0 and doc["count"] == 2  # the file: a swap of two elements


def test_cap_flag_exit_3(capsys):
    assert main(["congruences", "Z6", "--max-partitions", "10"]) == 3
    capsys.readouterr()
    assert main(["translations", "Z3", "--max-semigroup", "2"]) == 3
    assert capsys.readouterr().err == "error: 3 translations found, cap 2 (--max-semigroup)\n"
    assert main(["clone", "Z3", "--max-clone", "5"]) == 3
    assert capsys.readouterr().err == "error: 6 ternary term operations found, cap 5 (--max-clone)\n"
    assert main(["product", "Z8", "Z8", "Z8", "Z8"]) == 3
    assert capsys.readouterr().err == "error: a table of 16777216 entries exceeds the fixed limit of 1048576 entries\n"


def test_undecodable_files_are_format_errors_naming_the_file(tmp_path):
    truncated, latin = tmp_path / "truncated.json", tmp_path / "latin.json"
    truncated.write_text('{"size": ')
    latin.write_bytes(b"\xff\xfe{}")
    code, doc = run_json(["translations", str(truncated)])
    assert code == 2 and doc["error"] == {
        "type": "FormatError",
        "message": f"bad algebra file '{truncated}': Expecting value: line 1 column 10 (char 9)",
    }
    not_utf8 = {"type": "FormatError", "message": f"file '{latin}' is not UTF-8: invalid start byte at byte 0"}
    for argv in (["translations", str(latin)], ["factorize", "Z4", f"@{latin}"], ["eval", "Z4", f"@{latin}", "v1=0"]):
        code, doc = run_json(argv)
        assert code == 2 and doc["error"] == not_utf8, argv
    # JSON syntax errors keep their type; in an @path argument the message names the file
    map_file = tmp_path / "map.json"
    map_file.write_text("[0,")
    for text, what in (("[0,", "map"), (f"@{map_file}", f"map file '{map_file}'")):
        code, doc = run_json(["factorize", "Z4", text])
        assert code == 2 and doc["error"] == {
            "type": "UAlgError", "message": f"bad {what}: Expecting value: line 1 column 4 (char 3)"
        }


def test_json_syntax_errors_in_path_arguments_name_the_file(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("[[0,")
    syntax = "Expecting value: line 1 column 5 (char 4)"
    for argv, what in (
        (["factorize", "Z4", f"@{broken}"], "map"),
        (["hom-check", "Z4", "Z4", f"@{broken}"], "map"),
        (["subalgebra", "Z4", f"@{broken}"], "seed"),
        (["gen-congruence", "Z4", f"@{broken}"], "pairs"),
    ):
        code, doc = run_json(argv)
        assert code == 2 and doc["error"] == {"type": "UAlgError", "message": f"bad {what} file '{broken}': {syntax}"}
        code, doc = run_json([*argv[:-1], "[[0,"])
        assert code == 2 and doc["error"] == {"type": "UAlgError", "message": f"bad {what}: {syntax}"}


def test_clone_cap_counts_the_projections(tmp_path, capsys):
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps(
        {"signature": [{"symbol": "u", "arity": 1}], "size": 2, "ops": {"u": [0, 1]}}
    ))
    assert main(["clone", str(identity), "--max-clone", "0"]) == 3
    assert capsys.readouterr().err == "error: 1 ternary term operations found, cap 0 (--max-clone)\n"
    assert main(["clone", str(identity), "--max-clone", "3"]) == 0
    capsys.readouterr()
    assert main(["clone", "SL2", "--max-clone", "1"]) == 3
    assert capsys.readouterr().err == "error: 2 ternary term operations found, cap 1 (--max-clone)\n"


def test_human_output_readable():
    code, out = run_cli(["check-identity", "Z3", "m(v1,v2)", "m(v2,v1)"])
    assert code == 0 and out.startswith("PASS")
    code, out = run_cli(["translations", "Z2"])
    assert "|S| = 2" in out
    assert "e ⇒ [0,1]" in out  # word ⇒ table dump lines
    assert "m@1(1) ⇒ [1,0]" in out


def test_clone_witness_matches_has_malcev_term():
    from ualgebra import cyclic_group, has_malcev_term

    code, doc = run_json(["clone", "Z3"])
    assert code == 0 and doc["witness"] == list(has_malcev_term(cyclic_group(3)).witness)


def test_json_booleans_rejected_in_algebra_files(tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(
        {"signature": [{"symbol": "f", "arity": 1}], "size": True, "ops": {"f": [False]}}
    ))
    code, doc = run_json(["eval", str(path), "f(v1)", "v1=0"])
    assert code == 2 and doc["error"]["type"] == "FormatError"
    path.write_text(json.dumps(
        {"signature": [{"symbol": "f", "arity": True}], "size": 2, "ops": {"f": [0, 1]}}
    ))
    code, doc = run_json(["eval", str(path), "f(v1)", "v1=0"])
    assert code == 2 and doc["error"]["type"] == "FormatError"
    capsys.readouterr()


def test_algebra_files_with_a_signature_or_ops_of_the_wrong_json_type_are_format_errors(tmp_path, capsys):
    unary = [{"symbol": "f", "arity": 1}]
    path = tmp_path / "a.json"
    for signature, ops in ((5, {}), (unary, ["f"]), (unary, "f"), ([], [])):
        path.write_text(json.dumps({"signature": signature, "size": 2, "ops": ops}))
        code, doc = run_json(["congruences", str(path)])
        assert code == 2 and doc["error"]["type"] == "FormatError", (signature, ops)
    capsys.readouterr()


def test_algebra_files_with_a_symbol_named_like_a_variable_are_format_errors(tmp_path, capsys):
    """A constant ``v1`` would be read as a variable, a binary ``v1(v2,v3)`` not at all."""
    path = tmp_path / "v.json"
    for symbol, arity, table, argv in (
        ("v1", 0, 0, ["check-identity", "v1", "v2"]),
        ("v12", 2, [[0, 1], [1, 0]], ["eval", "v12(v2,v3)", "v2=0,v3=1"]),
    ):
        signature = [{"symbol": symbol, "arity": arity}]
        path.write_text(json.dumps({"signature": signature, "size": 2, "ops": {symbol: table}}))
        code, doc = run_json([argv[0], str(path), *argv[1:]])
        assert (code, doc["error"]["type"]) == (2, "FormatError")
        assert doc["error"]["message"] == f"symbol name '{symbol}' is a variable name"
    path.write_text(json.dumps({"signature": [{"symbol": "v0", "arity": 0}], "size": 2, "ops": {"v0": 1}}))
    code, doc = run_json(["eval", str(path), "v0", ""])  # v0 is no variable name: a constant may take it
    assert (code, doc["value"]) == (0, 1)
    capsys.readouterr()


def test_algebras_past_the_fixed_limits_exit_3_before_allocating(tmp_path, capsys):
    wide = [{"symbol": "f", "arity": 10**10}]
    constant = [{"symbol": "c", "arity": 0}]
    cases = (  # signature, carrier size, ops, commands that allocated past the limit or printed past it
        (wide, 2, {"f": [0, 1]}, ["translations"]),
        (wide, 1, {"f": [0]}, ["translations", "congruences", "clone"]),
        (constant, 10**12, {"c": 0}, ["translations", "gen-congruence", "eval"]),
        (constant, 5_000_000, {"c": 0}, ["translations"]),
        ([{"symbol": "f", "arity": 21}], 2, {"f": []}, ["congruences"]),
        ([{"symbol": "f", "arity": 2}], 2000, {"f": []}, ["congruences"]),
    )
    extra = {"gen-congruence": ["[[0,1]]"], "eval": ["c"]}
    tracemalloc.start()
    try:
        for i, (signature, size, ops, commands) in enumerate(cases):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps({"signature": signature, "size": size, "ops": ops}))
            for command in commands:
                code, doc = run_json([command, str(path), *extra.get(command, [])])
                assert code == 3 and doc["error"]["type"] == "SizeCapExceeded", (i, command)
                assert "limit of" in doc["error"]["message"], (i, command)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    capsys.readouterr()


def test_json_booleans_rejected_in_integer_arguments(capsys):
    code, doc = run_json(["hom-check", "Z2", "Z2", "[false,true]"])
    assert code == 2 and doc["error"]["type"] == "UAlgError"
    code, doc = run_json(["gen-congruence", "Z4", "[[true,2]]"])
    assert code == 2 and doc["error"]["type"] == "UAlgError"
    capsys.readouterr()


def test_eval_rejects_assignment_values_that_are_not_ascii_decimal(capsys):
    for value in ("abc", "٣", "1_0"):  # ٣ is ARABIC-INDIC DIGIT THREE
        code, doc = run_json(["eval", "Z4", "v1", f"v1={value}"])
        assert code == 2 and doc["error"]["type"] == "UAlgError"
        assert f"v1={value}" in doc["error"]["message"]
    code, doc = run_json(["eval", "Z4", "v1", "v١=1"])  # variable names take ASCII digits too
    assert code == 2 and doc["error"]["type"] == "UAlgError"
    capsys.readouterr()


def test_quotient_rejects_partition_elements_that_are_not_ascii_decimal(capsys):
    code, doc = run_json(["quotient", "Z4", "0,٢|1,3"])  # ٢ is ARABIC-INDIC DIGIT TWO
    assert code == 2 and doc["error"]["type"] == "PartitionError"
    capsys.readouterr()


def test_malcev_enumerates_only_for_ascii_decimal_sizes(capsys):
    code, doc = run_json(["malcev", "٢"])  # not a size, so read as an algebra name
    assert code == 2 and doc["error"]["type"] == "UAlgError"
    assert "unknown algebra" in doc["error"]["message"]
    capsys.readouterr()


def test_factorize_ignores_the_semigroup_cap_that_translations_keeps(tmp_path, capsys):
    code, doc = run_json(["factorize", "Z8", "[0,1,0,1,0,1,0,1]", "--max-semigroup", "1"])
    assert code == 0 and doc["kernel"] == "0,2,4,6|1,3,5,7"

    X, planted = planted_algebra(random.Random(12), 12, 3, Signature([("f", 2)]))
    f = [b % 2 for b in planted]
    path = tmp_path / "planted.json"
    path.write_text(json.dumps(X.to_json_dict()))
    code, doc = run_json(["factorize", str(path), json.dumps(f), "--max-semigroup", "1"])
    expected = kernel(least_factorization(X, CarrierMap(12, 2, tuple(f))).g)
    assert code == 0 and doc["kernel"] == expected.format()
    assert expected.num_blocks < 12

    assert main(["translations", "Z3", "--max-semigroup", "1"]) == 3
    capsys.readouterr()


# Stand-in positionals that satisfy each command's parser.
POSITIONALS = {
    "check-identity": ["x", "x", "x"],
    "variety-check": ["x", "x"],
    "eval": ["x", "x"],
    "hom-check": ["x", "x", "x"],
    "subalgebra": ["x", "x"],
    "product": ["x"],
    "quotient": ["x", "x"],
    "congruences": ["x"],
    "gen-congruence": ["x", "x"],
    "translations": ["x"],
    "malcev": ["x"],
    "clone": ["x"],
    "factorize": ["x", "x"],
    "fixtures": [],
}


class _Parsed(Exception):
    """Raised, in place of running a command, with the arguments ``main`` parsed."""


def _stand_in(args):
    raise _Parsed(vars(args))


def _parsed(parse, argv):
    """stdout, stderr and the parsed arguments or the SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except _Parsed as exc:
            result = exc.args[0]
        except SystemExit as exc:
            result = ("exit", exc.code)
    return out.getvalue(), err.getvalue(), result


def _sampled_argvs(count):
    """Seeded argvs around the plain form: positionals then options, and
    every token that takes a command line off it."""
    rng = random.Random(14)
    commands = [*_COMMANDS, "bogus"]
    positionals = ["x"] * 40 + ["", "@f", "p=q", "-1", "-x y", "-h", "--"]
    flags = [*_OPTIONS] * 12 + [f"{flag}=7" for flag in _OPTIONS] + [flag[:-2] for flag in _OPTIONS]
    flags += ["--max", "--nope", "-h", "--", "x"]
    values = ["0", "7", " 7", "+3", "1_000"] * 6 + ["two", "", "-1", "-x y", "9" * 5000]
    argvs = []
    for _ in range(count):
        command = rng.choice(commands)
        size = len(POSITIONALS.get(command, ())) + rng.choice([0, 0, 0, 1, -1])
        argv = [command, *rng.choices(positionals, k=max(size, 0))]
        for flag in rng.choices(flags, k=rng.randint(0, 3)):
            argv.append(flag)
            if flag not in ("--json", "--oracle") or rng.random() < 0.1:
                argv.append(rng.choice(values))
        if rng.random() < 0.05:
            rng.shuffle(argv)
        argvs.append(argv)
    return argvs


def test_plain_command_lines_parse_as_argparse_does(monkeypatch):
    for name, (_, help_text, positionals) in list(_COMMANDS.items()):
        monkeypatch.setitem(_COMMANDS, name, (_stand_in, help_text, positionals))
    fixed = [[], ["-h"], ["bogus"], ["fact"], ["--json"], ["--json", "fixtures"]]
    tails = [["--json"], ["--nope"], ["--threads", "two"], ["extra"]]
    for command in _COMMANDS:
        given = [command, *POSITIONALS[command]]
        assert _plain_args(given + ["--json"]) is not None, given
        fixed += [[command, "-h"], [command], *(given + tail for tail in tails)]
    plain = 0
    for columns, argvs in (("40", fixed), ("120", fixed + _sampled_argvs(1000))):
        monkeypatch.setenv("COLUMNS", columns)
        parser = build_parser()
        for argv in argvs:
            expected = _parsed(parser.parse_args, argv)
            assert _parsed(main, argv) == expected, argv
            args = _plain_args(argv)
            if args is not None:
                plain += 1
                assert expected == ("", "", vars(args)), argv
    assert plain > 250
    assert "required: command" in _parsed(main, [])[1]
    assert "argument command: invalid choice: 'bogus'" in _parsed(main, ["bogus"])[1]


def _run(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT)


def test_ualg_runs_as_a_process():
    golden = json.loads((ROOT / "tests" / "cli_golden.json").read_text())
    done = _run("-m", "ualgebra.cli", "fixtures", "--json")
    assert {"argv": ["fixtures", "--json"], "exit_code": done.returncode, "stdout": done.stdout} in golden

    plain = "import sys; from ualgebra.cli import main; main(['congruences', 'Z4', '--json', '--max-partitions', '9'])"
    done = _run("-c", plain + "; print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    assert done.returncode == 0 and done.stdout.endswith("}\n[]\n")

    done = _run("-m", "ualgebra.cli", "factorize")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: ualg factorize [-h]")
    assert done.stderr.endswith("error: the following arguments are required: algebra, map\n")


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_a_closed_stdout_exits_141_without_a_traceback(mode, buffered):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    try:
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=str(ROOT / "src"), **({} if buffered else {"PYTHONUNBUFFERED": "1"}))
        argv = [sys.executable, "-m", "ualgebra.cli", "translations", "Sinf3", *mode]
        done = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, "")


def test_malcev_refuses_sizes_whose_table_exceeds_the_table_limit(capsys):
    tracemalloc.start()
    try:
        # 10**7 comes first: it raised a raw OverflowError without allocating
        for size in ("10000000", "2000", "102"):
            code, doc = run_json(["malcev", size, "--max-clone", "1"])
            assert code == 3 and doc["error"]["type"] == "SizeCapExceeded", size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    capsys.readouterr()


def _nested(levels):
    return "i(" * levels + "v1" + ")" * levels


def test_terms_nested_to_the_depth_limit_run():
    deep = _nested(MAX_TERM_DEPTH)
    code, doc = run_json(["eval", "Z4", deep, "v1=1"])
    assert code == 0 and doc["value"] == 1 and doc["term"] == deep
    code, doc = run_json(["check-identity", "Z4", deep, "v1"])
    assert code == 0 and doc["holds"] is True
    code, doc = run_json(["variety-check", "Z4", f"{deep}=v1"])
    assert code == 0 and doc["all_hold"] is True


def test_terms_nested_past_the_depth_limit_are_parse_errors(capsys):
    for levels in (MAX_TERM_DEPTH + 1, 1000):
        deep = _nested(levels)
        for argv in (
            ["eval", "Z4", deep, "v1=1"],
            ["check-identity", "Z4", "v1", deep],
            ["variety-check", "Z4", f"{deep}=v1"],
        ):
            code, doc = run_json(argv)
            assert code == 2 and doc["error"]["type"] == "ParseError", (levels, argv[0])
            assert f"deeper than {MAX_TERM_DEPTH} levels" in doc["error"]["message"]
    capsys.readouterr()


def test_json_nested_too_deeply_is_a_format_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for argv in (
        ["quotient", str(deep), "0|1"],
        ["factorize", "Z4", f"@{deep}"],
        ["gen-congruence", "Z4", f"@{deep}"],
    ):
        code, doc = run_json(argv)
        assert code == 2 and doc["error"]["type"] == "FormatError", argv[0]
        assert "nested too deeply" in doc["error"]["message"]
    capsys.readouterr()


def test_negative_caps_are_usage_errors(capsys):
    for flag, argv in (
        ("--max-partitions", ["congruences", "Z4"]),
        ("--max-semigroup", ["translations", "Z3"]),
        ("--max-clone", ["clone", "Z3"]),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "-1"])
        assert exc.value.code == 2
        assert f"argument {flag}: cap must not be negative" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(argv + [flag, "x"])
        assert f"argument {flag}: invalid int value: 'x'" in capsys.readouterr().err
    assert main(["translations", "Z2", "--max-semigroup", "0"]) == 3  # zero is a cap, not a usage error
    capsys.readouterr()


def test_eval_rejects_a_variable_assigned_twice(capsys):
    code, doc = run_json(["eval", "Z4", "v1", "v1=1,v1=2"])
    assert code == 2 and "v1 assigned twice" in doc["error"]["message"]
    assert run_cli(["eval", "Z4", "m(v1,v2)", "v2=1,v1=2"]) == (0, "3\n")
    capsys.readouterr()


def test_malcev_listings_past_the_table_limit_stop_before_enumerating(capsys):
    tracemalloc.start()
    try:
        for size in ("3", "4", "20"):
            code, doc = run_json(["malcev", size])
            assert code == 3 and doc["error"]["type"] == "SizeCapExceeded", size
            assert "--max-clone" in doc["error"]["message"] and "1048576" in doc["error"]["message"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    code, doc = run_json(["malcev", "3", "--max-clone", "100"])
    assert code == 3 and doc["count"] == 100 and doc["complete"] is False
    capsys.readouterr()


def test_decimals_past_the_integer_string_limit_exit_2_with_typed_errors(tmp_path, capsys):
    long = "1" * 5000  # past Python's default limit of 4,300 digits for int()
    algebra = tmp_path / "long.json"
    algebra.write_text('{"signature": [], "size": ' + long + ', "ops": {}}')
    cases = [
        (["malcev", long], "UAlgError"),
        (["eval", "Z4", "v1", "v1=" + long], "UAlgError"),
        (["eval", "Z4", "v1", f"v{long}=1"], "UAlgError"),
        (["check-identity", "Z4", "v" + long, "v1"], "ParseError"),
        (["quotient", "Z4", long], "PartitionError"),
        (["congruences", str(algebra)], "FormatError"),
        (["factorize", "Z4", f"[0,{long},0,1]"], "FormatError"),
        (["hom-check", "Z4", "Z2", f"[0,1,0,{long}]"], "FormatError"),
        (["gen-congruence", "Z4", f"[[0,{long}]]"], "FormatError"),
    ]
    for argv, kind in cases:
        code, doc = run_json(argv)
        assert (code, doc["error"]["type"]) == (2, kind), argv[:2]
        assert "digits" in doc["error"]["message"], argv[:2]
    code, doc = run_json(["factorize", "Z4", "[0,1,0"])  # malformed JSON keeps its message
    assert doc["error"]["message"].startswith("bad map: Expecting ',' delimiter")
