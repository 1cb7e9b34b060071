"""The command line as a user meets it: option help, the installed console
script, and the golden transcript under other str-hash seeds."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ualgebra.cli import _COMMANDS, _OPTIONS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "cli_golden.json").read_text())


def _run(*args, **env):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]), **env}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT)


def test_every_subcommand_help_describes_every_option(capsys):
    for command in _COMMANDS:
        with pytest.raises(SystemExit) as done:
            main([command, "-h"])
        assert done.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal width
        for flag, (dest, kind, _, help_text) in _OPTIONS.items():
            assert help_text, flag
            shown = flag if kind is None else f"{flag} {dest.upper()}"
            assert f"{shown} {help_text}" in text, (command, flag)


def test_the_console_script_prints_the_golden_fixtures():
    declared = re.search(r'(?m)^ualg = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text())
    assert declared, "pyproject.toml declares no ualg script"
    module, name = declared.groups()
    assert getattr(importlib.import_module(module), name) is main
    # what the installed wrapper does: call the target with argv from sys.argv, exit with its code
    done = _run("-c", f"import sys; from {module} import {name}; sys.exit({name}())", "fixtures", "--json")
    assert {"argv": ["fixtures", "--json"], "exit_code": done.returncode, "stdout": done.stdout} in GOLDEN
    assert done.returncode == 0 and done.stderr == ""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_the_golden_transcript_holds_under_other_hash_seeds(seed):
    # one process per seed runs every argv; a process per argv would cost seconds
    script = "import json, test_cli_golden as g; print(json.dumps([g.record(a) for a in g.ARGVS]))"
    done = _run("-c", script, PYTHONHASHSEED=seed)
    assert done.returncode == 0, done.stderr
    records = json.loads(done.stdout)
    assert len(records) == len(GOLDEN)
    for got, expected in zip(records, GOLDEN):
        assert got == expected, expected["argv"]
