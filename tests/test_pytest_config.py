"""The repository's pytest configuration reports a falsified hypothesis test as a failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_probe(x):
    assert x < 5
'''


def test_a_falsified_hypothesis_test_fails_with_its_example(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    config = ["-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider"]
    command = [sys.executable, "-m", "pytest", *config, str(probe)]
    run = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
