"""The repository's pytest configuration reports a falsified hypothesis test as a
failure, and dumps the stacks of a test that runs past its time."""

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


TIMED_PROBE = '''
import time


def test_probe(pytestconfig):
    assert float(pytestconfig.getini("faulthandler_timeout")) == {timeout}
    time.sleep({sleep})
'''


def _run_probe(tmp_path, source, *options):
    """Run the test file ``source`` under the repository's pytest configuration."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(source)
    config = ["-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider", *options]
    command = [sys.executable, "-m", "pytest", *config, str(probe)]
    return subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)


def test_a_falsified_hypothesis_test_fails_with_its_example(tmp_path):
    run = _run_probe(tmp_path, PROBE)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


def test_the_configuration_sets_a_faulthandler_timeout(tmp_path):
    run = _run_probe(tmp_path, TIMED_PROBE.format(timeout=300, sleep=0))
    assert run.returncode == 0, run.stdout + run.stderr
    assert "Timeout" not in run.stdout + run.stderr


def test_a_test_past_the_faulthandler_timeout_dumps_its_stack(tmp_path):
    run = _run_probe(tmp_path, TIMED_PROBE.format(timeout=1, sleep=2), "-o", "faulthandler_timeout=1")
    assert run.returncode == 0, run.stdout + run.stderr
    assert "Timeout (0:00:01)!" in run.stderr
    assert "most recent call first" in run.stderr and "test_probe.py" in run.stderr
