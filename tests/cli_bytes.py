"""Digests of the command line's output over the benchmark workloads, to compare two source trees.

Usage: ``python tests/cli_bytes.py SRC``, where SRC is the ``src``
directory of a checkout.  Both workloads of ``bench/workloads.py`` (read
from this checkout, never changed) are generated at seeds 1 and 2 into one
fixed work directory, so that the runs on two trees name the same algebra
files.  To their ops the script adds command lines that reach every payload
site of the ``--json`` writer.  Each command line runs through
``ualgebra.cli.main`` of SRC in this process, with and without ``--json``,
and the script prints one line per run: the sha256 of its stdout, stderr
and exit code (or the exception it raised), then the argv.  The last line
is the sha256 of all the lines before it.  The outputs for two trees are
the same exactly when every run gave the same bytes and exit code.
"""

import hashlib
import shlex
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKDIR = Path(tempfile.gettempdir()) / "ualgebra-cli-bytes"

# Both outcomes of hom-check and quotient, every mode of malcev and clone,
# and the other commands whose --json payload holds a tuple or a listing.
EXTRA = [
    ["hom-check", "Z4", "Z2", "[0,1,0,1]"],
    ["hom-check", "Z4", "Z2", "[0,1,1,0]"],
    ["subalgebra", "Sinf3", "[1]"],
    ["product", "Z2", "Z3"],
    ["quotient", "Z4", "0,2|1,3"],
    ["quotient", "Z4", "0,1|2|3"],
    ["malcev", "2"],
    ["malcev", "Z3"],
    ["malcev", "SL2"],
    ["malcev", "V4"],
    ["malcev", "3", "--max-clone", "5"],
    ["clone", "Z3"],
    ["clone", "SL2"],
    ["factorize", "Z4", "[0,1,0,1]", "--oracle"],
    ["translations", "Z3"],
    ["fixtures"],
    ["eval", "Z4", "m(v1,v2)", "v1=1,v2=2"],
]


class _Sink:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text: str) -> int:
        self.hash.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def _digest(run_cli, argv: list[str]) -> str:
    out, err = _Sink(), _Sink()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = f"exit {run_cli(argv)}"
        except SystemExit as exc:  # argparse refused the arguments
            result = f"exit {exc.code}"
        except Exception as exc:  # noqa: BLE001 - a raw exception is a difference to report
            result = f"raised {type(exc).__name__}: {exc}"
    return hashlib.sha256(f"{out.hash.hexdigest()} {err.hash.hexdigest()} {result}".encode()).hexdigest()


def argvs() -> list[list[str]]:
    """Every command line, without ``--json``, after writing the workloads' algebra files."""
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, generate

    shutil.rmtree(WORKDIR, ignore_errors=True)
    out = []
    for workload in WORKLOADS:
        for seed in (1, 2):
            plan = generate(workload, seed, WORKDIR / f"{workload}-{seed}")
            out += [[token for token in op["argv"] if token != "--json"] for op in plan["ops"]]
    return out + EXTRA


def main(src: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    from ualgebra import cli

    lines = []
    try:
        for argv in argvs():
            for run in (argv, [*argv, "--json"]):
                lines.append(f"{_digest(cli.main, run)} {shlex.join(run)}")
                print(lines[-1])
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(hashlib.sha256("\n".join(lines).encode()).hexdigest(), "all", len(lines), "runs")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
