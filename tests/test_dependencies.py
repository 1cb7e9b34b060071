"""The package stays dependency-free: standard library and relative imports only,
and importing the command line loads no module it does not use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def absolute_imports():
    """(file name, line, module) of every absolute import under src/ualgebra."""
    sources = sorted((ROOT / "src" / "ualgebra").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                yield path.name, node.lineno, module


def test_src_imports_only_the_standard_library_and_itself():
    for name, line, module in absolute_imports():
        assert module.split(".")[0] in sys.stdlib_module_names, f"{name}:{line} imports {module}"


def test_src_does_not_import_pathlib():
    # Files are read with os.stat, os.open and os.read; pathlib's import alone costs milliseconds per run.
    for name, line, module in absolute_imports():
        assert module.split(".")[0] != "pathlib", f"{name}:{line} imports {module}"


def test_the_command_line_imports_no_pathlib_dataclasses_or_inspect():
    # -S: site-packages .pth hooks may import pathlib before ualgebra does.  Value records are
    # NamedTuples, so nothing imports dataclasses, nor the inspect that dataclasses imports.
    unused = "{'pathlib', 'urllib.parse', 'fnmatch', 'dataclasses', 'inspect'}"
    code = f"import sys, ualgebra.cli; print(sorted({unused} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"(?m)^dependencies = \[\]$", text)
