"""The package runs on numpy and the standard library alone.

``[project].dependencies`` lists numpy only; scipy and networkx are test
extras, the reference oracles of ``tests/test_topology_*.py``.  These
tests keep it so: every import under ``src/`` names the standard
library, numpy or the package itself, and importing the runtime loads
neither oracle (each costs a process start-up time and memory).
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNTIME = {"numpy"}


def _top_level_imports(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_under_src_is_stdlib_numpy_or_the_package():
    allowed = set(sys.stdlib_module_names) | RUNTIME | {"repro"}
    strays = [
        f"{path.relative_to(ROOT)}:{line} imports {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _top_level_imports(path)
        if name not in allowed
    ]
    assert strays == []


def test_the_declared_dependencies_are_the_runtime_ones():
    text = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r"^dependencies = \[(.*)\]$", text, re.M).group(1)
    names = {re.match(r'"([A-Za-z0-9_-]+)', d.strip()).group(1) for d in declared.split(",")}
    assert names == RUNTIME


def test_importing_the_runtime_loads_neither_scipy_nor_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (
        "import sys, repro.net, repro.experiments; "
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
