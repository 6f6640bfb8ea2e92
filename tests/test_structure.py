"""The package's modules use one another through public names only.

A name that starts with '_' is its module's own; another module that
imports it couples to a detail that module may change.  Third-party
private imports are not checked here (scipy's ``_solve_toeplitz`` has its
own guard in test_gp.py).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gpforecast"
MODULES = sorted(SRC.glob("*.py"))


def private_imports(source: str) -> list[str]:
    """Each package-internal import of a name that starts with '_', as 'line N: name'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        internal = isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "gpforecast"
        )
        if internal:
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_the_package_has_its_modules():
    assert {"bench.py", "cli.py", "metrics.py", "forecasting.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_imports_another_modules_private_names(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_internal_private_imports_only():
    source = (
        "from __future__ import annotations\n"
        "from scipy.linalg._solve_toeplitz import levinson\n"
        "from .bench import CsvLayout, _read_rows\n"
        "from . import _private\n"
        "from gpforecast.forecasting import _SHARED_TERMS\n"
    )
    assert private_imports(source) == ["line 3: _read_rows", "line 4: _private", "line 5: _SHARED_TERMS"]
