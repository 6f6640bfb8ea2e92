"""The package's modules use one another through public names only, and at import time only.

A name that starts with '_' is its module's own; another module that
imports it couples to a detail that module may change.  Third-party
private imports are not checked here (scipy's ``_solve_toeplitz`` has its
own guard in test_gp.py).

A module imports its package siblings at its top, never inside a
function, so the imports form a graph without cycles that reading the
top of each module shows.  The only imports inside a function are the
standard-library ones that stay there to keep a cold start small,
``json`` and ``concurrent.futures``, each pinned to its function; the
package root's ``importlib.import_module`` is a call rather than an
import statement.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gpforecast"
MODULES = sorted(SRC.glob("*.py"))


def is_internal(node: ast.AST) -> bool:
    """Whether ``node`` is an import statement of a package module: relative, or of ``gpforecast`` by name."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "gpforecast"
    return isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "gpforecast" for alias in node.names)


def private_imports(source: str) -> list[str]:
    """Each package-internal import of a name that starts with '_', as 'line N: name'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and is_internal(node):
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def local_imports(source: str) -> list[str]:
    """Each import of a package module inside a function body, as 'line N: statement'."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = {node for function in functions for node in ast.walk(function) if is_internal(node)}
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in sorted(found, key=lambda node: node.lineno)]


def function_imports(source: str) -> list[str]:
    """Each module imported inside a function body, as 'function: module', naming the innermost function."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if function and isinstance(child, ast.Import):
                found.extend(f"{function}: {alias.name}" for alias in child.names)
            elif function and isinstance(child, ast.ImportFrom):
                found.append(f"{function}: {'.' * child.level}{child.module or ''}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(source), None)
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


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_imports_a_package_module_inside_a_function(path):
    assert local_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_package_imports_inside_functions_only():
    source = (
        "import importlib\n"
        "from .kernels import HyperParams\n"
        "def load(path):\n"
        "    import json\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
        "    from .bench import not_utf8\n"
        "    return importlib.import_module('gpforecast.bench')\n"
        "class Reader:\n"
        "    def read(self):\n"
        "        from gpforecast.priors import PriorSpec\n"
        "        def inner():\n"
        "            import gpforecast.metrics\n"
    )
    assert local_imports(source) == [
        "line 6: from .bench import not_utf8",
        "line 10: from gpforecast.priors import PriorSpec",
        "line 12: import gpforecast.metrics",
    ]


def test_the_only_imports_inside_functions_are_the_cold_start_ones():
    found = [f"{path.name} {entry}" for path in MODULES for entry in function_imports(path.read_text(encoding="utf-8"))]
    assert sorted(found) == [
        "bench.py emit_report: json",
        "bench.py parse_machine_report: json",
        "bench.py run_benchmark: concurrent.futures",
    ]


def test_the_check_lists_every_import_inside_a_function_under_its_innermost_function():
    source = (
        "import math\n"
        "from .kernels import HyperParams\n"
        "def load(path):\n"
        "    import json, csv\n"
        "    def inner():\n"
        "        from statistics import NormalDist\n"
        "    return json\n"
        "class Reader:\n"
        "    import io\n"
        "    def read(self):\n"
        "        from . import bench\n"
    )
    assert function_imports(source) == ["load: json", "load: csv", "inner: statistics", "read: ."]
