"""The modules a fit runs on import nothing from the dense oracles, the
identity checker, the Monte-Carlo sweep, the CLI, the generators or the file
format: dense oracles belong only to ``verify`` and the tests."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cpfast"
FIT_PATH = ("tensor", "kruskal", "hessian", "solver")
OUTSIDE = {"oracle", "verify", "bench", "cli", "synth", "cptn"}


def cpfast_imports(module):
    """The cpfast modules that ``module`` imports anywhere in its source
    (function-local imports too), relative or absolute."""
    path = PACKAGE / f"{module}.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cpfast" and len(parts) > 1:
                    yield parts[1]
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[0] != "cpfast":
                    continue
                parts = parts[1:]
            if parts:
                yield parts[0]
            else:
                yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("module", FIT_PATH)
def test_fit_path_imports_no_outside_module(module):
    found = sorted(set(cpfast_imports(module)) & OUTSIDE)
    assert not found, f"cpfast.{module} imports {found}"


def test_scanner_sees_every_import_form():
    """The scan finds what the checker and the CLI import, ``from .m import
    x`` and ``from . import m`` alike, so the test above cannot pass by
    seeing nothing."""
    assert {"oracle", "hessian", "solver"} <= set(cpfast_imports("verify"))
    assert {"bench", "cptn", "synth", "verify"} <= set(cpfast_imports("cli"))
