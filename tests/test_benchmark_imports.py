"""Every name that the benchmark scripts import from cpfast still exists, so
a removal from the package cannot break the benchmark unnoticed."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def cpfast_imports():
    """(script, module, name) for each ``from cpfast... import name``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module.split(".")[0] == "cpfast"
            ):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def resolves(module, name) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_imports_resolve():
    found = list(cpfast_imports())
    assert found, f"no cpfast imports found under {PERFBENCH}"
    missing = [
        f"{script}: from {module} import {name}"
        for script, module, name in found
        if not resolves(module, name)
    ]
    assert not missing, missing
