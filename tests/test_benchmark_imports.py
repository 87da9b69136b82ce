"""Every name that the benchmark scripts and the tools import from cpfast
still exists, so a removal from the package cannot break the benchmark or
the digest tools unnoticed."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT_DIRS = (ROOT / "perfbench", ROOT / "tools")


def cpfast_imports(directory):
    """(script, module, name) for each ``from cpfast... import name`` in the
    scripts of ``directory``."""
    for path in sorted(directory.glob("*.py")):
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
    found = []
    for directory in SCRIPT_DIRS:
        imports = list(cpfast_imports(directory))
        assert imports, f"no cpfast imports found under {directory}"
        found += imports
    missing = [
        f"{script}: from {module} import {name}"
        for script, module, name in found
        if not resolves(module, name)
    ]
    assert not missing, missing
