"""Every Sphinx cross-reference in a cpfast docstring names something that
exists, so deleting or moving a function cannot leave a docstring pointing
at nothing."""

import ast
import importlib
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cpfast"
ROLE = re.compile(r":(?:func|class|mod):`~?([\w.]+)`")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def references(path):
    """(line, target) of each :func:, :class: or :mod: role in the file's
    docstrings."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node):
            line = node.body[0].lineno
            for target in ROLE.findall(ast.get_docstring(node)):
                yield line, target


def lookup(obj, dotted) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def resolves(module, target) -> bool:
    """``target`` from the module's own namespace, else as ``cpfast.<target>``
    (a leading ``cpfast.`` is optional), with the cpfast module it names
    imported first, so the answer does not depend on what ran before."""
    if lookup(module, target):
        return True
    dotted = target.removeprefix("cpfast.")
    head = dotted.split(".")[0]
    if (PACKAGE / f"{head}.py").is_file():
        importlib.import_module(f"cpfast.{head}")
    return lookup(importlib.import_module("cpfast"), dotted)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_cross_references_resolve(path):
    module = importlib.import_module(f"cpfast.{path.stem}".removesuffix(".__init__"))
    missing = [
        f"{path.name}:{line}: {target}"
        for line, target in references(path)
        if not resolves(module, target)
    ]
    assert not missing, missing
