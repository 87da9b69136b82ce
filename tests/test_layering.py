"""The modules a fit runs on import nothing from the dense oracles, the
identity checker, the Monte-Carlo sweep, the CLI, the generators or the file
format: dense oracles belong only to ``verify`` and the tests.

Neither ``import cpfast``, a fit nor scoring one against its truth loads
``scipy.linalg`` or ``scipy.optimize``: the LAPACK routines come from
scipy's extension module, loaded by path
(:func:`cpfast.kruskal._load_flapack`), and are the very objects
``scipy.linalg.get_lapack_funcs`` returns.  Import state is checked
in a fresh interpreter."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpfast.kruskal import _lapack

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "cpfast"
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


# Every (routine, dtype) pair the package asks ``kruskal._lapack`` for.
LAPACK_USED = [
    (name, dtype)
    for dtype in ("float64", "complex128")
    for name in ("getrf", "getrs", "potrf", "pocon", "lange", "potrs")
] + [("syevr", "float64"), ("heevr", "complex128")]

LOADED = "print(*[m in sys.modules for m in ('scipy.linalg', 'scipy.optimize')])"


def run_fresh(code: str) -> list:
    """The words ``code`` prints in a fresh interpreter that has this
    checkout's ``src`` first on its path."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.stdout.split()


def test_import_loads_no_scipy_linalg_or_optimize():
    assert run_fresh(f"import cpfast\n{LOADED}") == ["False", "False"]


def test_medsae_pair_loads_no_scipy_linalg_or_optimize():
    """Scoring a fit against its truth, real and complex, imports nothing
    more: the assignment is the package's own."""
    code = f"""
from cpfast import CollinearSpec, FitConfig, fit, gen_collinear
from cpfast.synth import medsae_pair
for kind in ("real", "complex"):
    truth, y = gen_collinear(CollinearSpec((8, 8, 8), 3, 0.5, 30.0, 1, kind))
    medsae_pair(truth, fit(y, FitConfig(rank=3, max_iters=5)).model)
{LOADED}"""
    assert run_fresh(code) == ["False", "False"]


def test_fits_load_no_scipy_linalg_or_optimize():
    """fLM and ALS-ls, real and complex, plain (20^3) and compressed (60^3,
    R=3) fits import nothing more: the fit path has no lazy scipy import."""
    code = f"""
from cpfast import CollinearSpec, FitConfig, fit, gen_collinear
for dims in ((20, 20, 20), (60, 60, 60)):
    for kind in ("real", "complex"):
        _, y = gen_collinear(CollinearSpec(dims, 3, 0.5, 30.0, 1, kind))
        for variant in ("auto", "als-ls"):
            result = fit(y, FitConfig(rank=3, variant=variant, max_iters=20))
            print("core" in [rec.stage for rec in result.trace])
{LOADED}"""
    words = run_fresh(code)
    assert words == ["False"] * 4 + ["True"] * 4 + ["False", "False"]


@pytest.mark.parametrize("first", ["cpfast", "scipy.linalg"])
def test_lapack_routines_are_scipys(first):
    """``_lapack`` gives the objects ``get_lapack_funcs`` returns, whichever
    of cpfast and scipy.linalg is imported first."""
    code = f"""
import numpy as np
import {first}
import cpfast
import scipy.linalg
from cpfast.kruskal import _lapack
for name, dtype in {LAPACK_USED!r}:
    ref = scipy.linalg.get_lapack_funcs((name,), dtype=np.dtype(dtype))[0]
    print(_lapack(name, np.dtype(dtype)) is ref)
"""
    assert run_fresh(code) == ["True"] * len(LAPACK_USED)


def test_loader_falls_back_to_plain_import(tmp_path):
    """Pointed at a directory with no ``_flapack`` file, the loader imports
    scipy.linalg's own extension, whose ``dgetrf`` is scipy's."""
    code = f"""
import numpy as np
from cpfast import kruskal
module = kruskal._load_flapack({str(tmp_path)!r})
print('scipy.linalg' in sys.modules)
import scipy.linalg
print(module is scipy.linalg._flapack, module is not kruskal.FLAPACK)
print(module.dgetrf is scipy.linalg.get_lapack_funcs(("getrf",), dtype=np.float64)[0])
"""
    assert run_fresh(code) == ["True"] * 4


@pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.int64])
def test_lapack_rejects_other_dtypes(dtype):
    with pytest.raises(TypeError, match="no LAPACK routine"):
        _lapack("getrf", np.dtype(dtype))
