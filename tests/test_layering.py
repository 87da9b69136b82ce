"""The modules a fit runs on import nothing from the dense oracles, the
identity checker, the Monte-Carlo sweep, the CLI, the generators or the file
format: dense oracles belong only to ``verify`` and the tests.

``import cpfast`` loads only the fit path and the generators and scores of
``synth``.  Neither it, a fit nor scoring one against its truth loads
``scipy.linalg`` or ``scipy.optimize``: the LAPACK routines and the
assignment come from scipy's extension modules, loaded by path
(:func:`cpfast.kruskal._load_scipy_extension`), and are the very objects
``scipy.linalg.get_lapack_funcs`` and ``scipy.optimize.linear_sum_assignment``
give.  Import state is checked in a fresh interpreter."""

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
    for name in ("getrf", "getrs", "posv", "pocon", "lange")
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


def test_import_loads_only_the_fit_api():
    """The package root imports no oracle, checker, sweep, file format or
    CLI module."""
    code = "import cpfast\nprint(*sorted(m for m in sys.modules if 'cpfast.' in m))"
    assert run_fresh(code) == [f"cpfast.{m}" for m in sorted(FIT_PATH + ("synth",))]


def test_cli_loads_no_dense_oracle():
    """Only ``cpfast verify`` imports the identity checker and its oracles."""
    code = "import cpfast.cli\nprint(*sorted(m for m in sys.modules if 'cpfast.' in m))"
    loaded = set(run_fresh(code))
    assert "cpfast.cli" in loaded and not {"cpfast.oracle", "cpfast.verify"} & loaded


def test_medsae_pair_loads_no_scipy_linalg_or_optimize():
    """Scoring a fit against its truth, real and complex, imports nothing
    more: the assignment is scipy's extension, loaded by path."""
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


@pytest.mark.parametrize("first", ["cpfast", "scipy.optimize"])
def test_assignment_is_scipys(first):
    """``synth`` matches with the object ``scipy.optimize`` exports,
    whichever of cpfast and scipy.optimize is imported first."""
    code = f"""
import {first}
import cpfast
import scipy.optimize
from cpfast.synth import LSAP
print(LSAP.linear_sum_assignment is scipy.optimize.linear_sum_assignment)
"""
    assert run_fresh(code) == ["True"]


# (extension, the module cpfast loaded by path, a check that the plain
# import's routine is scipy's).
FALLBACKS = [
    ("scipy.linalg._flapack", "kruskal.FLAPACK",
     "module.dgetrf is scipy.linalg.get_lapack_funcs(('getrf',), dtype=np.float64)[0]"),
    ("scipy.optimize._lsap", "synth.LSAP",
     "module.linear_sum_assignment is scipy.optimize.linear_sum_assignment"),
]


def test_loader_falls_back_to_plain_import(tmp_path):
    """Pointed at a directory with no file of the extension, the loader
    imports the package and its extension, whose routines are scipy's; each
    extension in its own fresh interpreter."""
    for name, loaded, same in FALLBACKS:
        package = name.rpartition(".")[0]
        code = f"""
import numpy as np
from cpfast import kruskal, synth
module = kruskal._load_scipy_extension({str(tmp_path)!r}, {name!r})
print({package!r} in sys.modules)
import {package}
print(module is {name}, module is not {loaded})
print({same})
"""
        assert run_fresh(code) == ["True"] * 4, name


@pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.int64])
def test_lapack_rejects_other_dtypes(dtype):
    with pytest.raises(TypeError, match="no LAPACK routine"):
        _lapack("getrf", np.dtype(dtype))
