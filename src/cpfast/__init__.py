"""Fast damped Gauss-Newton CP tensor decomposition toolkit.

The package root holds the fit API: tensors, models, :func:`fit` and the
benchmark generators and scores.  The kernels a program may call on a
model, :func:`cpfast.kruskal.build_gram_cache` and the unfoldings of
:mod:`cpfast.tensor`, are imported from their modules.  The dense oracles
(:mod:`cpfast.oracle`), the identity checker (:mod:`cpfast.verify`), the
Monte-Carlo sweep (:mod:`cpfast.bench`) and the file format
(:mod:`cpfast.cptn`) are imported by name, so ``import cpfast`` loads none
of them."""

from .tensor import COMPLEX, REAL, DenseTensor, ScalarKindError
from .kruskal import KruskalModel, reconstruct, relative_error
from .hessian import SingularKernelError
from .solver import FitConfig, FitResult, fit
from .synth import (
    CollinearSpec,
    SpectrumReport,
    add_noise,
    collinearity_angles,
    gen_collinear,
    medsae,
    medsae_pair,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "COMPLEX",
    "CollinearSpec",
    "DenseTensor",
    "FitConfig",
    "FitResult",
    "KruskalModel",
    "REAL",
    "ScalarKindError",
    "SingularKernelError",
    "SpectrumReport",
    "add_noise",
    "collinearity_angles",
    "fit",
    "gen_collinear",
    "medsae",
    "medsae_pair",
    "reconstruct",
    "relative_error",
    "spectrum",
]
