"""Fast damped Gauss-Newton CP tensor decomposition toolkit.

The package root holds the fit API: tensors, models, :func:`fit` and the
benchmark generators and scores.  The dense oracles (:mod:`cpfast.oracle`),
the identity checker (:mod:`cpfast.verify`), the Monte-Carlo sweep
(:mod:`cpfast.bench`) and the file format (:mod:`cpfast.cptn`) are imported
by name, so ``import cpfast`` loads none of them."""

from .tensor import (
    COMPLEX,
    DenseTensor,
    REAL,
    ScalarKindError,
    as_complex,
    fold,
    khatri_rao,
    khatri_rao_excl,
    unfold,
    vectorize,
)
from .kruskal import (
    GramCache,
    KruskalModel,
    build_gram_cache,
    complex_model,
    gradient,
    mttkrp,
    reconstruct,
    relative_error,
)
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
    "GramCache",
    "KruskalModel",
    "REAL",
    "ScalarKindError",
    "SingularKernelError",
    "SpectrumReport",
    "add_noise",
    "as_complex",
    "build_gram_cache",
    "collinearity_angles",
    "complex_model",
    "fit",
    "fold",
    "gen_collinear",
    "gradient",
    "khatri_rao",
    "khatri_rao_excl",
    "medsae",
    "medsae_pair",
    "mttkrp",
    "reconstruct",
    "relative_error",
    "spectrum",
    "unfold",
    "vectorize",
]
