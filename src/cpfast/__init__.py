"""Fast damped Gauss-Newton CP tensor decomposition toolkit."""

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
from .oracle import OracleSizeError, phi_density
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
from .cptn import read_tensor, write_tensor
from .bench import RunRecord, run_grid, run_single
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "COMPLEX",
    "CollinearSpec",
    "DenseTensor",
    "FitConfig",
    "FitResult",
    "GramCache",
    "KruskalModel",
    "OracleSizeError",
    "REAL",
    "RunRecord",
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
    "phi_density",
    "read_tensor",
    "reconstruct",
    "relative_error",
    "run_grid",
    "run_single",
    "run_suite",
    "spectrum",
    "unfold",
    "vectorize",
    "write_tensor",
]
