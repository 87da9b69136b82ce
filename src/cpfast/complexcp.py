"""Complex-valued CP pipeline.

The underlying kernels are shared with the real path: Gram matrices are
Hermitian and all transpose/conjugate placements in :mod:`cpfast.kruskal` and
:mod:`cpfast.solver` are written so they are exact over the complex field.
This module is the complex-facing surface with explicit scalar-kind checks.
"""

from __future__ import annotations

import numpy as np

from .kruskal import KruskalModel, gradient
from .solver import FitConfig, FitResult, fit, flm_step
from .tensor import COMPLEX, DenseTensor


def _require_complex(y: DenseTensor, model: KruskalModel | None = None) -> None:
    if y.scalar_kind != COMPLEX:
        raise TypeError("expected a complex tensor")
    if model is not None and model.scalar_kind != COMPLEX:
        raise TypeError("expected a complex model")


def as_complex(y: DenseTensor) -> DenseTensor:
    """Promote a real tensor to the complex pipeline (explicit, never implicit)."""
    return DenseTensor(y.data.astype(np.complex128))


def complex_model(model: KruskalModel) -> KruskalModel:
    w = None if model.weights is None else model.weights.astype(np.complex128)
    return KruskalModel(
        [f.astype(np.complex128) for f in model.factors], w
    )


def complex_gradient(y: DenseTensor, model: KruskalModel) -> np.ndarray:
    """J^H vec(E): blocks vec(Y_(n)(KR of conjugated factors) - A^(n) Gamma^(n)^T)."""
    _require_complex(y, model)
    return gradient(y, model)


def complex_flm_step(
    y: DenseTensor, model: KruskalModel, mu: float, variant: str = "auto"
) -> np.ndarray:
    """One fast damped Gauss-Newton step (stacked factor change) for complex
    factors."""
    _require_complex(y, model)
    return flm_step(y, model, mu, variant)


def fit_complex(y: DenseTensor, config: FitConfig) -> FitResult:
    """Complex fit: identical damping, stopping, and normalization to the real path."""
    _require_complex(y)
    return fit(y, config)
