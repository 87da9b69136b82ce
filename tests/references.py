"""References that only the tests use.

:func:`dense_mttkrp` is the definition that the fit's MTTKRPs are checked
against, and :func:`last_mttkrp` the fit's own mode-N MTTKRP, for a test
that hands a start to a loop or to a scorer.  :func:`phi_density` and
:func:`assemble_phi` are the paper's small system matrices Phi_1 = I + Psi K
and Phi_2 = K^{-1} + Psi, densely, and their exact densities.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg

import cpfast.kruskal
from cpfast.oracle import kernel_inverse, kernel_matrix
from cpfast.tensor import _khatri_rao_rows, khatri_rao_excl, unfold


def dense_mttkrp(y, model, n):
    """The mode-n (1-based) MTTKRP of ``model`` on ``y`` by its definition,
    Y_(n) conj(KR(A^(m), m != n)), from the unfolding and the Khatri-Rao
    product in descending mode order."""
    return unfold(y, n) @ khatri_rao_excl(model.factors, n).conj()


def last_mttkrp(y, model):
    """The mode-N MTTKRP of ``model`` on ``y`` as the fit forms it: the
    kernel ``_last_mttkrp`` on the Khatri-Rao product of the transposed
    factors 1..N-1, so a start handed to a loop carries the bits the loop
    would form.  The kernel is looked up in ``cpfast.kruskal`` at each
    call, so a test that counts the passes over Y there counts this one."""
    rows = [f.T for f in model.factors]
    return cpfast.kruskal._last_mttkrp(y, _khatri_rao_rows(rows[:-1]).mT)


def phi_density(n_modes: int, rank: int, variant: str) -> Fraction:
    """Exact density of the small system matrix.

    ``variant`` is "phi1" (I + Psi K, the core the solver factors) or "phi2"
    (K^{-1} + Psi, requires invertible K).
    """
    if n_modes < 2 or rank < 1:
        raise ValueError("need N >= 2 and R >= 1")
    r2 = rank * rank
    if variant == "phi1":
        return Fraction((n_modes - 1) * r2 + 1, n_modes * r2)
    if variant == "phi2":
        return Fraction(r2 + n_modes - 1, n_modes * r2)
    raise ValueError(f"unknown variant {variant!r}")


def assemble_phi(cache, mu: float, variant: str) -> np.ndarray:
    """The paper's unscaled Phi_1 = I + Psi K or Phi_2 = K^{-1} + Psi, with
    Psi = blkdiag((Gamma^(n) + mu I)^{-1} kron C^(n)), densely, from the
    Gram cache ``cache``."""
    if variant not in ("phi1", "phi2"):
        raise ValueError(f"unknown variant {variant!r}")
    eye = np.eye(cache.C.shape[-1])
    psi = scipy.linalg.block_diag(
        *[
            np.kron(np.linalg.inv(g + mu * eye), c)
            for g, c in zip(cache.gamma_excl, cache.C)
        ]
    )
    if variant == "phi2":
        return kernel_inverse(cache) + psi
    return np.eye(psi.shape[0]) + psi @ kernel_matrix(cache)
