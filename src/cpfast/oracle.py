"""Dense references for the fast path of :mod:`cpfast.hessian`,
:func:`cpfast.solver.flm_step` and :func:`cpfast.kruskal.second_order_term`:
Jacobian, Hessian, H = G + Z K Z^H, K and its closed-form inverse, the dense
dGN step, J^H M''(v, v), and the paper's Phi_1 = I + Psi K and Phi_2 =
K^{-1} + Psi with their densities.  Every right-hand side is projected by
the dense Jacobian, so no reference reuses the MTTKRP or gradient kernels it
checks.  Only :mod:`cpfast.verify` and the tests use them; the size guard
keeps them at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hessian import SingularKernelError
from .kruskal import (
    GramCache,
    KruskalModel,
    build_gram_cache,
    model_from_vector,
    reconstruct,
)
from .tensor import DenseTensor, _check_mode, khatri_rao_excl

ORACLE_MAX_ENTRIES = 10**7
ORACLE_MAX_RT = 3000


class OracleSizeError(ValueError):
    """Dense-oracle request exceeds the desk-scale guard."""


def _guard(model: KruskalModel) -> None:
    j = int(np.prod(model.dims, dtype=np.int64))
    rt = model.rank * sum(model.dims)
    if j * rt > ORACLE_MAX_ENTRIES or rt > ORACLE_MAX_RT:
        raise OracleSizeError(
            f"dense oracle refused: J*RT = {j * rt}, RT = {rt}"
        )


def commutation(i: int, j: int) -> np.ndarray:
    """Permutation matrix P with P vec(X^T) = vec(X) for every I x J matrix X."""
    if i < 1 or j < 1:
        raise ValueError("commutation dimensions must be positive")
    p = np.zeros((i * j, i * j))
    rows = np.arange(i * j)
    # row index r = a + i*b addresses vec(X)[a, b]; source is vec(X^T)[b + j*a].
    a, b = rows % i, rows // i
    p[rows, b + j * a] = 1.0
    return p


def mode_commutation(dims, n: int) -> np.ndarray:
    """Permutation Q_n with Q_n vec(unfold(Y, n)) = vec(Y) for all Y of ``dims``."""
    dims = tuple(int(d) for d in dims)
    _check_mode(len(dims), n)
    lead = int(np.prod(dims[: n - 1], dtype=np.int64))
    trail = int(np.prod(dims[n:], dtype=np.int64))
    return np.kron(np.eye(trail), commutation(lead, dims[n - 1]))


def jacobian(model: KruskalModel) -> np.ndarray:
    """Dense Jacobian of vec(reconstruct) w.r.t. the stacked factor vector.

    Block n is Q_n ((KR_excl(n)) kron I_{I_n}) where Q_n maps mode-n
    vectorization to mode-1 vectorization.
    """
    _guard(model)
    blocks = []
    for n in range(1, model.order + 1):
        i_n = model.dims[n - 1]
        w = khatri_rao_excl(model.factors, n)
        q = mode_commutation(model.dims, n)
        blocks.append(q @ np.kron(w, np.eye(i_n)))
    return np.hstack(blocks)


def kernel_block(cache: GramCache, n: int, m: int) -> np.ndarray:
    """K^(n,m) = (1 - delta) P_R diag(vec(Gamma^(n,m))), R^2 x R^2, 1-based."""
    r = cache.gamma_full.shape[0]
    if n == m:
        return np.zeros((r * r, r * r), dtype=cache.gamma_full.dtype)
    d = cache.gamma_pair[n - 1][m - 1].reshape(-1, order="F")
    return commutation(r, r) * d[None, :]


def kernel_matrix(cache: GramCache) -> np.ndarray:
    n_modes = len(cache.C)
    return np.block(
        [
            [kernel_block(cache, n, m) for m in range(1, n_modes + 1)]
            for n in range(1, n_modes + 1)
        ]
    )


def kernel_is_invertible(cache: GramCache, rtol: float = 1e-10) -> bool:
    """Magnitude proxy for invertibility of K: every entry of every pairwise
    Gamma^(n,m) must be nonzero relative to the largest one."""
    n_modes = len(cache.C)
    mags = np.abs(cache.gamma_pair)[~np.eye(n_modes, dtype=bool)]
    top = mags.max()
    return bool(top > 0.0 and mags.min() > rtol * top)


def kernel_inverse(cache: GramCache) -> np.ndarray:
    """The paper's closed-form K^{-1}: block (n, m) is (1/(N-1) - delta_nm)
    diag(vec(C^(n) * C^(m) / Gamma_full)) P_R.  Raises
    :class:`SingularKernelError` when a pairwise Gamma entry vanishes, and
    ``ValueError`` for N < 2."""
    n_modes = len(cache.C)
    if n_modes < 2:
        raise ValueError("kernel inverse needs at least two modes")
    if not kernel_is_invertible(cache):
        raise SingularKernelError("a pairwise Gamma entry vanishes; K is singular")
    c = cache.C
    p = commutation(*c.shape[1:])
    # vec(C^(n) * C^(m) / Gamma_full) in row (n, m), column-major within a block.
    q = (c[:, None] * c[None, :] / cache.gamma_full).transpose(0, 1, 3, 2)
    q = q.reshape(n_modes, n_modes, -1)
    coeff = 1.0 / (n_modes - 1) - np.eye(n_modes)
    return np.block(
        [
            [coeff[n, m] * q[n, m, :, None] * p for m in range(n_modes)]
            for n in range(n_modes)
        ]
    )


def hessian_block(
    cache: GramCache, factors, n: int, m: int
) -> np.ndarray:
    """Approximate-Hessian sub-block (R I_n x R I_m), 1-based modes."""
    a_n, a_m = factors[n - 1], factors[m - 1]
    r = a_n.shape[1]
    block = np.kron(np.eye(r), a_n) @ kernel_block(cache, n, m) @ np.kron(
        np.eye(r), a_m.conj().T
    )
    if n == m:
        block = block + np.kron(cache.gamma_excl[n - 1], np.eye(a_n.shape[0]))
    return block


def assemble_hessian(model: KruskalModel, cache: GramCache | None = None):
    _guard(model)
    cache = cache or build_gram_cache(model)
    n_modes = model.order
    return np.block(
        [
            [
                hessian_block(cache, model.factors, n, m)
                for m in range(1, n_modes + 1)
            ]
            for n in range(1, n_modes + 1)
        ]
    )


@dataclass
class HessianParts:
    """The H = G + Z K Z^H decomposition, materialized densely for tests."""

    G: np.ndarray
    Z: np.ndarray
    K: np.ndarray


def build_parts(cache: GramCache, factors) -> HessianParts:
    # Imported here so that ``import cpfast`` does not load scipy.linalg,
    # which fitting never needs (see :data:`cpfast.kruskal.FLAPACK`).
    import scipy.linalg

    r = cache.gamma_full.shape[0]
    G = scipy.linalg.block_diag(
        *[
            np.kron(cache.gamma_excl[n], np.eye(factors[n].shape[0]))
            for n in range(len(factors))
        ]
    )
    Z = scipy.linalg.block_diag(
        *[np.kron(np.eye(r), f) for f in factors]
    )
    return HessianParts(G, Z, kernel_matrix(cache))


def damped_hessian(
    model: KruskalModel, mu: float, cache: GramCache | None = None
) -> np.ndarray:
    """H + mu I, densely."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    h = assemble_hessian(model, cache)
    h[np.diag_indices_from(h)] += mu
    return h


def _project(model: KruskalModel, tensor: np.ndarray) -> np.ndarray:
    """J^H vec(``tensor``) with the dense :func:`jacobian` of ``model``."""
    return jacobian(model).conj().T @ tensor.reshape(-1, order="F")


def dense_damped_solve(y: DenseTensor, model: KruskalModel, mu: float) -> np.ndarray:
    """Reference dGN step: solve (H + mu I) da = J^H vec(E) densely, with
    E = Y - Yhat formed densely and projected by the dense Jacobian."""
    rhs = _project(model, y.data - reconstruct(model).data)
    return np.linalg.solve(damped_hessian(model, mu), rhs)


def dense_second_order_term(model: KruskalModel, vec: np.ndarray) -> np.ndarray:
    """Reference J^H M''(v, v): the tensor M''(v, v) = 2 sum_{n<m}
    [[... V^(n) ... V^(m) ...]] formed densely, then projected by the dense
    :func:`jacobian`."""
    _guard(model)
    direction = model_from_vector(vec, model.dims, model.rank).factors
    second = np.zeros(model.dims, dtype=np.result_type(vec, *model.factors))
    for n in range(model.order):
        for m in range(n + 1, model.order):
            factors = list(model.factors)
            factors[n], factors[m] = direction[n], direction[m]
            second += reconstruct(KruskalModel(factors)).data
    return _project(model, 2.0 * second)


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


def assemble_phi(cache: GramCache, mu: float, variant: str) -> np.ndarray:
    """The paper's unscaled Phi_1 = I + Psi K or Phi_2 = K^{-1} + Psi, with
    Psi = blkdiag((Gamma^(n) + mu I)^{-1} kron C^(n)), densely for density
    checks."""
    if variant not in ("phi1", "phi2"):
        raise ValueError(f"unknown variant {variant!r}")
    import scipy.linalg  # not at module level: see :func:`build_parts`

    eye = np.eye(cache.gamma_full.shape[0])
    psi = scipy.linalg.block_diag(
        *[
            np.kron(np.linalg.inv(g + mu * eye), c)
            for g, c in zip(cache.gamma_excl, cache.C)
        ]
    )
    if variant == "phi2":
        return kernel_inverse(cache) + psi
    return np.eye(psi.shape[0]) + psi @ kernel_matrix(cache)
