"""Explicit Jacobian/Hessian assembly (the dense correctness oracle) and the
structured low-rank machinery: G + Z K Z^H decomposition, kernel inverse,
the damped inverse through one small core system, and the densities of the
paper's two core systems.

The solver's path is :func:`damped_core` and :func:`apply_damped_inverse`:
one batched inverse gives the N damped Gram inverses, the NR^2 x NR^2 core
system (congruence-scaled so its entries stay O(Gamma + mu) as mu shrinks) is
filled by index and broadcasting and LU-factored once, and one solve applies
(H + mu I)^{-1} to a vector.

Dense paths are deliberately size-guarded: they exist to verify the fast
paths at desk scale, not to run at production scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from .kruskal import GramCache, KruskalModel, build_gram_cache, gradient
from .tensor import (
    DenseTensor,
    commutation,
    khatri_rao_excl,
    mode_commutation,
)

ORACLE_MAX_ENTRIES = 10**7
ORACLE_MAX_RT = 3000


class OracleSizeError(ValueError):
    """Dense-oracle request exceeds the desk-scale guard."""


class SingularKernelError(np.linalg.LinAlgError):
    """The kernel matrix K is (numerically) singular; use the K-free path."""


def _guard(model: KruskalModel) -> None:
    j = int(np.prod(model.dims, dtype=np.int64))
    rt = model.rank * sum(model.dims)
    if j * rt > ORACLE_MAX_ENTRIES or rt > ORACLE_MAX_RT:
        raise OracleSizeError(
            f"dense oracle refused: J*RT = {j * rt}, RT = {rt}"
        )


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
    mags = np.abs(np.array(cache.gamma_pair))[~np.eye(n_modes, dtype=bool)]
    top = mags.max()
    return bool(top > 0.0 and mags.min() > rtol * top)


def kernel_inverse(cache: GramCache) -> np.ndarray:
    """Closed-form inverse of K: blocks (1/(N-1) - delta) diag(vec(C^(n) *
    C^(m) / Gamma)) P_R, i.e. the flm-b core builder at D_n = I without Psi.
    Requires nonzero pairwise Gamma entries and N >= 2."""
    n_modes = len(cache.C)
    if n_modes < 2:
        raise ValueError("kernel inverse needs at least two modes")
    if not kernel_is_invertible(cache):
        raise SingularKernelError(
            "a pairwise Gamma entry vanishes; K is singular"
        )
    r = cache.gamma_full.shape[0]
    eye = np.broadcast_to(np.eye(r), (n_modes, r, r))
    size = n_modes * r * r
    return _scaled_kernel_inverse(cache, eye).reshape(size, size)


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
    T: int


def build_parts(cache: GramCache, factors) -> HessianParts:
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
    return HessianParts(G, Z, kernel_matrix(cache), sum(f.shape[0] for f in factors))


def dense_damped_solve(y: DenseTensor, model: KruskalModel, mu: float) -> np.ndarray:
    """Reference dGN step: solve (H + mu I) da = J^H vec(E) densely."""
    _guard(model)
    if mu <= 0:
        raise ValueError("mu must be positive")
    h = assemble_hessian(model)
    g = gradient(y, model)
    return np.linalg.solve(h + mu * np.eye(h.shape[0]), g)


@dataclass
class DampedCore:
    """The factored pieces of (H + mu I)^{-1} for one Gram cache and mu.

    ``gtilde[n]`` is (Gamma^(n) + mu I)^{-1}, stacked N x R x R.  Gamma^(n) is
    Hermitian, so (Gamma^(n)^T + mu I)^{-1}, which right-multiplies factors, is
    ``gtilde[n].conj()`` (a no-op for real data), not a second inverse.
    ``lu`` and ``piv`` factor the NR^2 x NR^2 scaled core system once;
    ``kernel`` holds the pairwise Gammas that apply K after the solve on the
    flm-a path and is None on flm-b.
    """

    gtilde: np.ndarray
    lu: np.ndarray
    piv: np.ndarray
    kernel: np.ndarray | None

    def solve(self, u: np.ndarray) -> np.ndarray:
        """The N frontal R x R slices Z_n of (Sb (K^{-1} + Psi) Sb)^{-1} u,
        where Sb = blkdiag((Gamma^(n) + mu I) kron I) and (K^{-1} + Psi)^{-1}
        means K (I + Psi K)^{-1} when K is singular."""
        n_modes, r = self.gtilde.shape[:2]
        z = scipy.linalg.lu_solve((self.lu, self.piv), u, check_finite=False)
        z = z.reshape(n_modes, r, r).transpose(0, 2, 1)
        if self.kernel is None:
            return z
        # flm-a solved (Sb + Chat K) x = u; the slices are (Gtilde kron I) K x,
        # with K^(n,m) vec(X) = P_R vec(Gamma^(n,m) * X) = vec((Gamma^(n,m) * X)^T).
        kx = (self.kernel * z[None]).sum(axis=1).transpose(0, 2, 1)
        return kx @ self.gtilde.conj()


def _scaled_kernel_inverse(cache: GramCache, damped: np.ndarray) -> np.ndarray:
    """Sb K^{-1} Sb with Sb = blkdiag(D_n kron I), as an (N, R, R, N, R, R) array.

    Row and column (n, b, a) address entry (a, b) of mode n's R x R block.
    K^{-1} block (n, m) is (1/(N-1) - delta) diag(vec(q_nm)) P_R with
    q_nm = C^(n) * C^(m) / Gamma_full, so entry [(n, b, a), (m, b', a')] of the
    product is c_nm D_n[b, a'] q_nm[a, a'] D_m[a, b'].  At D = I it is K^{-1}.
    """
    n_modes = len(cache.C)
    c = np.stack(cache.C)
    coeff = 1.0 / (n_modes - 1) - np.eye(n_modes)
    q = c[:, None] * c[None, :] / cache.gamma_full
    return (
        coeff[:, None, None, :, None, None]
        * damped[:, :, None, None, None, :]
        * q.transpose(0, 2, 1, 3)[:, None, :, :, None, :]
        * damped.transpose(1, 0, 2)[None, None, :, :, :, None]
    )


def _core_system(cache: GramCache, damped: np.ndarray, variant: str):
    """The NR^2 x NR^2 core matrix, congruence-scaled by Sb = blkdiag(D_n kron
    I) with D_n = Gamma^(n) + mu I, and the kernel Gammas flm-a applies after.

    "flm-b" is Sb (K^{-1} + Psi) Sb = Sb K^{-1} Sb + blkdiag(D_n kron C^(n));
    "flm-a" is Sb (I + Psi K) = Sb + Chat K with Chat = blkdiag(I kron C^(n)).
    Psi = blkdiag(D_n^{-1} kron C^(n)) grows like 1/mu, so the unscaled
    systems lose digits when mu is far below the top eigenvalue; the scaled
    ones hold only Gram entries and mu.  Both are filled by index and
    broadcasting (K and K^{-1} are permuted diagonals), in the (n, b, a)
    layout of :func:`_scaled_kernel_inverse`.
    """
    n_modes, r = damped.shape[:2]
    c = np.stack(cache.C)
    modes = np.arange(n_modes)
    size = n_modes * r * r
    if variant == "flm-b":
        core = _scaled_kernel_inverse(cache, damped)
        core[modes, :, :, modes] += (
            damped[:, :, None, :, None] * c[:, None, :, None, :]
        )
        return core.reshape(size, size), None
    kernel = np.array(cache.gamma_pair)
    kernel[modes, modes] = 0.0
    core = np.zeros((n_modes, r, r) * 2, dtype=np.result_type(damped, c))
    diag = np.arange(r)
    # Chat K block (n, m): C^(n)[a, b'] Gamma^(n,m)[b, b'] at a' = b.
    core[:, diag, :, :, :, diag] = (
        kernel.transpose(2, 0, 1, 3)[:, :, None] * c[None, :, :, None]
    )
    # Sb block (n, n): D_n[b, b'] at a' = a.
    core[modes[:, None], :, diag, modes[:, None], :, diag] += damped[:, None]
    return core.reshape(size, size), kernel


def damped_core(cache: GramCache, mu: float, variant: str = "auto") -> DampedCore:
    """The damped Gram inverses and the scaled core system, factored once.

    "flm-b" uses the closed-form K^{-1} (errors if K is singular); "flm-a"
    uses the always-available Sb + Chat K; "auto" picks "flm-b" exactly when
    the kernel invertibility proxy holds.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if variant == "auto":
        variant = "flm-b" if kernel_is_invertible(cache) else "flm-a"
    elif variant == "flm-b" and not kernel_is_invertible(cache):
        raise SingularKernelError("flm-b requested but K is singular")
    r = cache.gamma_full.shape[0]
    damped = np.stack(cache.gamma_excl) + mu * np.eye(r)
    core, kernel = _core_system(cache, damped, variant)
    lu, piv = scipy.linalg.lu_factor(core, overwrite_a=True, check_finite=False)
    if not np.diagonal(lu).all():
        raise SingularKernelError(f"{variant} core system is singular")
    return DampedCore(np.linalg.inv(damped), lu, piv, kernel)


def _split_blocks(vec: np.ndarray, factors) -> list:
    out = []
    offset = 0
    for f in factors:
        size = f.shape[0] * f.shape[1]
        out.append(vec[offset : offset + size].reshape(f.shape, order="F"))
        offset += size
    return out


def apply_damped_inverse(core: DampedCore, factors, vec: np.ndarray):
    """(H + mu I)^{-1} v from a factored core.

    With H + mu I = G~^{-1} + Z K Z^H, G~ = blkdiag(Gtilde_n kron I) and
    Z = blkdiag(I kron A^(n)), the binomial inverse is
    G~ - Z Sb^{-1} (K^{-1} + Psi)^{-1} Sb^{-1} Z^H, so block n of the result is
    V_n conj(Gtilde_n) - A^(n) Z_n with Z solved from u_n = vec(A^(n)^H V_n).
    """
    blocks = _split_blocks(vec, factors)
    z = core.solve(
        np.concatenate(
            [(f.conj().T @ v).reshape(-1, order="F") for f, v in zip(factors, blocks)]
        )
    )
    return np.concatenate(
        [
            (v @ gi - f @ zn).reshape(-1, order="F")
            for v, f, zn, gi in zip(blocks, factors, z, core.gtilde.conj())
        ]
    )


def phi_density(n_modes: int, rank: int, variant: str) -> Fraction:
    """Exact density of the small system matrix.

    ``variant`` is "phi1" (I + Psi K, the K-free path) or "phi2"
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
