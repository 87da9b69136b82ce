"""Explicit Jacobian/Hessian assembly (the dense correctness oracle) and the
structured low-rank machinery: G + Z K Z^H decomposition, kernel inverse,
fast damped inverse, and the densities of the two small linear systems.

The solver's path is :func:`damped_core`: one batched inverse gives the N
damped Gram inverses, the NR^2 x NR^2 core system is filled by index and
broadcasting (no dense commutation or block matrices), and its LU factors
serve every right-hand side of the step.

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
    C^(m) / Gamma)) P_R, i.e. the flm-b core system at Psi = 0.  Requires
    nonzero pairwise Gamma entries and N >= 2."""
    n_modes = len(cache.C)
    if n_modes < 2:
        raise ValueError("kernel inverse needs at least two modes")
    if not kernel_is_invertible(cache):
        raise SingularKernelError(
            "a pairwise Gamma entry vanishes; K is singular"
        )
    r = cache.gamma_full.shape[0]
    return _core_system(cache, np.zeros((n_modes, r, r)), "flm-b")[0]


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
    """The pieces of (H + mu I)^{-1} that every stage of one fLM step shares.

    ``gtilde[n]`` is (Gamma^(n) + mu I)^{-1}, stacked N x R x R.  Gamma^(n) is
    Hermitian, so (Gamma^(n)^T + mu I)^{-1}, which right-multiplies factors, is
    ``gtilde[n].conj()`` (a no-op for real data), not a second inverse.  ``lu``
    factors the NR^2 x NR^2 core system once; ``kernel`` holds the pairwise
    Gammas that apply K after the solve on the flm-a path and is None on
    flm-b.
    """

    gtilde: np.ndarray
    lu: tuple
    kernel: np.ndarray | None

    def solve(self, w: np.ndarray) -> np.ndarray:
        """The N frontal R x R slices F_n of vec(F) = B_mu w, where B_mu is
        (K^{-1} + Psi)^{-1} on flm-b and K (I + Psi K)^{-1} on flm-a."""
        n_modes, r = self.gtilde.shape[:2]
        z = scipy.linalg.lu_solve(self.lu, w, check_finite=False)
        z = z.reshape(n_modes, r, r).transpose(0, 2, 1)
        if self.kernel is None:
            return z
        # K^(n,m) vec(Z) = P_R vec(Gamma^(n,m) * Z) = vec((Gamma^(n,m) * Z)^T).
        return (self.kernel * z[None]).sum(axis=1).transpose(0, 2, 1)


def damped_gram_inverses(cache: GramCache, mu: float) -> np.ndarray:
    """(Gamma^(n) + mu I)^{-1} for all modes, from one batched inverse."""
    r = cache.gamma_full.shape[0]
    return np.linalg.inv(np.stack(cache.gamma_excl) + mu * np.eye(r))


def _core_system(cache: GramCache, gtilde: np.ndarray, variant: str):
    """The NR^2 x NR^2 core matrix Phi_2 = K^{-1} + Psi ("flm-b") or
    Phi_1 = I + Psi K ("flm-a"), and the kernel Gammas flm-a applies after.

    Row and column (n, b, a) address entry (a, b) of mode n's R x R block, so
    the matrix is filled as an (N, R, R, N, R, R) array.  K and K^{-1} are
    permuted diagonals, so K^{-1} is scattered by index; a Psi block
    (Gamma^(n) + mu I)^{-1} kron C^(n) is an outer product, and so is each
    block Psi_n K^(n,m), so both are written by broadcasting.
    """
    n_modes, r = gtilde.shape[:2]
    c = np.stack(cache.C)
    modes = np.arange(n_modes)
    size = n_modes * r * r
    if variant == "flm-b":
        core = np.zeros((n_modes, r, r) * 2, dtype=np.result_type(gtilde, c))
        core[modes, :, :, modes] = gtilde[:, :, None, :, None] * c[:, None, :, None, :]
        # K^{-1} block (n, m): (1/(N-1) - delta) diag(vec(C^(n) * C^(m) / Gamma)) P_R.
        coeff = 1.0 / (n_modes - 1) - np.eye(n_modes)
        n, m = modes[:, None, None, None], modes[None, :, None, None]
        a = np.arange(r)[:, None]
        b = a.T
        core[n, b, a, m, a, b] += coeff[:, :, None, None] * (
            c[:, None] * c[None, :] / cache.gamma_full
        )
        return core.reshape(size, size), None
    kernel = np.array(cache.gamma_pair)
    kernel[modes, modes] = 0.0
    # Block (n, m) of Psi K is G~_n[b, a'] C^(n)[a, b'] Gamma^(n,m)[a', b'].
    core = (
        gtilde[:, :, None, None, None, :]
        * c[:, None, :, None, :, None]
        * kernel.transpose(0, 1, 3, 2)[:, None, None]
    ).reshape(size, size)
    core.flat[:: size + 1] += 1.0
    return core, kernel


def damped_core(cache: GramCache, mu: float, variant: str = "auto") -> DampedCore:
    """The damped Gram inverses and the core system, each factored once.

    "flm-b" uses the closed-form K^{-1} (errors if K is singular); "flm-a"
    uses the always-available I + Psi K; "auto" picks "flm-b" exactly when
    the kernel invertibility proxy holds.
    """
    if variant == "auto":
        variant = "flm-b" if kernel_is_invertible(cache) else "flm-a"
    elif variant == "flm-b" and not kernel_is_invertible(cache):
        raise SingularKernelError("flm-b requested but K is singular")
    gtilde = damped_gram_inverses(cache, mu)
    core, kernel = _core_system(cache, gtilde, variant)
    lu, piv = scipy.linalg.lu_factor(core, overwrite_a=True, check_finite=False)
    if not np.diagonal(lu).all():
        raise SingularKernelError(f"{variant} core system is singular")
    return DampedCore(gtilde, (lu, piv), kernel)


@dataclass
class StructuredInverse:
    """Memory-saving form of (H + mu I)^{-1}.

    Stores the N damped Gamma inverses (R x R each) and the N x N grid of
    R^2 x R^2 core blocks: exactly N R^2 + N^2 R^4 scalars.
    """

    gamma_tilde: list
    S: list
    mu: float

    def scalar_count(self) -> int:
        n = len(self.gamma_tilde)
        r2 = self.gamma_tilde[0].size
        return n * r2 + sum(b.size for row in self.S for b in row)


def fast_damped_inverse(
    cache: GramCache, factors, mu: float, use_kernel_inverse: bool | None = None
) -> StructuredInverse:
    """Structured (H + mu I)^{-1} from the low-rank adjustment.

    ``use_kernel_inverse=None`` picks the explicit-K^{-1} path exactly when the
    kernel invertibility proxy holds.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if use_kernel_inverse is None:
        use_kernel_inverse = kernel_is_invertible(cache)
    r = cache.gamma_full.shape[0]
    eye = np.eye(r)
    gamma_tilde = list(damped_gram_inverses(cache, mu))
    # The core grid is the congruence (Gt kron I) B (Gt kron I) with
    # Gt = (Gamma^(n) + mu I)^{-1}.  Forming B first and scaling afterwards
    # loses digits when mu is far below the top eigenvalue (Psi_mu ~ 1/mu), so
    # compute the scaled product directly from O(1)-conditioned systems.
    # With Sb = blkdiag((Gamma^(n)+muI) kron I) and Chat = blkdiag(I kron C^(n)):
    #   K^{-1} path: D = [Sb K^{-1} Sb + blkdiag((Gamma^(n)+muI) kron C^(n))]^{-1}
    #   K-free path: D = blkdiag(Gt kron I) K (Sb + Chat K)^{-1}
    damped = [cache.gamma_excl[n] + mu * eye for n in range(len(factors))]
    sb = scipy.linalg.block_diag(*[np.kron(g, eye) for g in damped])
    if use_kernel_inverse:
        diag = scipy.linalg.block_diag(
            *[np.kron(g, c) for g, c in zip(damped, cache.C)]
        )
        d = np.linalg.inv(sb @ kernel_inverse(cache) @ sb + diag)
    else:
        chat = scipy.linalg.block_diag(*[np.kron(eye, c) for c in cache.C])
        k = kernel_matrix(cache)
        gt = scipy.linalg.block_diag(*[np.kron(g, eye) for g in gamma_tilde])
        try:
            d = gt @ k @ np.linalg.solve(sb + chat @ k, np.eye(k.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise SingularKernelError(f"Sb + Chat K numerically singular: {exc}")
    r2 = r * r
    n_modes = len(factors)
    S = [
        [d[n * r2 : (n + 1) * r2, m * r2 : (m + 1) * r2] for m in range(n_modes)]
        for n in range(n_modes)
    ]
    return StructuredInverse(gamma_tilde, S, mu)


def materialize_inverse(sinv: StructuredInverse, factors) -> np.ndarray:
    """Dense (H + mu I)^{-1} from the block form; test scaffolding only."""
    r = sinv.gamma_tilde[0].shape[0]
    n_modes = len(factors)
    eye_r = np.eye(r)
    blocks = []
    for n in range(n_modes):
        row = []
        for m in range(n_modes):
            zn = np.kron(eye_r, factors[n])
            zm = np.kron(eye_r, factors[m])
            block = -zn @ sinv.S[n][m] @ zm.conj().T
            if n == m:
                block = block + np.kron(
                    sinv.gamma_tilde[n], np.eye(factors[n].shape[0])
                )
            row.append(block)
        blocks.append(row)
    return np.block(blocks)


def _split_blocks(vec: np.ndarray, factors) -> list:
    out = []
    offset = 0
    for f in factors:
        size = f.shape[0] * f.shape[1]
        out.append(vec[offset : offset + size].reshape(f.shape, order="F"))
        offset += size
    return out


def apply_damped_hessian(cache: GramCache, factors, vec: np.ndarray, mu: float):
    """(H + mu I) v without materializing H, via the G + Z K Z^H structure."""
    x = _split_blocks(vec, factors)
    w = [f.conj().T @ xn for f, xn in zip(factors, x)]
    blocks = []
    for n in range(len(factors)):
        acc = x[n] @ cache.gamma_excl[n].T + mu * x[n]
        corr = sum(
            (cache.gamma_pair[n][m] * w[m]).T
            for m in range(len(factors))
            if m != n
        )
        if not np.isscalar(corr):
            acc = acc + factors[n] @ corr
        blocks.append(acc.reshape(-1, order="F"))
    return np.concatenate(blocks)


def apply_damped_inverse(core: DampedCore, factors, vec: np.ndarray):
    """(H + mu I)^{-1} v through the binomial inverse, from a factored core."""
    gt_inv = core.gtilde.conj()
    t = [xn @ gi for xn, gi in zip(_split_blocks(vec, factors), gt_inv)]
    y = core.solve(
        np.concatenate(
            [(f.conj().T @ tn).reshape(-1, order="F") for f, tn in zip(factors, t)]
        )
    )
    return np.concatenate(
        [
            (tn - f @ yn @ gi).reshape(-1, order="F")
            for tn, f, yn, gi in zip(t, factors, y, gt_inv)
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
    """Dense Phi_1 = I + Psi K or Phi_2 = K^{-1} + Psi, for density checks."""
    core_variant = {"phi1": "flm-a", "phi2": "flm-b"}.get(variant)
    if core_variant is None:
        raise ValueError(f"unknown variant {variant!r}")
    return _core_system(cache, damped_gram_inverses(cache, mu), core_variant)[0]
