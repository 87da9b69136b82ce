"""Explicit Jacobian/Hessian assembly (the dense correctness oracle) and the
structured low-rank machinery: G + Z K Z^H decomposition, kernel inverse,
the damped inverse through one small core system, and the densities of the
paper's two core systems.

The solver's path is :func:`damped_core` and :func:`apply_damped_inverse`:
one batched inverse gives the N damped Gram inverses, the NR^2 x NR^2 flm-a
core system (congruence-scaled so its entries stay O(Gamma + mu) as mu
shrinks) is written through strided views and LU-factored once by LAPACK
``?getrf``, and one ``?getrs`` solve applies (H + mu I)^{-1} to a vector.

Dense paths are deliberately size-guarded: they exist to verify the fast
paths at desk scale, not to run at production scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    mags = np.abs(cache.gamma_pair)[~np.eye(n_modes, dtype=bool)]
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


@lru_cache(maxsize=None)
def _lu_routines(dtype: np.dtype):
    """LAPACK ``?getrf`` and ``?getrs`` for ``dtype``."""
    return scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=dtype)


def _check_info(info: int, routine: str, what: str) -> None:
    if info < 0:
        raise np.linalg.LinAlgError(f"{routine}: illegal value in argument {-info}")
    if info > 0:
        raise SingularKernelError(f"{what} is singular (zero pivot {info})")


@dataclass
class DampedCore:
    """The factored pieces of (H + mu I)^{-1} for one Gram cache and mu.

    ``gtilde[n]`` is (Gamma^(n) + mu I)^{-1}, stacked N x R x R.  Gamma^(n) is
    Hermitian, so (Gamma^(n)^T + mu I)^{-1}, which right-multiplies factors, is
    ``gtilde[n].conj()`` (a no-op for real data), not a second inverse.
    ``lu`` and ``piv`` are the ``?getrf`` factors of the NR^2 x NR^2 scaled
    core system; ``kernel`` holds the pairwise Gammas (zero on the diagonal)
    that apply K after the solve on the flm-a path and is None on flm-b.
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
        getrs = _lu_routines(np.result_type(self.lu, u))[1]
        z, info = getrs(self.lu, self.piv, u)
        _check_info(info, "getrs", "core system")
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
    c = cache.C
    coeff = 1.0 / (n_modes - 1) - np.eye(n_modes)
    q = c[:, None] * c[None, :] / cache.gamma_full
    return (
        coeff[:, None, None, :, None, None]
        * damped[:, :, None, None, None, :]
        * q.transpose(0, 2, 1, 3)[:, None, :, :, None, :]
        * damped.transpose(1, 0, 2)[None, None, :, :, :, None]
    )


@lru_cache(maxsize=None)
def _flm_a_layout(n_modes: int, r: int, itemsize: int):
    """The N x N x 1 x 1 off-diagonal mode mask (read-only) and the byte
    strides of the two views through which the flm-a core is filled.

    The core is stored in Fortran order, the layout ``?getrf`` factors in
    place; row and column (n, b, a) are n R^2 + b R + a, so entry (row, col)
    is element row + col NR^2.  The Chat K entries (n, b, a; m, a', b) are
    the view [n, m, b, a, a'], the Sb entries (n, b, a; n, b', a) the view
    [n, b, b', a]; an index that appears twice steps by both of its strides.
    """
    size = n_modes * r * r
    r2 = r * r
    kernel = (r2, r2 * size, r + size, 1, r * size)
    sb = (r2 * (1 + size), r, r * size, 1 + size)
    off = ~np.eye(n_modes, dtype=bool)[:, :, None, None]
    off.setflags(write=False)
    return (
        off,
        tuple(st * itemsize for st in kernel),
        tuple(st * itemsize for st in sb),
    )


def _core_system(cache: GramCache, damped: np.ndarray, variant: str):
    """The NR^2 x NR^2 core matrix, congruence-scaled by Sb = blkdiag(D_n kron
    I) with D_n = Gamma^(n) + mu I, and the kernel Gammas flm-a applies after.

    "flm-b" is Sb (K^{-1} + Psi) Sb = Sb K^{-1} Sb + blkdiag(D_n kron C^(n));
    "flm-a" is Sb (I + Psi K) = Sb + Chat K with Chat = blkdiag(I kron C^(n)).
    Psi = blkdiag(D_n^{-1} kron C^(n)) grows like 1/mu, so the unscaled
    systems lose digits when mu is far below the top eigenvalue; the scaled
    ones hold only Gram entries and mu.  K and K^{-1} are permuted diagonals:
    flm-b is filled by broadcasting in the (n, b, a) layout of
    :func:`_scaled_kernel_inverse`, flm-a through two strided views of a
    Fortran-ordered matrix (see :func:`_flm_a_layout`).
    """
    n_modes, r = damped.shape[:2]
    c = cache.C
    size = n_modes * r * r
    if variant == "flm-b":
        core = _scaled_kernel_inverse(cache, damped)
        modes = np.arange(n_modes)
        core[modes, :, :, modes] += (
            damped[:, :, None, :, None] * c[:, None, :, None, :]
        )
        return np.asfortranarray(core.reshape(size, size)), None
    core = np.zeros((size, size), dtype=damped.dtype, order="F")
    off, kernel_strides, sb_strides = _flm_a_layout(n_modes, r, core.itemsize)
    kernel = np.where(off, cache.gamma_pair, 0.0)
    # Chat K block (n, m): C^(n)[a, a'] Gamma^(n,m)[b, a'] at column (m, a', b);
    # the zero diagonal of ``kernel`` leaves the diagonal blocks to Sb.
    view = np.ndarray((n_modes,) * 2 + (r,) * 3, core.dtype, core, 0, kernel_strides)
    np.multiply(kernel[:, :, :, None, :], c[:, None, None, :, :], out=view)
    # Sb block (n, n): D_n[b, b'] at column (n, b', a).
    view = np.ndarray((n_modes,) + (r,) * 3, core.dtype, core, 0, sb_strides)
    view[...] = damped[..., None]
    return core, kernel


def damped_core(cache: GramCache, mu: float, variant: str = "flm-a") -> DampedCore:
    """The damped Gram inverses and the scaled core system, factored once.

    "flm-a" (alias "auto") uses Sb + Chat K, which exists for every Gram
    cache; "flm-b" uses the closed-form K^{-1} and raises
    :class:`SingularKernelError` when the kernel invertibility proxy fails.
    A zero pivot in the LU factorization raises :class:`SingularKernelError`.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if variant == "flm-b" and not kernel_is_invertible(cache):
        raise SingularKernelError("flm-b requested but K is singular")
    r = cache.gamma_full.shape[0]
    damped = cache.gamma_excl + mu * np.eye(r)
    core, kernel = _core_system(cache, damped, variant)
    lu, piv, info = _lu_routines(core.dtype)[0](core, overwrite_a=True)
    _check_info(info, "getrf", f"{variant} core system")
    return DampedCore(np.linalg.inv(damped), lu, piv, kernel)


def apply_damped_inverse(core: DampedCore, factors, vec: np.ndarray):
    """(H + mu I)^{-1} v from a factored core.

    With H + mu I = G~^{-1} + Z K Z^H, G~ = blkdiag(Gtilde_n kron I) and
    Z = blkdiag(I kron A^(n)), the binomial inverse is
    G~ - Z Sb^{-1} (K^{-1} + Psi)^{-1} Sb^{-1} Z^H, so block n of the result is
    V_n conj(Gtilde_n) - A^(n) Z_n with Z solved from u_n = vec(A^(n)^H V_n).

    Block n of a stacked vector is vec(V_n) in column-major order, so V_n^T is
    a row-major R x I_n view of it.  Everything is formed transposed, in
    place: u_n as V_n^T conj(A^(n)) and the result's block as
    Gtilde_n^H V_n^T - Z_n^T A^(n)^T.
    """
    n_modes, r = core.gtilde.shape[:2]
    dtype = np.result_type(vec, core.lu)
    u = np.empty((n_modes, r, r), dtype)
    out = np.empty(vec.shape, dtype)
    blocks = []
    offset = 0
    for f, un in zip(factors, u):
        end = offset + f.size
        vt = vec[offset:end].reshape(r, -1)
        np.matmul(vt, f.conj(), out=un)
        blocks.append((vt, out[offset:end].reshape(r, -1)))
        offset = end
    z = core.solve(u.reshape(-1))
    gtilde_h = core.gtilde.conj().transpose(0, 2, 1)
    for f, (vt, block), zn, gh in zip(factors, blocks, z, gtilde_h):
        np.matmul(gh, vt, out=block)
        block -= zn.T @ f.T
    return out


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
