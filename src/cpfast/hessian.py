"""The damped inverse (H + mu I)^{-1} of the CP Gauss-Newton Hessian through
one small core system.

With H = G + Z K Z^H (G = blkdiag(Gamma^(n) kron I), Z = blkdiag(I kron
A^(n)), K the permuted-diagonal kernel of pairwise Gammas), the binomial
inverse reduces (H + mu I)^{-1} to the N damped Gram inverses and one
NR^2 x NR^2 core: the paper's Phi_1 = I + Psi K, congruence-scaled so its
entries stay O(Gamma + mu) as mu shrinks.  :func:`damped_core` builds the
Gram inverses with one batched inverse, writes the core through strided views
and LU-factors it once by LAPACK ``?getrf``; the :class:`DampedCore` it
returns applies (H + mu I)^{-1} to a stack (see :func:`~cpfast.kruskal.stack`)
with batched matmuls around one ``?getrs`` solve.  Both routines come from
the cached lookup that :mod:`cpfast.kruskal` also uses for ``?syevr``.

The dense references these are checked against live in :mod:`cpfast.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kruskal import GramCache, _lapack, pack, unpack


class SingularKernelError(np.linalg.LinAlgError):
    """A singular small system: an exact zero pivot in the LU factorization of
    the core, or a singular K in the oracle's closed-form K^{-1}."""


def _check_info(info: int, routine: str) -> None:
    if info < 0:
        raise np.linalg.LinAlgError(f"{routine}: illegal value in argument {-info}")
    if info > 0:
        raise SingularKernelError(f"core system is singular (zero pivot {info})")


@dataclass
class DampedCore:
    """(H + mu I)^{-1} at one model and mu, factored: ``core(u)`` applies it.

    ``gtilde[n]`` is (Gamma^(n) + mu I)^{-1}, stacked N x R x R.  Gamma^(n) is
    Hermitian, so (Gamma^(n)^T + mu I)^{-1}, which right-multiplies factors, is
    ``gtilde[n].conj()`` (a no-op for real data), not a second inverse.
    ``lu`` and ``piv`` are the ``?getrf`` factors of the NR^2 x NR^2 scaled
    core system; ``kernel`` holds the pairwise Gammas (zero on the diagonal)
    that apply K after the solve; ``x`` is the model's stack (see
    :func:`~cpfast.kruskal.stack`), the caller's array and not a copy, and
    ``dims`` its mode sizes.
    """

    gtilde: np.ndarray
    lu: np.ndarray
    piv: np.ndarray
    kernel: np.ndarray
    x: np.ndarray
    dims: tuple

    def solve(self, u: np.ndarray) -> np.ndarray:
        """The N frontal R x R slices Z_n of Sb^{-1} K (I + Psi K)^{-1} Sb^{-1} u,
        where Sb = blkdiag((Gamma^(n) + mu I) kron I); it equals
        (Sb (K^{-1} + Psi) Sb)^{-1} u whenever K is invertible."""
        n_modes, r = self.gtilde.shape[:2]
        getrs = _lapack("getrs", np.promote_types(self.lu.dtype, u.dtype))
        z, info = getrs(self.lu, self.piv, u)
        _check_info(info, "getrs")
        # The core solve gives x from (Sb + Chat K) x = u; the slices are
        # (Gtilde kron I) K x, with K^(n,m) vec(X) = P_R vec(Gamma^(n,m) * X)
        # = vec((Gamma^(n,m) * X)^T).
        z = z.reshape(n_modes, r, r).mT
        kx = np.add.reduce(self.kernel * z[None], axis=1).mT
        return kx @ np.conj(self.gtilde)

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        """(H + mu I)^{-1} v for a stacked vector v; see :meth:`apply`."""
        v = pack(np.asarray(vec), self.dims, self.gtilde.shape[1])
        return unpack(self.apply(v), self.dims)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """(H + mu I)^{-1} v for the stack ``v``.

        With H + mu I = G~^{-1} + Z K Z^H, G~ = blkdiag(Gtilde_n kron I) and
        Z = blkdiag(I kron A^(n)), the binomial inverse is
        G~ - Z Sb^{-1} K (I + Psi K)^{-1} Sb^{-1} Z^H, so block n of the result
        is V_n conj(Gtilde_n) - A^(n) Z_n with Z solved from u_n =
        vec(A^(n)^H V_n).

        Everything is formed transposed, on the stack blocks V_n^T and
        A^(n)^T, one batched matmul each: u_n as V_n^T conj(A^(n)) and the
        result's block as Gtilde_n^H V_n^T - Z_n^T A^(n)^T, whose padding
        stays zero.
        """
        u = v @ np.conj(self.x).mT
        z = self.solve(u.reshape(-1))
        out = np.conj(self.gtilde).mT @ v
        out -= z.mT @ self.x
        return out


@lru_cache(maxsize=None)
def _core_layout(n_modes: int, r: int, itemsize: int):
    """The fixed parts of the core for N modes, rank R and scalars of
    ``itemsize`` bytes: the N x N x 1 x 1 off-diagonal mode mask and the
    R x R identity (read-only), and the byte strides of the two views through
    which the core is filled.

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
    eye = np.eye(r)
    eye.setflags(write=False)
    return (
        off,
        eye,
        tuple(st * itemsize for st in kernel),
        tuple(st * itemsize for st in sb),
    )


def damped_core(x: np.ndarray, dims, cache: GramCache, mu: float) -> DampedCore:
    """(H + mu I)^{-1} at the model with stack ``x`` (see
    :func:`~cpfast.kruskal.stack`), mode sizes ``dims`` and Gram cache
    ``cache``: the damped Gram inverses and the scaled core system, factored
    once.

    The core is Sb (I + Psi K) = Sb + Chat K, with Sb = blkdiag(D_n kron I),
    D_n = Gamma^(n) + mu I, Chat = blkdiag(I kron C^(n)) and Psi =
    blkdiag(D_n^{-1} kron C^(n)).  Psi grows like 1/mu, so the unscaled
    Phi_1 loses digits when mu is far below the top eigenvalue; the scaled
    core holds only Gram entries and mu, and exists for every Gram cache.
    K is a permuted diagonal, so the core is filled through two strided views
    of a Fortran-ordered matrix (see :func:`_core_layout`).  A zero pivot in
    the LU factorization raises :class:`SingularKernelError`.

    The core keeps ``x`` itself as :attr:`DampedCore.x` and reads it on every
    application, so ``x`` must not be written in place while the core is in
    use.  The fit loop never does: its candidates and normalized models are
    new arrays.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    c = cache.C
    n_modes, r = c.shape[:2]
    size = n_modes * r * r
    off, eye, kernel_strides, sb_strides = _core_layout(n_modes, r, c.itemsize)
    damped = cache.gamma_excl + mu * eye
    core = np.zeros((size, size), dtype=damped.dtype, order="F")
    kernel = np.where(off, cache.gamma_pair, 0.0)
    # Chat K block (n, m): C^(n)[a, a'] Gamma^(n,m)[b, a'] at column (m, a', b);
    # the zero diagonal of ``kernel`` leaves the diagonal blocks to Sb.
    view = np.ndarray((n_modes,) * 2 + (r,) * 3, core.dtype, core, 0, kernel_strides)
    np.multiply(kernel[:, :, :, None, :], c[:, None, None, :, :], out=view)
    # Sb block (n, n): D_n[b, b'] at column (n, b', a).
    view = np.ndarray((n_modes,) + (r,) * 3, core.dtype, core, 0, sb_strides)
    view[...] = damped[..., None]
    lu, piv, info = _lapack("getrf", core.dtype)(core, overwrite_a=True)
    _check_info(info, "getrf")
    return DampedCore(np.linalg.inv(damped), lu, piv, kernel, x, dims)
