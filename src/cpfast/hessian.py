"""The damped inverse (H + mu I)^{-1} of the CP Gauss-Newton Hessian through
one small core system.

With H = G + Z K Z^H (G = blkdiag(Gamma^(n) kron I), Z = blkdiag(I kron
A^(n)), K the permuted-diagonal kernel of pairwise Gammas), the binomial
inverse reduces (H + mu I)^{-1} to the N damped Gram inverses and one
NR^2 x NR^2 core: the paper's Phi_1 = I + Psi K, congruence-scaled so its
entries stay O(Gamma + mu) as mu shrinks.  :func:`damped_core` builds the
Gram inverses with one batched inverse (``_batched_inv``, ``np.linalg.inv``
without its wrapper), writes the core through strided views from the Gram
cache, whose pairwise Gammas with zero diagonal (``GramCache.kernel``) are
made once per model, and LU-factors it once by LAPACK ``?getrf``;
:meth:`DampedCore.apply`, the only way to apply (H + mu I)^{-1}, takes a
stack (see :func:`~cpfast.kruskal.stack`) and wraps one ``?getrs`` solve in
batched matmuls.  Both routines come from the cached lookup that
:mod:`cpfast.kruskal` also uses for ``?syevr``.  The fLM step
(:func:`cpfast.solver.flm_step`) applies one core twice.

The dense references these are checked against live in :mod:`cpfast.oracle`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .kruskal import GramCache, _lapack


class SingularKernelError(LinAlgError):
    """A singular small system: an exact zero pivot in the LU factorization of
    the core, or a singular K in the oracle's closed-form K^{-1}."""


def _raise_info(info: int, routine: str) -> None:
    """Raise for the nonzero LAPACK ``info`` of ``routine``; callers test
    ``info`` first, so a success costs no call."""
    if info < 0:
        raise LinAlgError(f"{routine}: illegal value in argument {-info}")
    raise SingularKernelError(f"core system is singular (zero pivot {info})")


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


# ``np.linalg.inv`` without its wrapper: its gufunc under its error state, so
# an exactly singular matrix raises ``LinAlgError("Singular matrix")`` as
# there and a stack of float64 or complex128 matrices gives the same bits.
_batched_inv = np.errstate(
    call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore"
)(_umath_linalg.inv)


@dataclass
class DampedCore:
    """(H + mu I)^{-1} at one model and mu, factored; :meth:`apply` applies
    it to a stack.

    ``gtilde[n]`` is (Gamma^(n)^T + mu I)^{-1}, stacked N x R x R: the
    damped Gram inverse in the form that right-multiplies factors.
    Gamma^(n) is Hermitian, so it is the conjugate of (Gamma^(n) + mu
    I)^{-1}, not a second inverse.  ``lu`` and ``piv`` are the ``?getrf``
    factors of the NR^2 x NR^2 scaled core system and ``getrs`` the
    ``?getrs`` routine that solves with them in their own type; ``kernel``
    holds the pairwise Gammas (zero on the diagonal, the cache's
    ``kernel``) that apply K after the solve; ``x`` is the model's stack
    (see :func:`~cpfast.kruskal.stack`), the caller's array and not a copy,
    and ``x_conj`` its conjugate.  Each conjugate is taken once per core, by
    ``ndarray.conj``, which copies only complex arrays: for real data
    ``gtilde`` is the inverse itself and ``x_conj`` is ``x``.
    """

    gtilde: np.ndarray
    lu: np.ndarray
    piv: np.ndarray
    kernel: np.ndarray
    x: np.ndarray
    x_conj: np.ndarray
    getrs: Callable

    def solve(self, u: np.ndarray) -> np.ndarray:
        """The N frontal R x R slices Z_n of Sb^{-1} K (I + Psi K)^{-1} Sb^{-1} u,
        where Sb = blkdiag((Gamma^(n) + mu I) kron I); it equals
        (Sb (K^{-1} + Psi) Sb)^{-1} u whenever K is invertible."""
        n_modes, r = self.gtilde.shape[:2]
        getrs = self.getrs
        if u.dtype != self.lu.dtype:
            # A complex u for a real core: solve in the promoted type.
            getrs = _lapack("getrs", np.promote_types(self.lu.dtype, u.dtype))
        z, info = getrs(self.lu, self.piv, u)
        if info:
            _raise_info(info, "getrs")
        # The core solve gives x from (Sb + Chat K) x = u; the slices are
        # (Gtilde kron I) K x, with K^(n,m) vec(X) = P_R vec(Gamma^(n,m) * X)
        # = vec((Gamma^(n,m) * X)^T).
        z = z.reshape(n_modes, r, r).mT
        kx = np.add.reduce(self.kernel * z[None], axis=1).mT
        return kx @ self.gtilde

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
        u = v @ self.x_conj.mT
        z = self.solve(u.reshape(-1))
        out = self.gtilde.mT @ v
        out -= z.mT @ self.x
        return out


@lru_cache(maxsize=None)
def _core_layout(n_modes: int, r: int, itemsize: int):
    """The fixed parts of the core for N modes, rank R and scalars of
    ``itemsize`` bytes: the R x R identity (read-only) and the byte strides
    of the two views through which the core is filled.

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
    eye = np.eye(r)
    eye.setflags(write=False)
    return (
        eye,
        tuple(st * itemsize for st in kernel),
        tuple(st * itemsize for st in sb),
    )


def damped_core(x: np.ndarray, cache: GramCache, mu: float) -> DampedCore:
    """(H + mu I)^{-1} at the model with stack ``x`` (see
    :func:`~cpfast.kruskal.stack`) and Gram cache ``cache``: the damped Gram
    inverses and the scaled core system, factored once.  Raises
    ``ValueError`` unless ``mu`` > 0.

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
    eye, kernel_strides, sb_strides = _core_layout(n_modes, r, c.itemsize)
    damped = cache.gamma_excl + mu * eye
    core = np.zeros((size, size), dtype=damped.dtype, order="F")
    kernel = cache.kernel
    # Chat K block (n, m): C^(n)[a, a'] Gamma^(n,m)[b, a'] at column (m, a', b);
    # the zero diagonal of ``kernel`` leaves the diagonal blocks to Sb.
    view = np.ndarray((n_modes,) * 2 + (r,) * 3, core.dtype, core, 0, kernel_strides)
    np.multiply(kernel[:, :, :, None, :], c[:, None, None, :, :], out=view)
    # Sb block (n, n): D_n[b, b'] at column (n, b', a).
    view = np.ndarray((n_modes,) + (r,) * 3, core.dtype, core, 0, sb_strides)
    view[...] = damped[..., None]
    lu, piv, info = _lapack("getrf", core.dtype)(core, overwrite_a=True)
    if info:
        _raise_info(info, "getrf")
    gtilde = _batched_inv(damped).conj()
    getrs = _lapack("getrs", core.dtype)
    return DampedCore(gtilde, lu, piv, kernel, x, x.conj(), getrs)
