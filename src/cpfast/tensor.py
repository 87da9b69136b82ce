"""Dense tensor storage and the multilinear kernels used throughout the package.

Tensors are stored column-major (first index varies fastest), so
``vectorize(t)`` equals ``vectorize(unfold(t, 1))`` by construction.
Mode indices in the public API are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REAL = "real"
COMPLEX = "complex"


class ScalarKindError(TypeError):
    """Raised when real and complex values are mixed in one operation."""


@dataclass(frozen=True)
class DenseTensor:
    """N-way dense array of float64 or complex128 scalars.

    ``data`` is an N-dimensional numpy array; the flat storage convention is
    Fortran order (index along mode 1 varies fastest).
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asfortranarray(self.data)
        if arr.ndim < 1:
            arr = arr.reshape(1)
        if arr.dtype not in (np.float64, np.complex128):
            arr = arr.astype(
                np.complex128 if np.iscomplexobj(arr) else np.float64
            )
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def order(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def scalar_kind(self) -> str:
        return COMPLEX if self.data.dtype.kind == "c" else REAL

    def norm(self) -> float:
        return frobenius(self.data)


def frobenius(a: np.ndarray) -> float:
    """||a||, summed in memory order as ``np.linalg.norm`` sums it, without
    that function's overhead: sqrt(a . a), or for complex ``a`` the dot
    products of its real and imaginary parts."""
    flat = a.ravel("K")
    if flat.dtype.kind == "c":
        re, im = flat.real, flat.imag
        return float(np.sqrt(re.dot(re) + im.dot(im)))
    return float(np.sqrt(flat @ flat))


def as_complex(y: DenseTensor) -> DenseTensor:
    """Promote a real tensor to the complex pipeline (explicit, never implicit)."""
    return DenseTensor(y.data.astype(np.complex128))


def _gaussian(rng, shape, scalar_kind: str) -> np.ndarray:
    """Standard normal draws of ``shape`` from ``rng``; for COMPLEX, the real
    parts are drawn first and then the imaginary parts, each of unit
    variance."""
    a = rng.standard_normal(shape)
    if scalar_kind == COMPLEX:
        a = a + 1j * rng.standard_normal(shape)
    return a


def _check_mode(t_order: int, n: int) -> None:
    if not 1 <= n <= t_order:
        raise ValueError(f"mode {n} out of range for order-{t_order} tensor")


def unfold(t: DenseTensor, n: int) -> np.ndarray:
    """Mode-n unfolding: I_n x (J / I_n), remaining modes in ascending order."""
    _check_mode(t.order, n)
    return np.moveaxis(t.data, n - 1, 0).reshape(
        (t.dims[n - 1], -1), order="F"
    )


def fold(mat: np.ndarray, n: int, dims) -> DenseTensor:
    """Inverse of :func:`unfold` for the given target dimensions."""
    dims = tuple(int(d) for d in dims)
    _check_mode(len(dims), n)
    shape = (dims[n - 1],) + dims[: n - 1] + dims[n:]
    arr = np.asarray(mat).reshape(shape, order="F")
    return DenseTensor(np.moveaxis(arr, 0, n - 1))


def vectorize(t: DenseTensor) -> np.ndarray:
    """vec(Y): column-major flattening; equals unfold(t, 1) read column-major."""
    return t.data.reshape(-1, order="F")


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product of I x R and K x R matrices."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column count mismatch: {a.shape[1]} != {b.shape[1]}"
        )
    return _khatri_rao_of([b, a])


def _khatri_rao_of(factors) -> np.ndarray:
    """Khatri-Rao product whose row index runs over ``factors`` (2-D, with
    equal column counts), first fastest."""
    out = factors[-1]
    for f in factors[-2::-1]:
        out = (out[:, None, :] * f[None, :, :]).reshape(-1, f.shape[1])
    return out


def khatri_rao_excl(factors, n: int) -> np.ndarray:
    """Khatri-Rao product over modes N..1 excluding mode n (descending order).

    With the column-major storage convention this is exactly the matrix W for
    which the mode-n unfolding of a Kruskal tensor is A^(n) W^T.
    """
    _check_mode(len(factors), n)
    ranks = {f.shape[1] for f in factors}
    if len(ranks) > 1:
        raise ValueError("factors disagree on column count")
    return _khatri_rao_of([f for k, f in enumerate(factors) if k != n - 1])
