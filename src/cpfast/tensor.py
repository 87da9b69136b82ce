"""Dense tensor storage and the multilinear kernels used throughout the package.

Tensors are stored column-major (first index varies fastest), so the
column-major flattening of ``t.data`` equals that of ``unfold(t, 1)`` by
construction.  Mode indices in the public API are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

REAL = "real"
COMPLEX = "complex"


class ScalarKindError(TypeError):
    """Raised when real and complex values are mixed in one operation."""


@dataclass(frozen=True)
class DenseTensor:
    """N-way dense array of float64 or complex128 scalars.

    ``data`` is an N-dimensional numpy array; the flat storage convention is
    Fortran order (index along mode 1 varies fastest).  The two unfolding
    views that every pass over the tensor reads are made once, on first use.
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

    @cached_property
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

    @cached_property
    def last_unfolding(self) -> np.ndarray:
        """Y_(N), I_N x (J / I_N): the transpose of a reshape view, no copy."""
        return self.data.reshape((-1, self.dims[-1]), order="F").T

    @cached_property
    def first_unfolding_t(self) -> np.ndarray:
        """Y_(1)^T, (J / I_1) x I_1: the transpose of a reshape view, no copy."""
        return self.data.reshape((self.dims[0], -1), order="F").T


def frobenius(a: np.ndarray) -> float:
    """||a||, summed in memory order as ``np.linalg.norm`` sums it, without
    that function's overhead: sqrt(a . a), or for complex ``a`` the dot
    products of its real and imaginary parts, by ``math.sqrt`` (the IEEE
    square root, as ``np.sqrt``)."""
    flat = a.ravel("K")
    if flat.dtype.kind == "c":
        re, im = flat.real, flat.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(flat @ flat)


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
    axes = (n - 1, *range(n - 1), *range(n, t.order))
    return t.data.transpose(axes).reshape((t.dims[n - 1], -1), order="F")


def fold(mat: np.ndarray, n: int, dims) -> DenseTensor:
    """Inverse of :func:`unfold` for the given target dimensions."""
    dims = tuple(int(d) for d in dims)
    _check_mode(len(dims), n)
    shape = (dims[n - 1],) + dims[: n - 1] + dims[n:]
    arr = np.asarray(mat).reshape(shape, order="F")
    return DenseTensor(np.moveaxis(arr, 0, n - 1))


def _khatri_rao_rows(rows) -> np.ndarray:
    """The transposed Khatri-Rao product, R x K, of the factors whose
    transposes are ``rows`` (R x I_n, with equal row counts): its column
    index runs over the factors' rows, first fastest, so ``.mT`` of the
    result is the K x R product.  Rows with leading batch axes (... x R x
    I_n) give one product per batch element.  The long axis is the inner
    one of every broadcast; an entry is the product of the last factor's
    entry with the others', taken from the last factor down."""
    out = rows[-1]
    for f in rows[-2::-1]:
        out = (out[..., :, :, None] * f[..., :, None, :]).reshape(*f.shape[:-1], -1)
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
    return _khatri_rao_rows([f.T for k, f in enumerate(factors) if k != n - 1]).T
