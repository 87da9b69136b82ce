"""Kruskal (CP) models: reconstruction, Gram caches, MTTKRP, gradient, ALS.

A :class:`KruskalModel` holds the factor matrices A^(n) of shape (I_n, R); a
component's scale lives in its columns.  It is the type that goes into and
comes out of a fit.  Inside the fit loops (:mod:`cpfast.solver`) the model is
one N x R x I_max array instead, the stack of :func:`stack`, whose block n
is A^(n)^T with zeros past column I_n, so every per-mode product is one
batched matmul; :func:`model_from_stack` views its factors without a copy.
The fit loops and the kernels they call read a stack's blocks A^(n)^T as
:func:`_row_views` and build no model; Khatri-Rao products are formed from
such rows, transposed (:func:`~cpfast.tensor._khatri_rao_rows`), and taken
as ``.mT`` views where a K x R product is needed.
Complex models use the Hermitian Gram convention C^(n) = A^(n)^H A^(n); all
transpose placements below are chosen so the same code path is exact for both
scalar kinds.  The module speaks models and stacks only: the stacked
vector that the dense Jacobian's columns index is the dense oracles' layout
(:func:`cpfast.oracle.as_vector`).

Every MTTKRP pass over a tensor Y goes through one of two kernels:
:func:`_last_mttkrp`, the mode-N product Y_(N)^T conj(K) for an R-column K
(summed over column slabs for real data), and :func:`_last_partial`, the
partial product P = Y x_N conj(A^(N)), of which the MTTKRPs of modes
1..N-1 are contractions (Phan, Tichavsky & Cichocki, IEEE TSP 2013);
:func:`_gradient` forms all N from the two.  The fit loops' dense residuals
are :func:`_residual_norms`.  All three read Y through the unfolding views
that the :class:`~cpfast.tensor.DenseTensor` makes once.  The one public
function that takes a (tensor, model) pair, :func:`relative_error`, checks
it at entry; the kernels check nothing.

:func:`_sweep` is one ALS sweep of a stack.  The ALS fit loop runs it on a
start that the fit built from the tensor, so it checks nothing, and it
returns the swept stack's Gram matrices with it.  What a sweep
needs that depends only on the dims, the rank and the dtype (the
contraction shapes, the LAPACK routines, the other modes of each mode) is a
:func:`_sweep_plan`, built once per shape.  The fit loop
(:mod:`cpfast.solver`) scores a batch of candidate stacks, B x N x R x
I_max, with one call of each kernel it needs: :func:`_batch_last_mttkrp`
and :func:`_gram_error`, or :func:`_residual_norms`.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import numpy as np

from .tensor import (
    COMPLEX,
    REAL,
    DenseTensor,
    ScalarKindError,
    _gaussian,
    _khatri_rao_rows,
    frobenius,
    unfold,
)

# Machine epsilon of float64, read once: the rank cutoffs below use it.
EPS = np.finfo(np.float64).eps
# The smallest normal float64, read once: :func:`_top_eigh`'s tolerance.
TINY = np.finfo(np.float64).tiny
# A real mode-N MTTKRP pass Y_(N)^T conj(K) sums slabs of c = max(64,
# MTTKRP_SLAB // (I_N R)) columns of the unfolding (see :func:`_last_mttkrp`).
# ``python3 tools/mttkrp_slabs.py``, one OpenBLAS thread on a 2-CPU x86-64
# host, ms per product as one matmul -> in slabs of c (-> of 2c):
#   100^3 R=5 1.01 -> 0.46 (0.99); R=10 1.23 -> 0.73 (1.58);
#   R=20 2.05 -> 1.45 (1.76); 200x200x50 R=5 3.54 -> 1.01 (2.64);
#   50x50x400 R=5 0.98 -> 0.50 (0.98); 1000x1000x8 R=3 15.8 -> 10.4 (16.1);
#   30^4 R=4 0.73 -> 0.42 (0.73); 300x300x10 R=2 1.01 -> 0.52 (0.82).
# At 2c the gain is gone, as if the BLAS's small-matrix GEMM path ended near
# I_N R c = 2^20 (an inference; the sum is exact on any BLAS).  Complex data
# gains nothing (100^3 R=5 2.95 -> 3.09, 60^3 0.51 -> 0.52), so it keeps
# one matmul.  Where one slab covers all K columns (every complex call and
# every small tensor) the kernel returns that matmul without slicing.
MTTKRP_SLAB = 2**19


def _load_scipy_extension(directory: Path, name: str) -> ModuleType:
    """scipy's compiled extension ``name`` (dotted, say
    ``scipy.linalg._flapack``), loaded from its file in ``directory``
    without running its package's ``__init__``: ``scipy.linalg``'s costs
    about 0.3 s of import (scipy's array-API layer, numpy.f2py and more),
    ``scipy.optimize``'s, which imports it, about 0.4 s and 50 MB of memory,
    where an extension costs a few ms.  The interpreter keeps one copy of an
    extension per file and name, so its routines are the objects the
    package's import gives, whichever loads first.  The load leaves
    ``sys.modules`` as it was, so a later import of the package binds its
    own module, with those routines, to the package.  With the extension
    already imported, that module; with no such file in ``directory``, the
    plain import."""
    if name in sys.modules:
        return sys.modules[name]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = Path(directory, name.rpartition(".")[2] + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(name, None)
            return module
    return importlib.import_module(name)


# find_spec on a top-level package runs none of its code.
SCIPY_DIR = Path(importlib.util.find_spec("scipy").origin).parent
FLAPACK = _load_scipy_extension(SCIPY_DIR / "linalg", "scipy.linalg._flapack")
_LAPACK_PREFIX = {np.dtype(np.float64): "d", np.dtype(np.complex128): "z"}


@dataclass
class KruskalModel:
    """Factor matrices A^(n) (I_n x R); component r is the outer product of
    the r-th columns."""

    factors: list

    def __post_init__(self):
        self.factors = [np.atleast_2d(np.asarray(f)) for f in self.factors]
        ranks = {f.shape[1] for f in self.factors}
        if len(ranks) != 1:
            raise ValueError("all factors must share the same column count")

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple([f.shape[0] for f in self.factors])

    @property
    def scalar_kind(self) -> str:
        return _same_kind(self.factors[0], self.factors[1:])


def stack(factors) -> np.ndarray:
    """The factors A^(n) as one N x R x I_max array whose block n is A^(n)^T,
    zero past column I_n (a copy)."""
    dims = [f.shape[0] for f in factors]
    x = np.zeros((len(dims), factors[0].shape[1], max(dims)), np.result_type(*factors))
    for xn, f in zip(x, factors):
        xn[:, : f.shape[0]] = f.T
    return x


def _row_views(x: np.ndarray, dims) -> list:
    """The blocks x[..., n, :, :I_n] (no copy) for the modes of ``dims``: the
    transposed factors A^(n)^T of the stack ``x``, or, for a batch of stacks
    (B x N x R x I_max), B x R x I_n arrays of them; the rows that
    :func:`~cpfast.tensor._khatri_rao_rows` takes."""
    return [x[..., n, :, :d] for n, d in enumerate(dims)]


def model_from_stack(x: np.ndarray, dims) -> KruskalModel:
    """The model whose factor A^(n) is the view x[n, :, :I_n]^T of the stack
    ``x`` (Fortran-ordered, no copy)."""
    return KruskalModel([r.T for r in _row_views(x, dims)])


def _unfolding_t(rows) -> np.ndarray:
    """K A^(1)^T, the transposed mode-1 unfolding of the model whose
    transposed factors are ``rows``, K the Khatri-Rao product of modes 2..N:
    one matmul, or one batched matmul for rows with leading batch axes."""
    return _khatri_rao_rows(rows[1:]).mT @ rows[0]


def reconstruct(model: KruskalModel) -> DenseTensor:
    """Sum of the R rank-one outer products, as a dense tensor.

    The mode-1 unfolding is built as (K A^(1)^T)^T (:func:`_unfolding_t`);
    it is Fortran-ordered, so folding it back is a reshape view and the
    tensor is written once.
    """
    mat = _unfolding_t([f.T for f in model.factors]).T
    return DenseTensor(mat.reshape(model.dims, order="F"))


@dataclass
class GramCache:
    """Per-iteration Gram products of a model's factors, stacked (R x R each).

    ``C[n]`` is A^(n)^H A^(n), N x R x R; ``gamma_excl[n]`` is the Hadamard
    product of all C^(k) except k = n, N x R x R.  Two more depend on the
    model alone, so a rejected step reuses them: ``kernel[n, m]``, N x N x R
    x R, is the Hadamard product of all C^(k) except k = n and k = m where
    n != m and zero where n = m, the pairwise Gammas of the Hessian's kernel
    K (see :func:`~cpfast.hessian.damped_core`), and ``c_masked[j, k]`` is
    C^(j), except the identity for the Hadamard product, all ones, where j =
    k (see :func:`second_order_term`).  The product of every C^(n),
    Gamma_full, is ``np.multiply.reduce(C)``.
    """

    C: np.ndarray
    gamma_excl: np.ndarray
    kernel: np.ndarray
    c_masked: np.ndarray


@lru_cache(maxsize=None)
def _exclusion_mask(n_modes: int) -> np.ndarray:
    """keep[m, k, n]: mode k enters the product that excludes modes n and m,
    for n in 0..N-1 and m in 0..N, where m = N excludes n alone; N + 1 x N x
    N x 1 x 1, symmetric in n and m below m = N.  Read-only."""
    k = np.arange(n_modes)
    skip = np.arange(n_modes + 1)[:, None, None]
    keep = (k[:, None] != k) & (k[:, None] != skip)
    keep = keep[..., None, None]
    keep.setflags(write=False)
    return keep


def gram_stack(x: np.ndarray) -> np.ndarray:
    """The Gram matrices A^(n)^H A^(n) of the stack ``x`` (see :func:`stack`),
    stacked N x R x R: one batched conj(X) X^T, to which the zero padding
    adds nothing."""
    return x.conj() @ x.mT


def gram_cache(C: np.ndarray) -> GramCache:
    """The Gram cache of the stacked Gram matrices ``C`` (N x R x R).

    Every Hadamard product comes from one masked ``multiply.reduce`` over the
    modes in ascending order; an excluded mode contributes an exact one.
    The masked stack is laid out [m, k, n] (see :func:`_exclusion_mask`).
    Its slices m < N reduce to the N x N products that exclude modes m and
    n, which are ``kernel`` once their diagonal is zeroed.  Its slice m = N,
    [j, k] = C^(j) unless j = k, reduces to ``gamma_excl`` and is
    ``c_masked``, whose blocks ``c_masked[j]`` are contiguous for the
    elementwise products of :func:`second_order_term`.
    """
    n = C.shape[0]
    keep = _exclusion_mask(n)
    masked = np.where(keep, C[:, None], 1.0)
    prods = np.multiply.reduce(masked, axis=1)
    kernel = np.where(keep[-1], prods[:n], 0.0)
    return GramCache(C, prods[n], kernel, masked[-1])


def build_gram_cache(model: KruskalModel) -> GramCache:
    return gram_cache(gram_stack(stack(model.factors)))


@lru_cache(maxsize=64)
def _contraction_shapes(dims: tuple, rank: int) -> tuple:
    """For each mode k < N - 1 (0-based) of a tensor of ``dims``, the shapes
    (R, right, I_k left) and (R, I_k, left) through which
    :func:`_contract_all_but` reads a partial product, with left and right
    the products of the sizes of modes 0..k-1 and k+1..N-2; None where
    there is no such mode to contract (k = N - 2 and k = 0)."""
    head = dims[:-1]
    shapes = []
    for k, d in enumerate(head):
        left = math.prod(head[:k])
        right = math.prod(head[k + 1 :])
        shapes.append((
            (rank, right, d * left) if k + 1 < len(head) else None,
            (rank, d, left) if k > 0 else None,
        ))
    return tuple(shapes)


def _contract_all_but(zt: np.ndarray, rows, k: int, shapes) -> np.ndarray:
    """Contract every mode of a partial product except mode k (0-based).

    Row r of ``zt`` (R x prod I_m) is the column-major vectorization of an
    array over the modes of ``rows``, the transposed factors (R x I_m); each
    mode m != k is contracted with conj(row r of its block).  ``shapes`` are
    the tensor's :func:`_contraction_shapes`.  Returns the R x I_k
    transposed result.  Batched matmul over r keeps the cost at one pass
    over ``zt`` without copying it.
    """
    right, left = shapes[k]
    x = zt
    # A mode of size one is contracted too: its factor's row still scales.
    if right is not None:
        kq = _khatri_rao_rows(rows[k + 1 :]).conj()
        x = (kq[:, None, :] @ zt.reshape(right))[:, 0]
    if left is not None:
        kl = _khatri_rao_rows(rows[:k]).conj()
        x = (x.reshape(left) @ kl[:, :, None])[..., 0]
    return x


def _same_kind(first: np.ndarray, others) -> str:
    """REAL or COMPLEX for arrays whose dtypes agree on it, read from
    ``dtype.kind`` alone; mixed input raises :class:`ScalarKindError`."""
    is_complex = first.dtype.kind == "c"
    for a in others:
        if (a.dtype.kind == "c") != is_complex:
            raise ScalarKindError("mixed real/complex operands are not supported")
    return COMPLEX if is_complex else REAL


def _check_pair(y: DenseTensor, model: KruskalModel) -> None:
    if y.dims != model.dims:
        raise ValueError(f"tensor dims {y.dims} do not match model {model.dims}")
    _same_kind(y.data, model.factors)


def _last_mttkrp(y: DenseTensor, kr: np.ndarray) -> np.ndarray:
    """Y_(N)^T conj(``kr``), I_N x R, for a K x R matrix ``kr``, K = J / I_N:
    one pass over the tensor, read as its mode-N unfolding (the view
    ``y.last_unfolding``).  With ``kr`` the Khatri-Rao product of modes
    1..N-1 it is the mode-N MTTKRP.  A batch of B matrices ``kr`` gives B x
    I_N x R, one pass per batch element.

    For real data the product is summed over column slabs of the unfolding,
    c = max(64, ``MTTKRP_SLAB`` // (I_N R)) columns each, in ascending order;
    for complex data c = K.  Where K <= c the product is one matmul of the
    whole unfolding, made without slicing.  A batch element's slabs, and
    their sum, are those of the element alone, so its result does not depend
    on the batch."""
    yt = y.last_unfolding
    krc = kr.conj()
    i_last, k = yt.shape
    # The width and the loop make no call: on small tensors the kernel is
    # one matmul whose Python overhead counts.
    width = MTTKRP_SLAB // (i_last * kr.shape[-1])
    width = k if yt.dtype.kind == "c" else width if width > 64 else 64
    if width >= k:
        return yt @ krc
    out = yt[:, :width] @ krc[..., :width, :]
    s = width
    while s < k:
        out += yt[:, s : s + width] @ krc[..., s : s + width, :]
        s += width
    return out


def _batch_last_mttkrp(y: DenseTensor, xs: np.ndarray) -> np.ndarray:
    """The mode-N MTTKRPs of the batch of stacks ``xs`` (B x N x R x I_max;
    see :func:`stack`), B x I_N x R: one broadcast Khatri-Rao product of
    modes 1..N-1 and one :func:`_last_mttkrp` call."""
    return _last_mttkrp(y, _khatri_rao_rows(_row_views(xs, y.dims[:-1])).mT)


def _last_partial(y: DenseTensor, last_row: np.ndarray) -> np.ndarray:
    """P = Y x_N conj(A^(N)) as R x (J / I_N), from ``last_row`` =
    A^(N)^T: one pass over the tensor, read as :func:`_last_mttkrp` reads
    it."""
    return last_row.conj() @ y.last_unfolding


def _gradient(
    y: DenseTensor,
    x: np.ndarray,
    gamma_excl: np.ndarray,
    last: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The gradient, the residual projection J^H vec(Y - Yhat), as a stack,
    from the model's stack ``x`` (see :func:`stack`), and its mode-N MTTKRP
    M^(N): block n is the transpose of M^(n) - A^(n) Gamma^(n)^T (the
    transpose is exact for the complex Hermitian Gamma and redundant for real
    data).

    All N MTTKRPs take two passes over the tensor.  Pass one is M^(N)
    (skipped when ``last`` already holds it).  Pass two is the partial
    product P = Y x_N conj(A^(N)), of size (J / I_N) x R; modes 1..N-1 are
    then contractions of P alone (Phan, Tichavsky & Cichocki, IEEE TSP
    2013).  Each MTTKRP is written straight into its block.
    """
    dims = y.dims
    rows = _row_views(x, dims)
    head = rows[:-1]
    if last is None:
        last = _last_mttkrp(y, _khatri_rao_rows(head).mT)
    pt = _last_partial(y, rows[-1])
    g = np.zeros(x.shape, x.dtype)
    shapes = _contraction_shapes(dims, x.shape[1])
    for k, d in enumerate(dims[:-1]):
        g[k, :, :d] = _contract_all_but(pt, head, k, shapes)
    g[-1, :, : dims[-1]] = last.T
    g -= (x.mT @ gamma_excl.mT).mT
    return g, last


def second_order_term(x: np.ndarray, cache: GramCache, v: np.ndarray) -> np.ndarray:
    """J^H M''(v, v) as a stack: the second directional derivative of the
    model with stack ``x`` (see :func:`stack`) along the stack ``v``,
    projected like :func:`_gradient`; ``cache`` is the model's Gram cache.

    M(x + t v) = [[A^(1) + t V^(1), ..., A^(N) + t V^(N)]], so M''(v, v) =
    2 sum_{n<m} [[... V^(n) ... V^(m) ...]].  Block k of J^H applied to
    M(x + t v) is (A^(k) + t V^(k)) P_k(t)^T with P_k(t) the Hadamard product
    over j != k of C^(j) + t E^(j), C^(j) = A^(j)^H A^(j) and E^(j) =
    A^(j)^H V^(j).  Block k of the result is twice its t^2 coefficient,
    2 (V^(k) p1_k^T + A^(k) p2_k^T), where p1_k and p2_k are the t^1 and t^2
    coefficients of P_k.  They come from a three-term recurrence over the
    modes, run for every k at once on N x N x R x R stacks in which mode k is
    masked (C -> 1, E -> 0), and each block is formed transposed, 2 (p1_k
    V^(k)^T + p2_k A^(k)^T), which is the stack's block.  The masked C stack
    is the cache's ``c_masked``.  Cost O(T R^2 + N^2 R^2) with T = sum I_n,
    and no pass over the tensor.
    """
    n_modes = x.shape[0]
    # c[j, k] is C^(j) and e[j, k] is E^(j), except 1 and 0 where j = k.
    c = cache.c_masked
    keep = _exclusion_mask(n_modes)[-1]
    e = np.where(keep, (x.conj() @ v.mT)[:, None], 0.0)
    # Multiply (q0 + q1 t + q2 t^2) by (c[j] + e[j] t) for j = 1..N-1,
    # dropping t^3; q0 is brought up to date one mode late, as the last
    # mode does not need it.
    q0, q1 = c[0], e[0]
    q2 = q1 * e[1]
    q1 = q1 * c[1]
    q1 += q0 * e[1]
    for j in range(2, n_modes):
        q0 = q0 * c[j - 1]
        q2 *= c[j]
        q2 += q1 * e[j]
        q1 *= c[j]
        q1 += q0 * e[j]
    out = q1 @ v
    out += q2 @ x
    out *= 2.0
    return out


def relative_error(
    y: DenseTensor, model: KruskalModel, ynorm: float | None = None
) -> float:
    """||Y - Yhat|| / ||Y||, from the dense residual.  ``ynorm``, when given,
    stands for ||Y||, so a caller that scores many models of one tensor takes
    its norm once."""
    _check_pair(y, model)
    if ynorm is None:
        ynorm = y.norm()
    if ynorm == 0.0:
        raise ZeroDivisionError("relative error undefined for a zero tensor")
    return frobenius(y.data - reconstruct(model).data) / ynorm


def _gram_error(xs: np.ndarray, lasts: np.ndarray, grams: np.ndarray) -> list:
    """Relative errors on a unit-norm Y of the models with the batch of
    stacks ``xs`` (B x N x R x I_max; see :func:`stack`), from their mode-N
    MTTKRPs ``lasts`` (B x I_N x R) and their stacked Gram matrices
    ``grams`` (B x N x R x R; see :func:`gram_stack`), as a list of B floats.

    ||Y - Yhat||^2 = 1 - 2 Re<A^(N), M^(N)> + 1^T Gamma_full 1 for ||Y|| = 1,
    with A^(N) read as the view x[N, :, :I_N]^T, so no model and no dense
    tensor is formed.  The terms are O(1) and cancel: the squared residual
    carries an absolute error of a few eps, i.e. ~eps / relerr in the
    result, so small errors need the dense residual instead.  Each product
    is one broadcast call whose per-model dot products are those of
    ``np.vdot``, so a model's error does not depend on the batch it is in.
    """
    b, i_last, _ = lasts.shape
    gamma_full = np.multiply.reduce(grams, axis=-3)
    a_last = xs[:, -1, :, :i_last].mT.reshape(b, -1)
    cross = np.vecdot(a_last, lasts.reshape(b, -1)).real
    # Kept as a quadratic form: gamma_full.sum() rounds differently.
    ones = _ones(grams.shape[-1], grams.dtype)
    model_sq = np.vecdot(ones, gamma_full @ ones).real
    return np.sqrt(np.maximum(1.0 - 2.0 * cross + model_sq, 0.0)).tolist()


@lru_cache(maxsize=None)
def _ones(r: int, dtype: np.dtype) -> np.ndarray:
    """The read-only all-ones vector of length ``r`` and ``dtype``."""
    ones = np.ones(r, dtype)
    ones.setflags(write=False)
    return ones


def _residual_norms(y: DenseTensor, xs: np.ndarray) -> list:
    """||Y - Yhat|| of the model of each stack in the batch ``xs`` (B x N x
    R x I_max; see :func:`stack`), as a list of B floats: one batched
    :func:`_unfolding_t`, subtracted in place from Y's transposed mode-1
    unfolding (a view), and one :func:`~cpfast.tensor.frobenius` per model,
    which sums in the memory order that :func:`relative_error` sums in.  One
    pass over the tensor per model."""
    rows = _unfolding_t(_row_views(xs, y.dims))
    res = np.subtract(y.first_unfolding_t, rows, out=rows)
    return [frobenius(r) for r in res]


def residual_decrease(
    y: DenseTensor,
    x: np.ndarray,
    cand: np.ndarray,
    grams: np.ndarray,
    cand_grams: np.ndarray,
    last: np.ndarray,
) -> tuple[float, np.ndarray]:
    """The decrease ||Y - M(x)||^2 - ||Y - M(x')||^2 from the stack x to the
    stack x' = ``cand`` (see :func:`stack`), and the mode-N MTTKRP of x'.

    ``grams`` and ``cand_grams`` are their Gram stacks and ``last`` the
    mode-N MTTKRP of x.  With S = x' - x and D = M(x') - M(x), the decrease
    is 2 Re<Y, D> - (||M(x')||^2 - ||M(x)||^2), and both terms are formed
    from S, so its rounding scales with ||S||, not with ||Y||^2 as in
    :func:`_gram_error`:

    - Re<Y, D> = Re<A^(N), dM> + Re<S^(N), M^(N) + dM>, with dM =
      Y_(N)^T conj(KR(A') - KR(A)) over modes 1..N-1 (one pass over the
      tensor) and the Khatri-Rao difference telescoped as the sum over k of
      KR(A'_1, ..., A'_{k-1}, S_k, A_{k+1}, ..., A_{N-1});
    - the norms' difference telescopes the Hadamard products of the Grams
      the same way, with dC_k = A_k^H S_k + S_k^H A_k + S_k^H S_k.
    """
    n_modes = x.shape[0]
    s = cand - x
    a, b, d = (_row_views(z, y.dims) for z in (x, cand, s))
    dk = _khatri_rao_rows(d[:1] + a[1:-1])
    for k in range(1, n_modes - 1):
        dk = dk + _khatri_rao_rows(b[:k] + d[k : k + 1] + a[k + 1 : -1])
    dm = _last_mttkrp(y, dk.mT)
    cross = np.vdot(a[-1].mT, dm).real + np.vdot(d[-1].mT, last + dm).real
    e = x.conj() @ s.mT
    dc = e + e.conj().mT + s.conj() @ s.mT
    # terms[k, j]: C'_j before mode k, dC_k at it, C_j after it.
    j = np.arange(n_modes)[:, None, None]
    k = j[:, None]
    terms = np.where(j < k, cand_grams, np.where(j == k, dc, grams))
    return 2.0 * cross - np.multiply.reduce(terms, axis=1).sum().real, last + dm


def normalize_with_grams(
    x: np.ndarray, grams: np.ndarray, last: np.ndarray | None = None
) -> tuple[np.ndarray, GramCache, np.ndarray | None]:
    """Rescale each component of the model with stack ``x`` (see
    :func:`stack`), of N >= 2 modes, to the same norm in every mode, using
    its stacked Gram matrices ``grams`` (N x R x R).

    Every mode-n vector of component r gets the geometric mean of the
    component's mode norms sqrt(diag C^(n)) as its norm; a zero-norm vector
    raises ``ZeroDivisionError``.  The largest-magnitude entry of each
    first-mode vector is made real-positive, the compensating phase going to
    the last mode.  The column scales s_n of a component multiply to one, so
    the reconstruction is unchanged.  Returns the normalized stack, X times
    the N x R scales, its Gram cache from conj(s_n)^T s_n * C^(n) (no factor
    products) and its mode-N MTTKRP ``last`` / conj(s_N) (None when ``last``
    is None).
    """
    n_modes = x.shape[0]
    norms = np.sqrt(grams.diagonal(0, 1, 2).real)
    if not norms.all():
        zero = np.flatnonzero(~norms.all(axis=0))
        raise ZeroDivisionError(f"component {zero[0]} has a zero-norm vector")
    scales = np.multiply.reduce(norms) ** (1.0 / n_modes) / norms
    scales = scales.astype(x.dtype, copy=False)
    # The padding's zeros are never a row's largest magnitude.
    phase = _top_phase(x[0].T)
    scales[0] /= phase
    scales[-1] *= phase
    cache = gram_cache(grams * (scales.conj()[:, :, None] * scales[:, None, :]))
    if last is not None:
        last = last / scales[-1].conj()
    return x * scales[:, :, None], cache, last


def random_init(dims, rank: int, rng, scalar_kind="real") -> KruskalModel:
    return KruskalModel([_gaussian(rng, (d, rank), scalar_kind) for d in dims])


def _unit_phase(x: np.ndarray) -> np.ndarray:
    """x / |x| elementwise (the sign, for real data), and 1 where x is 0."""
    zero = np.abs(x) == 0
    # Adding 1 to both where x is 0 makes 0/0 a 1 and leaves x / |x| exact.
    return (x + zero) / (np.abs(x) + zero)


def _top_phase(u: np.ndarray) -> np.ndarray:
    """Phase of each column's largest-magnitude entry (1 for a zero column).
    For real data it is ``copysign(1, entry)``: the value of
    :func:`_unit_phase` at every nonzero entry and at +0, from one call."""
    top = u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])]
    return _unit_phase(top) if top.dtype.kind == "c" else np.copysign(1.0, top)


@lru_cache(maxsize=None)
def _lapack(name: str, dtype: np.dtype):
    """The LAPACK routine ``?name`` for ``dtype``, such as ``getrf``: ``d``
    for float64, ``z`` for complex128 (``TypeError`` for any other dtype)."""
    prefix = _LAPACK_PREFIX.get(np.dtype(dtype))
    if prefix is None:
        raise TypeError(f"no LAPACK routine ?{name} for dtype {np.dtype(dtype)}")
    return getattr(FLAPACK, prefix + name)


def _top_eigh(gram: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of the Hermitian ``gram``, descending, and
    their eigenvectors, from LAPACK's ``?evr`` asked for those k alone: for
    part of the spectrum it runs bisection and inverse iteration.  The
    bisection tolerance is twice the underflow threshold, which LAPACK
    documents as the most accurate setting (zero means eps ||T||)."""
    n = gram.shape[0]
    evr = _lapack("heevr" if gram.dtype.kind == "c" else "syevr", gram.dtype)
    lam, v, _, _, info = evr(gram, range="I", il=n - k + 1, iu=n, abstol=2.0 * TINY)
    if info:
        raise np.linalg.LinAlgError(f"?evr failed (info {info})")
    return lam[:k][::-1], v[:, ::-1]


def _leading_left_vectors(mat: np.ndarray, rank: int) -> np.ndarray:
    """Up to ``rank`` leading left singular vectors from the smaller Gram,
    whose min(``rank``, n) leading eigenpairs alone are computed.

    Wide matrices use the eigenvectors of M M^H.  Tall ones use M^H M = V S^2
    V^H and U = M V S^{-1}, kept only where S^2 exceeds the Gram's rounding
    level eps * rows * S_max^2, so fewer than ``rank`` columns can come back.
    That U is orthonormal only to about eps (S_max / S_min)^2, so one thin QR
    makes it orthonormal again, keeping each column's place and sign.
    """
    rows, cols = mat.shape
    if rows <= cols:
        return _top_eigh(mat @ mat.conj().T, min(rank, rows))[1]
    lam, v = _top_eigh(mat.conj().T @ mat, min(rank, cols))
    keep = lam > EPS * rows * lam[0]
    q, r = np.linalg.qr((mat @ v[:, keep]) / np.sqrt(lam[keep])[None, :])
    return q * _unit_phase(r.diagonal())[None, :]


def svd_init(y: DenseTensor, rank: int, seed: int) -> KruskalModel:
    """Leading mode-n left singular vectors, from the top R eigenpairs of the
    smaller Gram of each unfolding (I_n x I_n when wide, (J/I_n) x (J/I_n)
    when tall; see :func:`_leading_left_vectors`).

    Missing columns (R above the unfolding's rank) are random unit-norm draws
    from ``np.random.default_rng([seed, 0])``, made at the first mode that
    has fewer than R columns and shared by the later ones, so a start that
    draws nothing makes no generator.  Signs/phases follow a fixed
    rule, so the init does not depend on which LAPACK routine produced the
    vectors: in modes 1..N-1 each singular vector's largest-magnitude entry
    is real and positive; in mode N each column is rotated so that its
    rank-one term has a real, positive inner product with Y, i.e. every
    component starts out pointing toward the data rather than away from it.
    That rule takes the mode-N MTTKRP, one pass over ``y``.

    A fit takes this start for ``init="svd"`` of Y's ST-HOSVD core wherever
    the core's GEVD start does not apply (order 2, fewer than R columns in
    mode 1 or 2) or does not exist (see :func:`cpfast.solver._start`); it
    never runs on Y itself.
    """
    factors, rng = [], None
    for n in range(1, y.order + 1):
        u = _leading_left_vectors(unfold(y, n), rank)
        u = u / _top_phase(u)
        if u.shape[1] < rank:
            rng = rng or np.random.default_rng([seed, 0])
            extra = _gaussian(rng, (u.shape[0], rank - u.shape[1]), y.scalar_kind)
            extra = extra / np.linalg.norm(extra, axis=0, keepdims=True)
            u = np.concatenate((u, extra.astype(u.dtype)), axis=1)
        factors.append(u)
    last = _last_mttkrp(y, _khatri_rao_rows([f.T for f in factors[:-1]]).mT)
    inner = np.sum(factors[-1].conj() * last, axis=0)
    factors[-1] = factors[-1] * _unit_phase(inner)
    return KruskalModel(factors)


def gevd_init(y: DenseTensor, rng) -> KruskalModel | None:
    """The GEVD start of a tensor of order >= 3 whose first two dims both
    equal R, such as the ST-HOSVD core of a fit (Sanchez & Kowalski, J.
    Chemometrics 4, 1990; Leurgans, Ross & Abel, SIAM J. Matrix Anal. Appl.
    14(4), 1993; Tensorlab's ``cpd_gevd``), exact on a noiseless rank-R
    tensor whose first two factors are invertible.

    Modes 3..N are merged into one, the Fortran-order reshape to R x R x K,
    K = prod_{n>=3} I_n, whose mode-3 factor is KR(A^(N), ..., A^(3)).  Two
    mixtures of its mode-3 slices, S_i = Y x_3 w_i with real Gaussian
    weights w_1, w_2 from ``rng``, are A diag(C^T w_i) B^T, so A is the
    eigenvectors of S_1 S_2^{-1} = A diag(C^T w_1 / C^T w_2) A^{-1}; each
    column's largest-magnitude entry is made real and positive, as in
    :func:`svd_init`.  Then B^T = A^{-1} S_1, and C solves the normal
    equations C Gamma^T = M^(3), Gamma = (A^H A) * (B^H B), with M^(3) the
    merged tensor's mode-3 MTTKRP, which does not depend on C.  Every
    inverse is a ``np.linalg.solve``.  At order >= 4 each column of C, read
    as an I_3 x ... x I_N tensor, is split into its mode-3..N columns by
    successive rank-1 SVDs (one batched ``np.linalg.svd`` per split mode),
    exact where the column is rank-1, as it is on a noiseless rank-R tensor.

    Returns the model, or None where the start does not exist: K < 2, a
    real tensor whose pencil has a complex eigenvalue pair, a singular
    solve, a failed split or a non-finite factor.
    """
    rank = y.dims[0]
    merged = DenseTensor(y.data.reshape((rank, rank, -1), order="F"))
    if merged.dims[2] < 2:
        return None
    weights = rng.standard_normal((merged.dims[2], 2))
    s1, s2 = np.moveaxis(merged.data @ weights, -1, 0)
    try:
        a = np.linalg.eig(np.linalg.solve(s2.T, s1.T).T).eigenvectors
        # eig returns complex vectors for real data only at a complex pair.
        if a.dtype.kind != s1.dtype.kind:
            return None
        a = a / _top_phase(a)
        b = np.linalg.solve(a, s1).T
        last = _last_mttkrp(merged, _khatri_rao_rows([a.T, b.T]).mT)
        gamma = (a.conj().T @ a) * (b.conj().T @ b)
        rest = np.linalg.solve(gamma, last.T).T
        # The split of finite columns is finite.
        if not (np.isfinite(b).all() and np.isfinite(rest).all()):
            return None
        factors = [a, b]
        for d in y.dims[2:-1]:
            # Column r of ``rest`` as a d x (rest rows / d) matrix, batched.
            mats = rest.reshape((d, -1, rank), order="F").transpose(2, 0, 1)
            u, s, vh = np.linalg.svd(mats, full_matrices=False)
            factors.append((u[:, :, 0] * s[:, :1]).T)
            rest = vh[:, 0, :].T
    except np.linalg.LinAlgError:
        return None
    return KruskalModel(factors + [rest])


def st_hosvd(y: DenseTensor, rank: int) -> tuple[list, DenseTensor, np.ndarray]:
    """Sequentially truncated HOSVD (Vannieuwenhoven, Vandebril & Meerbergen,
    SIAM J. Sci. Comput. 34(2), 2012): bases U_n with orthonormal columns,
    the core G = Y x_1 U_1^H ... x_N U_N^H, and ``lead``, the mode-N
    unfolding of Y x_1 U_1^H ... x_{N-1} U_{N-1}^H (I_N x prod_{n<N} R_n).

    Mode n's basis is the :func:`_leading_left_vectors` of the mode-n
    unfolding of Y already projected in modes 1..n-1, at most ``rank``
    columns (fewer where that unfolding has lower numerical rank).  A mode
    with I_n <= ``rank`` keeps the identity as its basis: it is not
    compressed.  Each projection is one matmul U_n^H X_(1) on the mode-1
    unfolding view of the working tensor X; read column-major, its result is
    X projected in its first mode, with that mode moved last.  After N
    projections the modes are back in order, and no unfolding is copied.
    (U_n^H is made row-major first: at 100^3 that halves the matmul's time.)
    ``lead`` is the last projection's input, so it costs nothing: with A_n =
    U_n B_n, the mode-N MTTKRP Y_(N) conj(KR(A_1..A_{N-1})) is ``lead``
    conj(KR(B_1..B_{N-1})), with no pass over Y.
    """
    x = y.data
    bases = []
    for d in y.dims:
        mat = x.reshape((d, -1), order="F")
        if d <= rank:
            u = np.eye(d, dtype=x.dtype)
        else:
            u = _leading_left_vectors(mat, rank)
        uh = np.ascontiguousarray(u.conj().T)
        x = (uh @ mat).T.reshape(x.shape[1:] + (u.shape[1],), order="F")
        bases.append(u)
    return bases, DenseTensor(x), mat


def pinv_psd(gamma: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues below eps * R * lambda_max are truncated.  An ALS sweep
    (:func:`_sweep`) falls back to it where a Gram matrix is not numerically
    positive definite (see :func:`_solve_gram`).
    """
    w, v = np.linalg.eigh(gamma)
    r = gamma.shape[0]
    cutoff = EPS * r * max(w.max(initial=0.0), 0.0)
    inv_w = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (v * inv_w[None, :]) @ v.conj().T


class _SweepPlan(NamedTuple):
    """What an ALS sweep needs besides the tensor and the stack, fixed by the
    dims, the rank and the dtype: for each mode the other modes, ascending;
    :func:`_contraction_shapes`; the LAPACK routines ``?posv``, ``?pocon``
    and ``?lange``; and :func:`pinv_psd`'s cutoff eps * R on the reciprocal
    condition estimate."""

    others: tuple
    shapes: tuple
    lapack: tuple
    rcond_min: float


@lru_cache(maxsize=64)
def _sweep_plan(dims: tuple, rank: int, dtype: np.dtype) -> _SweepPlan:
    """The :class:`_SweepPlan` of ``dims``, ``rank`` and ``dtype``, built
    once and then shared by every sweep of that shape."""
    modes = range(len(dims))
    return _SweepPlan(
        tuple(tuple(k for k in modes if k != n) for n in modes),
        _contraction_shapes(dims, rank),
        tuple(_lapack(name, dtype) for name in ("posv", "pocon", "lange")),
        EPS * rank,
    )


def _solve_gram(gamma: np.ndarray, rhs: np.ndarray, plan: _SweepPlan) -> np.ndarray:
    """Gamma^{-1} ``rhs`` for the Hermitian PSD R x R ``gamma``: one Cholesky
    factorization and solve, one ``?posv`` call from the LAPACK routines of
    ``plan``, which also returns the factor.

    Where the factorization fails, or the reciprocal condition estimate of
    ``?pocon`` from that factor is at or below :func:`pinv_psd`'s cutoff
    eps * R, the result is ``pinv_psd(gamma) @ rhs`` instead, so a
    rank-deficient Gamma keeps the truncated pseudo-inverse rather than a
    huge solution.
    """
    posv, pocon, lange = plan.lapack
    chol, solution, info = posv(gamma, rhs)
    if not info:
        rcond, _ = pocon(chol, lange("1", gamma))
        if rcond > plan.rcond_min:
            return solution
    return pinv_psd(gamma) @ rhs


def _sweep(
    y: DenseTensor, x: np.ndarray, plan: _SweepPlan
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ALS sweep of the model with stack ``x`` (see :func:`stack`),
    updating factors in ascending mode order, with ``plan`` the
    :func:`_sweep_plan` of the pair.

    Returns the swept stack, a new array, its mode-N MTTKRP M^(N) and its
    Gram stack, which equals ``gram_stack`` of the swept stack.  Cost: two
    passes over the tensor.  The partial product P = Y x_N conj(A^(N)) is
    formed once, and modes 1..N-1 are contractions of P with the current
    factors; this is exact because A^(N) changes only in the last update.
    Mode N is one full MTTKRP of the updated factors 1..N-1, which is also
    the new model's M^(N), since M^(N) does not depend on A^(N).

    Each update solves the normal equations Gamma^(n) A^(n)^T = M^(n)^T by
    Cholesky (:func:`_solve_gram`, which falls back to :func:`pinv_psd` where
    Gamma^(n) is not numerically positive definite) and writes the solution,
    the stack's block, straight into it.  Gamma^(n) is Hermitian, so this is
    the textbook A^(n) = M^(n) Gamma^(n)^+T for real and complex data alike.
    The Gram stack is taken once and then refreshed one mode at a time, and
    each Gamma^(n) is the running product of the other modes' Grams in
    ascending order, as in :func:`gram_cache`.  Nothing is checked: the
    caller passes a stack of ``y``'s dims and scalar kind.
    """
    x = x.copy()
    rows = _row_views(x, y.dims)
    head = rows[:-1]
    n_head = len(head)
    grams = gram_stack(x)
    pt = _last_partial(y, rows[-1])
    for n, others in enumerate(plan.others):
        if n < n_head:
            rhs = _contract_all_but(pt, head, n, plan.shapes)
        else:
            last = _last_mttkrp(y, _khatri_rao_rows(head).mT)
            rhs = last.T
        gamma = grams[others[0]]
        for k in others[1:]:
            gamma = gamma * grams[k]
        rows[n][...] = _solve_gram(gamma, rhs, plan)
        # gram_stack of the new block, written in place.
        np.matmul(x[n].conj(), x[n].mT, out=grams[n])
    return x, last, grams
