"""Kruskal (CP) models: reconstruction, Gram caches, MTTKRP, gradient, ALS.

A :class:`KruskalModel` holds the factor matrices A^(n) of shape (I_n, R); a
component's scale lives in its columns.  It is the type that goes into and
comes out of a fit.  Inside the fit loops (:mod:`cpfast.solver`) the model is
one N x R x I_max array instead, the stack of :func:`stack`, whose block n
is A^(n)^T with zeros past column I_n, so every per-mode product is one
batched matmul; :func:`model_from_stack` views its factors without a copy.
Complex models use the Hermitian Gram convention C^(n) = A^(n)^H A^(n); all
transpose placements below are chosen so the same code path is exact for both
scalar kinds.

A stacked vector has one block per mode, vec(V^(n)) in column-major order
(:meth:`KruskalModel.as_vector`); :func:`pack` and :func:`unpack` copy it
to and from the stack layout, for the vector-form wrappers that ``verify``
and the tests call; the fit loops never do.  The
MTTKRPs of modes 1..N-1 are contractions of the partial product P = Y x_N
conj(A^(N)) (Phan, Tichavsky & Cichocki, IEEE TSP 2013).

:func:`als_step` is one sweep of a stack; ALS-ls's extrapolation is scored by
the fit loop (:mod:`cpfast.solver`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import (
    COMPLEX,
    REAL,
    DenseTensor,
    ScalarKindError,
    _check_mode,
    _gaussian,
    _khatri_rao_of,
    frobenius,
    khatri_rao_excl,
    unfold,
)


@dataclass
class KruskalModel:
    """Factor matrices A^(n) (I_n x R); component r is the outer product of
    the r-th columns."""

    factors: list

    def __post_init__(self):
        self.factors = [
            f if type(f) is np.ndarray and f.ndim == 2
            else np.atleast_2d(np.asarray(f))
            for f in self.factors
        ]
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

    def copy(self) -> "KruskalModel":
        return KruskalModel([f.copy() for f in self.factors])

    def as_vector(self) -> np.ndarray:
        """Concatenated column-major vectorizations of all factors."""
        return np.concatenate([f.reshape(-1, order="F") for f in self.factors])


def complex_model(model: KruskalModel) -> KruskalModel:
    """The same model with complex128 factors."""
    return KruskalModel([f.astype(np.complex128) for f in model.factors])


def stack(factors) -> np.ndarray:
    """The factors A^(n) as one N x R x I_max array whose block n is A^(n)^T,
    zero past column I_n (a copy)."""
    dims = [f.shape[0] for f in factors]
    x = np.zeros((len(dims), factors[0].shape[1], max(dims)), np.result_type(*factors))
    for xn, f in zip(x, factors):
        xn[:, : f.shape[0]] = f.T
    return x


def model_from_stack(x: np.ndarray, dims) -> KruskalModel:
    """The model whose factor A^(n) is the view x[n, :, :I_n]^T of the stack
    ``x`` (Fortran-ordered, no copy)."""
    return KruskalModel([xn[:, :d].T for xn, d in zip(x, dims)])


def pack(vec: np.ndarray, dims, rank: int) -> np.ndarray:
    """The stacked vector ``vec`` in the layout of :func:`stack` (a copy)."""
    return stack(model_from_vector(vec, dims, rank).factors)


def unpack(x: np.ndarray, dims) -> np.ndarray:
    """The stacked vector of the stack ``x``: the inverse of :func:`pack`."""
    return model_from_stack(x, dims).as_vector()


def model_from_vector(vec: np.ndarray, dims, rank: int) -> KruskalModel:
    """The model whose factor A^(n) is block n of ``vec``, as a view."""
    blocks = np.split(np.asarray(vec), np.cumsum([d * rank for d in dims])[:-1])
    return KruskalModel([b.reshape(rank, d).T for b, d in zip(blocks, dims)])


def reconstruct(model: KruskalModel) -> DenseTensor:
    """Sum of the R rank-one outer products, as a dense tensor.

    The mode-1 unfolding is built as (K A^(1)^T)^T, with K the Khatri-Rao
    product of the other factors; it is Fortran-ordered, so folding it back
    is a reshape view and the tensor is written once.
    """
    mat = (khatri_rao_excl(model.factors, 1) @ model.factors[0].T).T
    return DenseTensor(mat.reshape(model.dims, order="F"))


@dataclass
class GramCache:
    """Per-iteration Gram products of a model's factors, stacked (R x R each).

    ``C[n]`` is A^(n)^H A^(n), N x R x R; ``gamma_excl[n]`` is the Hadamard
    product of all C^(k) except k = n, N x R x R; ``gamma_pair[n, m]``
    excludes both n and m (and equals ``gamma_excl[n]`` on the diagonal),
    N x N x R x R; ``gamma_full`` includes every mode.
    """

    C: np.ndarray
    gamma_excl: np.ndarray
    gamma_pair: np.ndarray
    gamma_full: np.ndarray


@lru_cache(maxsize=None)
def _exclusion_mask(n_modes: int) -> np.ndarray:
    """keep[n, m, k]: mode k enters the product that excludes modes n and m,
    for n, m in 0..N, where index N excludes nothing.  Read-only."""
    skip = np.arange(n_modes + 1)
    k = np.arange(n_modes)
    keep = (k != skip[:, None, None]) & (k != skip[None, :, None])
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
    """
    n_modes = C.shape[0]
    prods = np.multiply.reduce(np.where(_exclusion_mask(n_modes), C, 1.0), axis=2)
    return GramCache(
        C, prods[:n_modes, n_modes], prods[:n_modes, :n_modes], prods[-1, -1]
    )


def build_gram_cache(model: KruskalModel) -> GramCache:
    return gram_cache(gram_stack(stack(model.factors)))


def _contract_all_but(zt: np.ndarray, factors, k: int) -> np.ndarray:
    """Contract every mode of a partial product except mode k (0-based).

    Row r of ``zt`` (R x prod I_m) is the column-major vectorization of an
    array over the modes of ``factors``; each mode m != k is contracted with
    conj(column r of its factor).  Returns the I_k x R result.  Batched matmul
    over r keeps the cost at one pass over ``zt`` without copying it.
    """
    dims = [f.shape[0] for f in factors]
    r = zt.shape[0]
    left = math.prod(dims[:k])
    right = math.prod(dims[k + 1 :])
    x = zt.reshape((r, right, dims[k] * left))
    # A mode of size one is contracted too: its factor's row still scales.
    if k + 1 < len(factors):
        kq = _khatri_rao_of(factors[k + 1 :]).conj().T
        x = kq[:, None, :] @ x
    x = x.reshape((r, dims[k], left))
    if k > 0:
        kl = _khatri_rao_of(factors[:k]).conj().T
        x = x @ kl[:, :, None]
    return x.reshape((r, dims[k])).T


def _last_mode_rows(y: DenseTensor) -> np.ndarray:
    """Y viewed (no copy) as (J / I_N) x I_N: the transposed mode-N unfolding."""
    return y.data.reshape((-1, y.dims[-1]), order="F")


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


def mttkrp(y: DenseTensor, model: KruskalModel, n: int) -> np.ndarray:
    """Matricized tensor times Khatri-Rao product for mode n (1-based).

    Equals ``unfold(y, n) @ khatri_rao_excl(model.factors, n).conj()`` but
    reads the Fortran-ordered tensor through reshape views, never copying an
    unfolding.  Mode N is one matmul with the Khatri-Rao product of modes
    1..N-1; a mode n < N is a contraction of the partial product
    P = Y x_N conj(A^(N)), as in :func:`mttkrp_all`.  For complex data the
    Khatri-Rao factors are conjugated, matching the Hermitian normal
    equations; for real data the conjugation is a no-op.
    """
    _check_pair(y, model)
    _check_mode(model.order, n)
    factors = model.factors
    if n == model.order:
        return _last_mode_rows(y).T @ _khatri_rao_of(factors[:-1]).conj()
    return _contract_all_but(_last_partial(y, factors[-1]), factors[:-1], n - 1)


def mttkrp_all(
    y: DenseTensor, model: KruskalModel, last: np.ndarray | None = None
) -> list:
    """All N MTTKRPs of one model in two passes over the tensor.

    Pass one is the mode-N MTTKRP (skipped when ``last`` already holds it).
    Pass two is the partial product P = Y x_N conj(A^(N)), of size
    (J / I_N) x R; modes 1..N-1 are then contractions of P alone (Phan,
    Tichavsky & Cichocki, IEEE TSP 2013).
    """
    _check_pair(y, model)
    if last is None:
        last = mttkrp(y, model, model.order)
    pt = _last_partial(y, model.factors[-1])
    head = model.factors[:-1]
    return [_contract_all_but(pt, head, k) for k in range(len(head))] + [last]


def _last_partial(y: DenseTensor, last_factor: np.ndarray) -> np.ndarray:
    """P = Y x_N conj(A^(N)) as R x (J / I_N): one pass over the tensor."""
    return last_factor.conj().T @ _last_mode_rows(y).T


def gradient(
    y: DenseTensor, model: KruskalModel, cache: GramCache | None = None
) -> np.ndarray:
    """Stacked residual projection J^H vec(E) with E = Y - Yhat.

    Block n is vec(M^(n) - A^(n) Gamma^(n)^T), with M^(n) the mode-n MTTKRP
    from :func:`mttkrp_all` (two passes over the tensor); see
    :func:`_gradient` for the stacked form.
    """
    cache = cache or build_gram_cache(model)
    mttkrps = mttkrp_all(y, model)
    return unpack(_gradient(stack(model.factors), cache.gamma_excl, mttkrps), model.dims)


def _gradient(x: np.ndarray, gamma_excl: np.ndarray, mttkrps: list) -> np.ndarray:
    """The gradient as a stack, from the model's stack ``x``: block n is the
    transpose of M^(n) - A^(n) Gamma^(n)^T (the transpose is exact for the
    complex Hermitian Gamma and redundant for real data)."""
    g = np.zeros(x.shape, x.dtype)
    for gn, m in zip(g, mttkrps):
        gn[:, : m.shape[0]] = m.T
    g -= (x.mT @ gamma_excl.mT).mT
    return g


def second_order_term(factors, grams: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """J^H M''(v, v): the model's second directional derivative along the
    stacked direction ``vec`` = v, projected like :func:`gradient`.

    M(x + t v) = [[A^(1) + t V^(1), ..., A^(N) + t V^(N)]], so M''(v, v) =
    2 sum_{n<m} [[... V^(n) ... V^(m) ...]].  Block k of J^H applied to
    M(x + t v) is (A^(k) + t V^(k)) P_k(t)^T with P_k(t) the Hadamard product
    over j != k of C^(j) + t E^(j), C^(j) = A^(j)^H A^(j) (``grams``, stacked
    N x R x R) and E^(j) = A^(j)^H V^(j).  Block k of the result is twice its
    t^2 coefficient, 2 (V^(k) p1_k^T + A^(k) p2_k^T), where p1_k and p2_k
    are the t^1 and t^2 coefficients of P_k; see :func:`_second_order` for
    the stacked form.  Cost O(T R^2 + N^2 R^2) with T = sum I_n, and no pass
    over the tensor.
    """
    dims = [f.shape[0] for f in factors]
    v = pack(np.asarray(vec), dims, grams.shape[1])
    return unpack(_second_order(stack(factors), grams, v), dims)


def _second_order(x: np.ndarray, grams: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`second_order_term` on the stacks ``x`` of the model and ``v``
    of the direction.

    p1_k and p2_k come from a three-term recurrence over the modes, run for
    every k at once on N x N x R x R stacks in which mode k is masked (C -> 1,
    E -> 0).  Each block is formed transposed, 2 (p1_k V^(k)^T + p2_k
    A^(k)^T), which is the stack's block.
    """
    n_modes = x.shape[0]
    # c[j, k] is C^(j) and e[j, k] is E^(j), except 1 and 0 where j = k.
    keep = _exclusion_mask(n_modes)[:n_modes, n_modes]
    c = np.where(keep, grams[:, None], 1.0)
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


def relative_error(y: DenseTensor, model: KruskalModel) -> float:
    ynorm = y.norm()
    if ynorm == 0.0:
        raise ZeroDivisionError("relative error undefined for a zero tensor")
    return frobenius(y.data - reconstruct(model).data) / ynorm


def gram_relative_error(
    model: KruskalModel, last: np.ndarray, grams: np.ndarray
) -> float:
    """Relative error of ``model`` on a unit-norm Y, from the mode-N MTTKRP
    and the Gram matrices.

    ||Y - Yhat||^2 = 1 - 2 Re<A^(N), M^(N)> + 1^T Gamma_full 1 for ||Y|| = 1,
    where ``last`` is M^(N) = mttkrp(y, model, N) and ``grams`` the stacked
    Gram matrices of the factors (see :func:`gram_stack`).  No dense tensor
    is formed.  The terms are O(1) and cancel: the squared residual carries
    an absolute error of a few eps, i.e. ~eps / relerr in the result, so
    small errors need :func:`relative_error` instead.
    """
    gamma_full = np.multiply.reduce(grams)
    cross = np.vdot(model.factors[-1], last).real
    # Kept as a quadratic form: gamma_full.sum() rounds differently.
    ones = np.ones(model.rank, dtype=model.factors[0].dtype)
    model_sq = np.vdot(ones, gamma_full @ ones).real
    return float(np.sqrt(max(1.0 - 2.0 * cross + model_sq, 0.0)))


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
    :func:`gram_relative_error`:

    - Re<Y, D> = Re<A^(N), dM> + Re<S^(N), M^(N) + dM>, with dM =
      Y_(N)^T conj(KR(A') - KR(A)) over modes 1..N-1 (one pass over the
      tensor) and the Khatri-Rao difference telescoped as the sum over k of
      KR(A'_1, ..., A'_{k-1}, S_k, A_{k+1}, ..., A_{N-1});
    - the norms' difference telescopes the Hadamard products of the Grams
      the same way, with dC_k = A_k^H S_k + S_k^H A_k + S_k^H S_k.
    """
    n_modes = x.shape[0]
    s = cand - x
    a, b, d = (model_from_stack(z, y.dims).factors for z in (x, cand, s))
    dk = _khatri_rao_of(d[:1] + a[1:-1])
    for k in range(1, n_modes - 1):
        dk = dk + _khatri_rao_of(b[:k] + d[k : k + 1] + a[k + 1 : -1])
    dm = _last_mode_rows(y).T @ dk.conj()
    cross = np.vdot(a[-1], dm).real + np.vdot(d[-1], last + dm).real
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
    scales = (np.multiply.reduce(norms) ** (1.0 / n_modes) / norms).astype(x.dtype)
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
    """Phase of each column's largest-magnitude entry (1 for a zero column)."""
    return _unit_phase(u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])])


@lru_cache(maxsize=None)
def _lapack(name: str, dtype: np.dtype):
    """The LAPACK routine ``?name`` for ``dtype``, such as ``getrf``."""
    import scipy.linalg  # already loaded by cpfast.oracle

    return scipy.linalg.get_lapack_funcs((name,), dtype=dtype)[0]


def _top_eigh(gram: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of the Hermitian ``gram``, descending, and
    their eigenvectors, from LAPACK's ``?evr`` asked for those k alone: for
    part of the spectrum it runs bisection and inverse iteration.  The
    bisection tolerance is twice the underflow threshold, which LAPACK
    documents as the most accurate setting (zero means eps ||T||)."""
    n = gram.shape[0]
    evr = _lapack("heevr" if gram.dtype.kind == "c" else "syevr", gram.dtype)
    lam, v, _, _, info = evr(
        gram, range="I", il=n - k + 1, iu=n, abstol=2.0 * np.finfo(np.float64).tiny
    )
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
    keep = lam > np.finfo(np.float64).eps * rows * lam[0]
    q, r = np.linalg.qr((mat @ v[:, keep]) / np.sqrt(lam[keep])[None, :])
    return q * _unit_phase(r.diagonal())[None, :]


def svd_init(y: DenseTensor, rank: int, rng) -> tuple[KruskalModel, np.ndarray]:
    """Leading mode-n left singular vectors, from the top R eigenpairs of the
    smaller Gram of each unfolding (I_n x I_n when wide, (J/I_n) x (J/I_n)
    when tall; see :func:`_leading_left_vectors`).

    Missing columns (R above the unfolding's rank) are random unit-norm draws
    from ``rng``.  Signs/phases follow a fixed rule, so the init does not
    depend on which LAPACK routine produced the vectors: in modes 1..N-1 each
    singular vector's largest-magnitude entry is real and positive; in mode N
    each column is rotated so that its rank-one term has a real, positive
    inner product with Y, i.e. every component starts out pointing toward the
    data rather than away from it.

    Returns ``(model, M^(N))``: the phase rule needs the init's mode-N
    MTTKRP M^(N), which does not depend on A^(N), so the fit reuses it.
    """
    factors = []
    for n in range(1, y.order + 1):
        u = _leading_left_vectors(unfold(y, n), rank)
        u = u / _top_phase(u)[None, :]
        cols = [u]
        if u.shape[1] < rank:
            extra = _gaussian(rng, (u.shape[0], rank - u.shape[1]), y.scalar_kind)
            extra = extra / np.linalg.norm(extra, axis=0, keepdims=True)
            cols.append(extra.astype(u.dtype))
        factors.append(np.hstack(cols))
    last = mttkrp(y, KruskalModel(factors), y.order)
    inner = np.sum(factors[-1].conj() * last, axis=0)
    factors[-1] = factors[-1] * _unit_phase(inner)[None, :]
    return KruskalModel(factors), last


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

    Eigenvalues below eps * R * lambda_max are truncated.
    """
    w, v = np.linalg.eigh(gamma)
    r = gamma.shape[0]
    cutoff = np.finfo(np.float64).eps * r * max(w.max(initial=0.0), 0.0)
    inv_w = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (v * inv_w[None, :]) @ v.conj().T


def als_step(y: DenseTensor, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One ALS sweep of the model with stack ``x`` (see :func:`stack`),
    updating factors in ascending mode order.

    Returns the swept stack, a new array, and its mode-N MTTKRP M^(N).  Cost:
    two passes over the tensor.  The partial product P = Y x_N conj(A^(N)) is
    formed once, and modes 1..N-1 are contractions of P with the current
    factors; this is exact because A^(N) changes only in the last update.
    Mode N is one full MTTKRP of the updated factors 1..N-1, which is also
    the new model's M^(N), since M^(N) does not depend on A^(N).  Each update
    is written through the factor's :func:`model_from_stack` view.  The Gram
    stack is taken once and then refreshed one mode at a time, and each
    Gamma^(n) is its masked product over the modes in ascending order, as in
    :func:`gram_cache`.
    """
    x = x.copy()
    model = model_from_stack(x, y.dims)
    _check_pair(y, model)
    factors = model.factors
    n_modes = len(factors)
    keep = _exclusion_mask(n_modes)[:n_modes, n_modes]
    grams = gram_stack(x)
    pt = _last_partial(y, factors[-1])
    for n in range(n_modes):
        if n < n_modes - 1:
            m = _contract_all_but(pt, factors[:-1], n)
        else:
            m = mttkrp(y, model, n_modes)
        gamma = np.multiply.reduce(np.where(keep[n], grams, 1.0))
        factors[n][...] = m @ pinv_psd(gamma).T
        grams[n] = gram_stack(x[n])
    return x, m
