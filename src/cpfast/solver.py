"""Fast damped Gauss-Newton iteration for CP decomposition.

One iteration of the "auto" variant builds one
:class:`~cpfast.hessian.DampedCore`, (H + mu I)^{-1} at the current model,
from the Gram cache and mu: the N damped Gram inverses from one batched
inverse, and one LU factorization of the NR^2 x NR^2 congruence-scaled core
(the paper's fLM-a form).  The core is solved twice: once for the
Gauss-Newton step v = (H + mu I)^{-1} g, and once for the geodesic
acceleration a = -(H + mu I)^{-1} J^H M''(v, v) (Transtrum & Sethna,
arXiv:1201.5885, 2012), whose right-hand side costs only R x R work.  The
candidate is x + v + a/2 when the acceleration is small against the step,
else x + v.  The gradient is formed once per accepted model.  The candidate
is accepted only if it lowers the residual; the damping parameter follows
the Nielsen gain-ratio schedule.  Both loops, fLM's and ALS's, hold the
model, and fLM its gradient and steps, as N x R x I_max stacks
(:func:`~cpfast.kruskal.stack`), so each factor-sized or R x R job is one
batched call over the modes; a :class:`~cpfast.kruskal.KruskalModel` goes in
and comes out.

:func:`fit` owns the problem each loop solves: it divides Y by ||Y|| once,
builds the configured init of that unit-norm tensor, hands both to the loop
(:func:`_fit_lm` or :func:`_fit_als`), which only iterates, and scales the
returned model back once.  On a tensor much larger than its rank-R Tucker
core, :func:`fit` first compresses: it fits the ST-HOSVD core of Y / ||Y||,
divided by its own norm, with the variant's loop and then refines the
expanded model on Y / ||Y|| with the same loop and stop rule, whose window
resumes where the core stage left it.

The same code path serves real and complex tensors: Gram matrices are
Hermitian, and every place where a damped Gamma inverse right-multiplies a
factor uses (Gamma^(n)^T + mu I)^{-1} = conj((Gamma^(n) + mu I)^{-1}), which
reduces to the symmetric form for real data.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .hessian import damped_core
from .kruskal import (
    GramCache,
    KruskalModel,
    _gradient,
    _second_order,
    als_step,
    build_gram_cache,
    gradient,
    gram_relative_error,
    gram_stack,
    model_from_stack,
    mttkrp,
    mttkrp_all,
    normalize_with_grams,
    random_init,
    relative_error,
    residual_decrease,
    st_hosvd,
    stack,
    svd_init,
)
from .tensor import DenseTensor, frobenius, khatri_rao_excl

VARIANTS = ("auto", "als", "als-ls")
INITS = ("svd", "random")

# The fLM loop fits Y / ||Y|| from a least-squares-scaled start, so both
# constants act on unit-norm data whatever the scale of Y: the squared
# residual starts at most 1, the approximate Hessian's diagonal is at most
# O(1), and the gain ratio's denominator (the decrease of the squared
# residual that the linear model predicts) is at most the squared residual.
MU_OVERFLOW = 1e30
RHO_DENOM_GUARD = 1e-30
# Below this current relative error the candidate error comes from the dense
# residual: the Gram identity's cancellation error (~eps / relerr) must stay
# far under the 1e-8 differences the tol rule compares.  One guard serves the
# fLM and ALS loops.
GRAM_ERROR_GUARD = 1e-3
# Below this plain norm some squared entries may be subnormal, so the sum
# loses precision; ||Y|| is then taken from Y / max|y|.  At or above it the
# squares' rounding is far under eps relative to the sum.
NORM_RESCALE_BELOW = 1e-140
# Above the guard, a candidate whose predicted decrease of the unit-norm
# squared residual is below this is scored by its computed decrease
# (:func:`~cpfast.kruskal.residual_decrease`): the Gram identity rounds at a
# few eps, more than 1e-3 of such a decrease.
DECREASE_RESOLUTION = 1e-12
# The geodesic acceleration a is added, as a/2, only while 2 ||a|| / ||v|| is
# at most this: beyond it the quadratic model of the path is not trusted
# (Transtrum & Sethna, arXiv:1201.5885, 2012, who use alpha = 0.75).  A
# step that fails the test falls back to the plain step v; rejecting it, as
# they do, took more iterations on 100^3 Gaussian-factor fits.
ACCEL_MAX_RATIO = 0.75
# A fit stops "tol" once this many consecutive relative-error differences
# fall below ``FitConfig.tol``.
TOL_WINDOW = 10
# A fit first fits the ST-HOSVD core of Y and then refines on Y (see
# :func:`_fit_compressed`) once prod I_n is at least this many times prod
# min(I_n, R), the core's size.  In a crossover grid of Gaussian-factor fits
# (README, "Compression") the fLM fit got slower with compression at ratio
# 1000 (30^3 R=3, 50^3 R=5) and faster from 1728 (60^3 R=5) up.
COMPRESS_MIN_RATIO = 1500


@dataclass
class LmState:
    """Damping parameter and Nielsen growth bookkeeping."""

    mu: float
    growth: float = 2.0


@dataclass
class FitConfig:
    rank: int
    variant: str = "auto"
    tau: float = 1e-3
    tol: float = 1e-8
    max_iters: int = 1000
    seed: int = 0
    init: str = "svd"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        for field, least in (("rank", 1), ("max_iters", 1), ("seed", 0)):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{field} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{field} must be >= {least}, got {value!r}")
        for field in ("tau", "tol"):
            value = getattr(self, field)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{field} must be a finite real, got {value!r}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau!r}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol!r}")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class IterRecord:
    """One iteration: the relative error after it, the damping parameter for
    the next step, whether the step was accepted, the gain ratio of the step,
    the norm ||g|| of the gradient at the model after the iteration (the
    accepted candidate, or the unchanged model after a rejection), the norm
    of the step taken (v + a/2 or v) and the acceleration ratio 2 ||a|| /
    ||v||.  The last four are NaN for ALS, and the ratio is NaN where v = 0.
    The damping parameter and the norms are those of the unit-norm problem
    that the fLM loop fits, so they do not depend on the scale of Y.

    ``stage`` is "full" for an iteration on Y and "core" for one on the
    ST-HOSVD core G of a compressed fit (see :func:`_fit_compressed`); a
    core record's ``relerr`` is the core's own ||G - Ghat|| / ||G||, not an
    error on Y.  Iterations are numbered across both stages."""

    iter: int
    relerr: float
    mu: float
    accepted: bool
    rho: float = math.nan
    grad_norm: float = math.nan
    step_norm: float = math.nan
    accel_ratio: float = math.nan
    stage: str = "full"


@dataclass
class FitResult:
    """A fit's model, trace and stop reason, its wall time, and ``below``:
    the trailing run of differences below ``tol`` that its window counted
    when it stopped (see :func:`_fit_compressed`)."""

    model: KruskalModel
    trace: list
    stop_reason: str
    time_ms: float = 0.0
    below: int = 0

    @property
    def iters(self) -> int:
        return len(self.trace)

    @property
    def accepted_iters(self) -> int:
        return sum(1 for rec in self.trace if rec.accepted)

    @property
    def final_relerr(self) -> float:
        """The last record's relative error, an error on Y: a fit's last
        record is always a "full" one."""
        return self.trace[-1].relerr if self.trace else float("nan")


def flm_step(y: DenseTensor, model: KruskalModel, mu: float) -> np.ndarray:
    """One fast dGN step: the change of the stacked factor vector, with all
    factors updated simultaneously (compare
    :func:`~cpfast.oracle.dense_damped_solve`).

    The step is the Gauss-Newton step v = (H + mu I)^{-1} g: one
    :class:`~cpfast.hessian.DampedCore` (the damped Gram inverses and the
    factored core system) applied once to the gradient.  :func:`fit` builds
    the same core inside its loop and adds the geodesic acceleration to the
    step (see :func:`_accelerated_step`).
    """
    cache = build_gram_cache(model)
    core = damped_core(stack(model.factors), model.dims, cache, mu)
    return core(gradient(y, model, cache))


def _accelerated_step(solve, x: np.ndarray, grams: np.ndarray, g: np.ndarray):
    """The Gauss-Newton step v = solve(g), the step to take and the
    acceleration ratio 2 ||a|| / ||v|| (NaN for v = 0); the model ``x``, the
    gradient ``g`` and both steps are stacks (see :func:`~cpfast.kruskal.stack`).

    The geodesic acceleration a = -solve(J^H M''(v, v)) reuses the
    factorization behind ``solve``; the step is v + a/2 when the ratio is at
    most ``ACCEL_MAX_RATIO``, else v.
    """
    v = solve(g)
    minus_a = solve(_second_order(x, grams, v))
    v_norm = frobenius(v)
    ratio = 2.0 * frobenius(minus_a) / v_norm if v_norm > 0 else math.nan
    if not ratio <= ACCEL_MAX_RATIO:
        return v, v, ratio
    step = minus_a
    step *= -0.5
    step += v
    return v, step, ratio


def mu_init(cache: GramCache, tau: float) -> float:
    """Initial damping tau * max(1, max diag Gamma_full), where Gamma_full_rr
    = prod_n C^(n)_rr.  Under the unit-norm convention for modes 1..N-1 that
    is the largest diagonal entry of the approximate Hessian, max diag C^(N).

    :func:`fit` calls it on the unit-norm problem Y / ||Y||, from a start
    scaled to its least-squares weight, so the rule sees a model at the
    data's scale (Madsen, Nielsen & Tingleff, IMM 2004, section 3.2).
    """
    return float(tau * max(1.0, np.max(np.real(np.diag(cache.gamma_full)))))


def nielsen_update(state: LmState, rho: float) -> LmState:
    """Nielsen gain-ratio damping control (classical multiplicative form)."""
    if rho > 0:
        mu = state.mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        return LmState(mu, growth=2.0)
    return LmState(state.mu * state.growth, 2.0 * state.growth)


def _gain_ratio(prev_sq, cand_sq, predicted) -> float:
    if abs(predicted) < RHO_DENOM_GUARD:
        return -1.0
    return (prev_sq - cand_sq) / predicted


def _init_model(y: DenseTensor, config: FitConfig) -> tuple[KruskalModel, np.ndarray]:
    """The configured init of ``y`` and its mode-N MTTKRP: the SVD init's
    own, or one pass over the tensor.  :func:`fit` calls it once per stage,
    on the unit-norm tensor that the stage's loop fits; the random draws come
    from ``config.seed`` alone."""
    rng = np.random.default_rng([config.seed, 0])
    if config.init == "svd":
        return svd_init(y, config.rank, rng)
    start = random_init(y.dims, config.rank, rng, y.scalar_kind)
    return start, mttkrp(y, start, start.order)


def _start_error(y, x, last, grams) -> float:
    """The relative error of the start with stack ``x`` (see
    :func:`~cpfast.kruskal.stack`) on the unit-norm tensor ``y``:
    :func:`gram_relative_error` from its mode-N MTTKRP ``last`` and stacked
    Gram matrices ``grams``, or the dense residual where that is below
    ``GRAM_ERROR_GUARD``."""
    model = model_from_stack(x, y.dims)
    err = gram_relative_error(model, last, grams)
    return err if err >= GRAM_ERROR_GUARD else relative_error(y, model)


def _tensor_norm(y: DenseTensor) -> float:
    """||Y||, computed again from Y / max|y| only when the plain norm is
    below ``NORM_RESCALE_BELOW`` or not finite.  A finite plain norm proves
    every entry finite, so only a norm that is not checks for NaN and
    infinite entries, which raise ``ValueError``."""
    with np.errstate(over="ignore"):
        norm = y.norm()
    if not NORM_RESCALE_BELOW <= norm < math.inf:
        if not np.isfinite(y.data).all():
            raise ValueError("tensor has NaN or infinite entries")
        peak = float(np.abs(y.data).max())
        if peak == 0.0:
            raise ZeroDivisionError("cannot fit a zero tensor")
        norm = peak * float(np.linalg.norm(y.data / peak))
        if not math.isfinite(norm):
            raise ValueError("tensor norm overflows")
    return norm


def fit(y: DenseTensor, config: FitConfig) -> FitResult:
    """Decompose ``y`` with the configured algorithm.

    An LM-family step factors H + mu I once and solves it twice, for the
    Gauss-Newton step v and for its geodesic acceleration a, whose
    right-hand side costs O(T R^2 + N^2 R^2) (T = sum I_n) and no pass over
    the tensor; see :func:`_fit_lm`.

    A fit reaches "tol" in one of two ways: ``TOL_WINDOW`` (ten) consecutive
    relative-error differences fall below ``config.tol`` (a rejected step
    counts as a zero difference), or, for the LM family, the current model
    is first-order stationary relative to its residual, ||g|| <=
    ``config.tol`` * relerr, with g the gradient of the unit-norm problem
    (Madsen, Nielsen & Tingleff, IMM 2004, section 3.2, in relative form).
    The gradient test ends a noisy fit on the step that converges; on
    noiseless data g shrinks along with the residual, so there the window
    ends the fit.  Otherwise a fit stops when the iteration budget runs out
    ("max_iters"), or, for the LM family, when the damping parameter
    overflows 1e30 ("mu_overflow") or a candidate's squared residual is not
    finite ("nonfinite").  A numerical failure of the step ends the fit with
    stop reason "error at iteration t: ...".  Raises ``ValueError`` for NaN
    or infinite entries, for tensors of order below 2 or with a zero-size
    mode and for a norm that overflows even after rescaling by max|y|, and
    ``ZeroDivisionError`` for an all-zero tensor, all before any
    initialization.

    Every fit solves the unit-norm problem: ``fit`` divides Y by ||Y|| once,
    builds the configured init of Y / ||Y|| (:func:`_init_model`) and hands
    both to the loop, :func:`_fit_lm` or :func:`_fit_als`, which only
    iterates.  It then scales the returned model back once: the LM family's
    factors are multiplied by ||Y||^(1/N), which keeps every component's mode
    norms equal, and ALS's first factor by ||Y||.  So the trace does not
    depend on the scale of Y, and ALS's scaling is exact for powers of two:
    ||2^k Y|| = 2^k ||Y||, so a fit of 2^k Y has the trace of a fit of Y bit
    for bit and its first factor times 2^k.  ||Y|| is overflow-safe: it is
    computed from Y / max|y| when the plain norm overflows or is so small
    that squared entries may be subnormal.

    Where prod I_n >= ``COMPRESS_MIN_RATIO`` * prod min(I_n, R) and
    ``max_iters`` > 1, every variant first fits the ST-HOSVD core of Y / ||Y||
    and then refines the expanded model on Y / ||Y|| through the same loop,
    whose window resumes the core stage's (:func:`_fit_compressed`); the
    refinement's start costs no pass over Y.  ``max_iters`` bounds both
    stages together, the trace marks each record's stage, and
    ``final_relerr`` is that of the last record on Y.
    """
    if y.order < 2:
        raise ValueError(f"CP fitting needs order >= 2, got order {y.order}")
    if not all(y.dims):
        raise ValueError(f"cannot fit a tensor with a zero-size mode, dims {y.dims}")
    ynorm = _tensor_norm(y)
    t0 = time.monotonic()
    loop = _fit_als if config.variant in ("als", "als-ls") else _fit_lm
    unit = DenseTensor(y.data / ynorm)
    if config.max_iters > 1 and _compresses(y.dims, config.rank):
        result = _fit_compressed(loop, unit, config)
    else:
        result = loop(unit, config, *_init_model(unit, config))
    factors = result.model.factors
    if loop is _fit_als:
        factors = [factors[0] * ynorm] + factors[1:]
    else:
        factors = [f * ynorm ** (1.0 / y.order) for f in factors]
    result.model = KruskalModel(factors)
    result.time_ms = (time.monotonic() - t0) * 1e3
    return result


def _compresses(dims, rank: int) -> bool:
    """Whether :func:`fit` compresses a tensor of ``dims`` for ``rank``:
    prod I_n >= ``COMPRESS_MIN_RATIO`` * prod min(I_n, R)."""
    core = math.prod(min(d, rank) for d in dims)
    return math.prod(dims) >= COMPRESS_MIN_RATIO * core


def _fit_compressed(loop, y: DenseTensor, config: FitConfig):
    """Compress, fit the core, refine (Bro & Andersson, Chemom. Intell. Lab.
    Syst. 42, 1998) on the unit-norm tensor ``y``.

    :func:`st_hosvd` of ``y`` gives bases U_n, the core G, of dims
    min(I_n, R) at most, and ``lead``, ``y`` projected in modes 1..N-1.
    ``loop`` (:func:`_fit_lm` or :func:`_fit_als`) fits G / kappa, kappa =
    ||G||, from its configured init, then fits ``y`` from the expanded model
    and its mode-N MTTKRP (:func:`_expanded_start`, no pass over ``y``),
    with the same stop rule.  The core stage may take ``max_iters`` - 1
    iterations and the refinement the rest, so ``max_iters`` bounds both
    together.  The core's records are marked "core"; the stop reason and the
    model, a model of ``y``, are the refinement's.

    The refinement's window starts at the core loop's own trailing run of
    differences below ``tol``, which it returns as ``below``.  With
    orthonormal U_n, ||Y - [[U B]]||^2 = ||Y||^2 - ||G||^2 + ||G - [[B]]||^2,
    so e_Y^2 = 1 - k^2 + k^2 e_G^2 with k = ||G|| / ||Y|| = kappa <= 1, and
    |De_Y| <= k |De_G|: each small difference on G is one at least as small
    on Y.
    """
    bases, core, lead = st_hosvd(y, config.rank)
    kappa = _tensor_norm(core)
    core = DenseTensor(core.data / kappa)
    budget = replace(config, max_iters=config.max_iters - 1)
    first = loop(core, budget, *_init_model(core, config))
    for rec in first.trace:
        rec.stage = "core"
    rest = replace(config, max_iters=config.max_iters - first.iters)
    start = _expanded_start(bases, lead, first.model, kappa)
    result = loop(y, rest, *start, first.below)
    for rec in result.trace:
        rec.iter += first.iters
    result.trace = first.trace + result.trace
    return result


def _expanded_start(
    bases, lead: np.ndarray, core_model: KruskalModel, kappa: float
) -> tuple[KruskalModel, np.ndarray]:
    """The model A^(n) = U_n B^(n) of Y, expanded from the model B of G /
    ``kappa`` with ``bases`` U_n, its first factor times ``kappa``, and its
    mode-N MTTKRP.

    Y_(N) conj(KR(A^(1..N-1))) = ``lead`` conj(KR(B^(1..N-1))), with
    ``lead`` from :func:`st_hosvd`, so the MTTKRP costs O(I_N prod R_n R)
    and no pass over Y.
    """
    start = KruskalModel([u @ b for u, b in zip(bases, core_model.factors)])
    start.factors[0] *= kappa
    kr = khatri_rao_excl(core_model.factors, core_model.order)
    return start, kappa * (lead @ kr.conj())


def _candidate_error(
    y: DenseTensor,
    err: float,
    x: np.ndarray,
    grams: np.ndarray,
    last: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None]:
    """Relative error of the candidate with stack ``x`` (see
    :func:`~cpfast.kruskal.stack`) on the unit-norm tensor ``y`` and its
    mode-N MTTKRP (None if unused).

    While the current error ``err`` is at least ``GRAM_ERROR_GUARD``, the
    error comes from :func:`gram_relative_error` with the candidate's stacked
    Gram matrices ``grams`` and its mode-N MTTKRP, which is ``last`` when the
    caller has it and one pass over the tensor otherwise.  Below the guard it
    is the dense :func:`relative_error`.
    """
    candidate = model_from_stack(x, y.dims)
    if err >= GRAM_ERROR_GUARD:
        if last is None:
            last = mttkrp(y, candidate, candidate.order)
        return gram_relative_error(candidate, last, grams), last
    return relative_error(y, candidate), None


def _fit_als(
    y: DenseTensor,
    config: FitConfig,
    model: KruskalModel,
    last: np.ndarray,
    below: int = 0,
) -> FitResult:
    """ALS and ALS with line search on the unit-norm tensor ``y``, from the
    start ``model`` of ``y`` and its mode-N MTTKRP ``last``; ``below``
    starts the window's count (see :func:`_fit_compressed`).  :func:`fit`
    scales ``y``, builds the start and scales the returned model back, so
    neither the Gram matrices nor ``pinv_psd`` over- or underflow.

    The loop holds the model as a stack (:func:`~cpfast.kruskal.stack`)
    and returns its :func:`~cpfast.kruskal.model_from_stack` views.  The
    start is scored by :func:`_start_error` from ``last``.  Each iteration
    is one :func:`als_step` sweep of the stack, two passes over the tensor.
    ALS-ls then tries X_prev + s (X_als - X_prev) on stacks, with X_prev the
    model before the one swept, for s = 1.1 and then s = t^(1/3); a
    candidate replaces the sweep only if its error is strictly lower.  The
    recipe is a documented stand-in: the classical "ALS with line search"
    baseline defers to toolbox internals.  Candidates are scored by
    :func:`_candidate_error`: above ``GRAM_ERROR_GUARD`` the sweep's own
    M^(N) scores it and each extrapolated candidate costs one pass (an
    ALS-ls sweep is four passes, with no reconstruction); below it, by the
    dense residual.
    """
    trace = []
    x = stack(model.factors)
    err = _start_error(y, x, last, gram_stack(x))
    prev = None
    stop_reason = "max_iters"
    for t in range(1, config.max_iters + 1):
        swept, last = als_step(y, x)
        best = swept
        best_err = _candidate_error(y, err, swept, gram_stack(swept), last)[0]
        if config.variant == "als-ls" and prev is not None:
            for s in (1.1, float(t) ** (1.0 / 3.0)):
                cand = prev + s * (swept - prev)
                cand_err = _candidate_error(y, err, cand, gram_stack(cand))[0]
                if cand_err < best_err:
                    best, best_err = cand, cand_err
        prev, x = x, best
        trace.append(IterRecord(t, best_err, 0.0, True))
        below = below + 1 if abs(err - best_err) < config.tol else 0
        err = best_err
        if below >= TOL_WINDOW:
            stop_reason = "tol"
            break
    return FitResult(model_from_stack(x, y.dims), trace, stop_reason, below=below)


def _scaled_start(
    y: DenseTensor, start: KruskalModel, last: np.ndarray
) -> tuple[np.ndarray, GramCache, np.ndarray, float]:
    """The model ``start`` of the unit-norm tensor ``y``, at any scale, with
    its mode-N MTTKRP ``last``, scaled by its least-squares weight and
    normalized, as a stack (see :func:`~cpfast.kruskal.stack`), with its Gram
    cache, mode-N MTTKRP and relative error.

    The last factor is multiplied by alpha = Re<A^(N), M^(N)> / 1^T Gamma_full
    1, the one overall scale that minimizes the residual, when alpha > 0; one
    scalar keeps every component's direction and relative size.  The error
    comes from :func:`gram_relative_error` on M^(N), which the caller has
    already formed, and from the dense residual only below
    ``GRAM_ERROR_GUARD``.
    """
    x = stack(start.factors)
    grams = gram_stack(x)
    cross = np.vdot(start.factors[-1], last).real
    alpha = cross / np.multiply.reduce(grams).sum().real
    if alpha > 0:
        x[-1] *= alpha
        grams[-1] *= alpha**2
    x, cache, last = normalize_with_grams(x, grams, last)
    return x, cache, last, _start_error(y, x, last, cache.C)


def _fit_lm(
    y: DenseTensor,
    config: FitConfig,
    start: KruskalModel,
    last: np.ndarray,
    below: int = 0,
) -> FitResult:
    """Damped Gauss-Newton loop with the fast step ("auto") on the unit-norm
    tensor ``y``, from the model ``start`` of ``y`` and its mode-N MTTKRP
    ``last``; ``below`` starts the window's count (see
    :func:`_fit_compressed`).  :func:`fit` scales ``y`` and builds the start,
    so ``mu_init``, ``MU_OVERFLOW`` and ``RHO_DENOM_GUARD`` act on an O(1)
    problem, and scales the returned model back.

    The loop starts from ``start``, at any scale, scaled by its
    least-squares weight (:func:`_scaled_start`), which costs no pass over
    the tensor and no dense residual above ``GRAM_ERROR_GUARD``; ``last``
    also serves the first :func:`mttkrp_all`.

    The model x, the gradient g, both steps and the candidate are stacks
    (:func:`~cpfast.kruskal.stack`), zero past column I_n, whose Fortran-
    ordered views x[n, :, :I_n]^T are the factors the tensor contractions
    read; every other per-mode job is one batched call over the modes.

    Each iteration factors one :class:`~cpfast.hessian.DampedCore` and solves
    it twice (:func:`_accelerated_step`): for v = (H + mu I)^{-1} g, and for
    the geodesic acceleration a = -(H + mu I)^{-1} J^H M''(v, v), whose
    right-hand side (:func:`~cpfast.kruskal.second_order_term`) costs
    O(T R^2 + N^2 R^2) and no pass over the tensor.  The candidate is x + v + a/2 when
    2 ||a|| / ||v|| <= ``ACCEL_MAX_RATIO``, else x + v.  The gain ratio's
    denominator stays Re<v, g + mu v>, v's Gauss-Newton prediction: taking it
    from v + a/2 instead cost more iterations on the swamp.

    Cost per iteration in passes over the tensor: a candidate is scored with
    :func:`gram_relative_error` from its mode-N MTTKRP (one pass); if it is
    accepted, :func:`mttkrp_all` adds the partial product for modes 1..N-1 (a
    second pass).  The identity rounds at a few eps, so a step whose predicted
    decrease Re<v, g + mu v> is below ``DECREASE_RESOLUTION`` is scored by
    :func:`~cpfast.kruskal.residual_decrease` from the same one pass, whose
    rounding scales with the step.  Once the accepted relative error is below
    ``GRAM_ERROR_GUARD`` the identity cancels, so candidates are scored by the
    dense :func:`relative_error` instead; the path is chosen from the current
    error and the prediction, so no iteration computes two.

    The candidate's Gram matrices are formed once and serve three times: in
    its Gram-identity error and, through :func:`normalize_with_grams`, as its
    column norms and, rescaled, as the next Gram cache; the normalization's
    scales also carry its M^(N) over.  A candidate whose squared residual is
    not finite ends the fit with stop reason "nonfinite".

    Besides the ten-difference window, the fit stops "tol" once ||g|| <=
    tol * relerr at the current model (see :func:`fit`).  ||g|| comes from
    the gradient that each accepted model needs for the next step anyway, so
    the test costs no pass over the tensor.
    """
    x, cache, last, err = _scaled_start(y, start, last)
    dims = y.dims
    model = model_from_stack(x, dims)
    state = LmState(mu=mu_init(cache, config.tau))
    g = _gradient(x, cache.gamma_excl, mttkrp_all(y, model, last))
    grad_norm = frobenius(g)

    trace = []
    stop_reason = "max_iters"
    for t in range(1, config.max_iters + 1):
        try:
            core = damped_core(x, dims, cache, state.mu)
            v, step, accel_ratio = _accelerated_step(core.apply, x, cache.C, g)
        except np.linalg.LinAlgError as exc:
            stop_reason = f"error at iteration {t}: {exc}"
            break
        step_norm = frobenius(step)
        cand = x + step
        grams = gram_stack(cand)

        predicted = np.vdot(v, g + state.mu * v).real
        if predicted < DECREASE_RESOLUTION and err >= GRAM_ERROR_GUARD:
            decrease, cand_last = residual_decrease(y, x, cand, cache.C, grams, last)
            cand_err = math.sqrt(max(err * err - decrease, 0.0))
        else:
            cand_err, cand_last = _candidate_error(y, err, cand, grams)
        cand_sq = cand_err * cand_err
        finite = math.isfinite(cand_sq)
        rho = math.nan  # a non-finite candidate is rejected and mu kept
        if finite:
            rho = _gain_ratio(err * err, cand_sq, predicted)
            state = nielsen_update(state, rho)

        accepted = bool(rho > 0 and cand_err < err)
        diff = abs(err - cand_err) if accepted else 0.0
        below = below + 1 if diff < config.tol else 0
        if accepted:
            x, cache, cand_last = normalize_with_grams(cand, grams, cand_last)
            model = model_from_stack(x, dims)
            mttkrps = mttkrp_all(y, model, cand_last)
            g, last = _gradient(x, cache.gamma_excl, mttkrps), mttkrps[-1]
            grad_norm = frobenius(g)
            err = cand_err

        trace.append(
            IterRecord(
                t, err, state.mu, accepted, float(rho), grad_norm, step_norm,
                accel_ratio,
            )
        )

        if not finite:
            stop_reason = "nonfinite"
            break
        if below >= TOL_WINDOW or grad_norm <= config.tol * err:
            stop_reason = "tol"
            break
        if state.mu > MU_OVERFLOW:
            stop_reason = "mu_overflow"
            break
    return FitResult(model, trace, stop_reason, below=below)
