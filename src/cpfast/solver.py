"""Fast damped Gauss-Newton iteration for CP decomposition.

One iteration applies the damped inverse (H + mu I)^{-1} to the gradient
through one :class:`~cpfast.hessian.DampedCore` built from the Gram cache and
mu: the N damped Gram inverses from one batched inverse, and one LU
factorization of the NR^2 x NR^2 congruence-scaled fLM-a core, solved once
("flm-a" and its alias "auto"; "dgn-oracle" takes the dense step of
:mod:`cpfast.oracle` instead).
The gradient is formed once per accepted model.  The candidate is accepted
only if it lowers the residual; the damping parameter follows the Nielsen
gain-ratio schedule.

The same code path serves real and complex tensors: Gram matrices are
Hermitian, and every place where a damped Gamma inverse right-multiplies a
factor uses (Gamma^(n)^T + mu I)^{-1} = conj((Gamma^(n) + mu I)^{-1}), which
reduces to the symmetric form for real data.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .hessian import apply_damped_inverse, damped_core
from .kruskal import (
    GramCache,
    KruskalModel,
    als_line_search_step,
    als_step,
    build_gram_cache,
    gradient,
    gram_relative_error,
    gram_stack,
    model_from_vector,
    mttkrp,
    mttkrp_all,
    normalize_equal_energy,
    normalize_with_grams,
    random_init,
    relative_error,
    svd_init,
)
from .oracle import dense_damped_solve
from .tensor import DenseTensor

VARIANTS = ("flm-a", "auto", "als", "als-ls", "dgn-oracle")

MU_OVERFLOW = 1e30
RHO_DENOM_GUARD = 1e-30
# Below this current relative error the candidate error comes from the dense
# residual: the Gram identity's cancellation error (~eps / relerr) must stay
# far under the 1e-8 differences the tol rule compares.  One guard serves the
# fLM and ALS loops.
GRAM_ERROR_GUARD = 1e-3


@dataclass
class LmState:
    """Damping parameter and Nielsen growth bookkeeping."""

    mu: float
    growth: float = 2.0
    accepted: bool = False


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
        if self.rank < 1:
            raise ValueError("rank must be >= 1")


@dataclass
class IterRecord:
    """One iteration: the relative error after it, the damping parameter for
    the next step, whether the step was accepted, and the gain ratio of the
    step (NaN for ALS)."""

    iter: int
    relerr: float
    mu: float
    accepted: bool
    rho: float = math.nan


@dataclass
class FitResult:
    model: KruskalModel
    trace: list
    stop_reason: str
    time_ms: float = 0.0

    @property
    def iters(self) -> int:
        return len(self.trace)

    @property
    def accepted_iters(self) -> int:
        return sum(1 for rec in self.trace if rec.accepted)

    @property
    def final_relerr(self) -> float:
        return self.trace[-1].relerr if self.trace else float("nan")


def flm_step(
    y: DenseTensor,
    model: KruskalModel,
    mu: float,
    cache: GramCache | None = None,
    grad: np.ndarray | None = None,
) -> np.ndarray:
    """One fast dGN step: the change of the stacked factor vector, with all
    factors updated simultaneously (compare :func:`dense_damped_solve`).

    The step is (H + mu I)^{-1} g: one :class:`DampedCore` (the damped Gram
    inverses and the factored core system) applied once to the gradient.
    ``grad`` is the gradient at ``model`` when the caller already has it.
    """
    cache = cache or build_gram_cache(model)
    if grad is None:
        grad = gradient(y, model, cache)
    core = damped_core(cache, mu)
    return apply_damped_inverse(core, model.factors, grad)


def mu_init(cache: GramCache, tau: float) -> float:
    """Initial damping tau * max(1, max diag Gamma_full), where Gamma_full_rr
    = prod_n C^(n)_rr.  Under the unit-norm convention for modes 1..N-1 that
    is the largest diagonal entry of the approximate Hessian, max diag C^(N).
    """
    return float(tau * max(1.0, np.max(np.real(np.diag(cache.gamma_full)))))


def nielsen_update(state: LmState, rho: float) -> LmState:
    """Nielsen gain-ratio damping control (classical multiplicative form)."""
    if rho > 0:
        mu = state.mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        growth = 2.0
        accepted = True
    else:
        mu = state.mu * state.growth
        growth = 2.0 * state.growth
        accepted = False
    return LmState(mu, growth, accepted)


def _gain_ratio(prev_sq, cand_sq, delta, g, mu) -> float:
    denom = np.real(np.vdot(delta, g + mu * delta))
    if abs(denom) < RHO_DENOM_GUARD:
        return -1.0
    return (prev_sq - cand_sq) / denom


def _init_model(y: DenseTensor, config: FitConfig, rng) -> KruskalModel:
    if config.init == "svd":
        return svd_init(y, config.rank, rng)
    if config.init == "random":
        return random_init(y.dims, config.rank, rng, y.scalar_kind)
    raise ValueError(f"unknown init {config.init!r}")


def _stop_on_tol(err_deltas, tol) -> bool:
    return len(err_deltas) >= 10 and all(d < tol for d in err_deltas[-10:])


def fit(y: DenseTensor, config: FitConfig) -> FitResult:
    """Decompose ``y`` with the configured algorithm.

    Stops when ten consecutive relative-error differences fall below
    ``config.tol`` ("tol"), the iteration budget runs out ("max_iters"), or,
    for the LM family, the damping parameter overflows 1e30 ("mu_overflow")
    or a candidate's squared residual is not finite ("nonfinite").  A
    numerical failure of the step ends the fit with stop reason "error at
    iteration t: ...".  Raises ``ValueError`` for NaN or infinite entries and
    for tensors of order below 2, and ``ZeroDivisionError`` for an all-zero
    tensor, all before any initialization.
    """
    if not np.isfinite(y.data).all():
        raise ValueError("tensor has NaN or infinite entries")
    if y.order < 2:
        raise ValueError(f"CP fitting needs order >= 2, got order {y.order}")
    ynorm = y.norm()
    if ynorm == 0.0:
        raise ZeroDivisionError("cannot fit a zero tensor")
    t0 = time.monotonic()
    if config.variant in ("als", "als-ls"):
        result = _fit_als(y, config, ynorm)
    else:
        result = _fit_lm(y, config, ynorm)
    result.time_ms = (time.monotonic() - t0) * 1e3
    return result


def _candidate_error(
    y: DenseTensor,
    ynorm: float,
    err: float,
    candidate: KruskalModel,
    last: np.ndarray | None = None,
    grams: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None]:
    """Relative error of ``candidate`` and its mode-N MTTKRP (None if unused).

    While the current error ``err`` is at least ``GRAM_ERROR_GUARD``, the
    error comes from :func:`gram_relative_error` and the mode-N MTTKRP,
    which is ``last`` when the caller has it and one pass over the tensor
    otherwise; ``grams`` are the candidate's stacked Gram matrices, if known.
    Below the guard it is the dense :func:`relative_error`.
    """
    if err >= GRAM_ERROR_GUARD:
        if last is None:
            last = mttkrp(y, candidate, candidate.order)
        return gram_relative_error(ynorm, candidate, last, grams), last
    return relative_error(y, candidate), None


def _fit_als(y: DenseTensor, config: FitConfig, ynorm: float) -> FitResult:
    """ALS and ALS with line search.

    Cost per sweep in passes over the tensor: two for :func:`als_step` (the
    partial product for modes 1..N-1 and the mode-N MTTKRP).  Candidates are
    scored by :func:`_candidate_error`: above ``GRAM_ERROR_GUARD`` the swept
    model's error reuses the sweep's mode-N MTTKRP, and each of als-ls's two
    extrapolated candidates costs one more pass, so a plain sweep is two
    passes and a line-search sweep four, with no reconstruction.  Below the
    guard every candidate is scored by the dense residual.
    """
    rng = np.random.default_rng([config.seed, 0])
    model = _init_model(y, config, rng)
    trace = []
    deltas = []
    err = relative_error(y, model)
    history = None
    stop_reason = "max_iters"

    def score(candidate, last):
        # Reads ``err`` when called: the error of the model being swept.
        return _candidate_error(y, ynorm, err, candidate, last)[0]

    for t in range(1, config.max_iters + 1):
        prev = model
        if config.variant == "als-ls":
            model, new_err = als_line_search_step(y, model, history, t, score)
        else:
            model, last = als_step(y, model)
            new_err = score(model, last)
        history = prev
        trace.append(IterRecord(t, new_err, 0.0, True))
        deltas.append(abs(err - new_err))
        err = new_err
        if _stop_on_tol(deltas, config.tol):
            stop_reason = "tol"
            break
    return FitResult(model, trace, stop_reason)


def _fit_lm(y: DenseTensor, config: FitConfig, ynorm: float) -> FitResult:
    """Damped Gauss-Newton loop: the fast step for flm-a (alias auto), the
    dense oracle step for dgn-oracle.

    Cost per iteration in passes over the tensor: a candidate is scored with
    :func:`gram_relative_error` from its mode-N MTTKRP (one pass); if it is
    accepted, :func:`mttkrp_all` adds the partial product for modes 1..N-1 (a
    second pass).  Once the accepted relative error is below
    ``GRAM_ERROR_GUARD`` the identity cancels, so candidates are scored by the
    dense :func:`relative_error` instead; the path is chosen from the current
    error, so no iteration computes both (see :func:`_candidate_error`).

    The candidate's Gram matrices are formed once and serve three times: in
    its Gram-identity error and, through :func:`normalize_with_grams`, as its
    column norms and, rescaled, as the next Gram cache; the normalization's
    scales also carry its M^(N) over.  A candidate whose squared residual is
    not finite ends the fit with stop reason "nonfinite".
    """
    rng = np.random.default_rng([config.seed, 0])
    model = normalize_equal_energy(_init_model(y, config, rng))
    cache = build_gram_cache(model)
    state = LmState(mu=mu_init(cache, config.tau))
    g = gradient(y, model, cache, mttkrp_all(y, model))
    base = model.as_vector()
    err = relative_error(y, model)
    err_sq = (err * ynorm) ** 2

    trace = []
    deltas = []
    stop_reason = "max_iters"
    for t in range(1, config.max_iters + 1):
        try:
            if config.variant == "dgn-oracle":
                delta = dense_damped_solve(y, model, state.mu)
            else:
                delta = flm_step(y, model, state.mu, cache, g)
        except np.linalg.LinAlgError as exc:
            return FitResult(
                model, trace, f"error at iteration {t}: {exc}"
            )
        candidate = model_from_vector(base + delta, model.dims, model.rank)
        grams = gram_stack(candidate.factors)

        cand_err, cand_last = _candidate_error(y, ynorm, err, candidate, grams=grams)
        cand_sq = (cand_err * ynorm) ** 2
        if not math.isfinite(cand_sq):
            trace.append(IterRecord(t, err, state.mu, False))
            stop_reason = "nonfinite"
            break
        rho = _gain_ratio(err_sq, cand_sq, delta, g, state.mu)
        state = nielsen_update(state, rho)

        if state.accepted and cand_err < err:
            model, cache, cand_last = normalize_with_grams(
                candidate, grams, cand_last
            )
            g = gradient(y, model, cache, mttkrp_all(y, model, cand_last))
            base = model.as_vector()
            deltas.append(abs(err - cand_err))
            err, err_sq = cand_err, cand_sq
            accepted = True
        else:
            state.accepted = False
            deltas.append(0.0)
            accepted = False

        trace.append(IterRecord(t, err, state.mu, accepted, float(rho)))

        if _stop_on_tol(deltas, config.tol):
            stop_reason = "tol"
            break
        if state.mu > MU_OVERFLOW:
            stop_reason = "mu_overflow"
            break
    return FitResult(model, trace, stop_reason)
