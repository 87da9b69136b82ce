"""Fast damped Gauss-Newton iteration for CP decomposition.

One iteration of the "auto" variant takes one :func:`flm_step`, the only
fLM step in the package.  It builds one :class:`~cpfast.hessian.DampedCore`,
(H + mu I)^{-1} at the current model, from the Gram cache and mu: the N
damped Gram inverses from one batched inverse, and one LU factorization of
the NR^2 x NR^2 congruence-scaled core (the paper's fLM-a form).  The core is
solved twice: once for the Gauss-Newton step v = (H + mu I)^{-1} g, and once
for the geodesic acceleration a = -(H + mu I)^{-1} J^H M''(v, v) (Transtrum
& Sethna, arXiv:1201.5885, 2012), whose right-hand side costs only R x R
work.  The candidate is x + v + a/2 when the acceleration is small against
the step, else x + v.  The gradient is formed once per accepted model.  The
candidate is accepted only if it lowers the residual; the damping parameter
follows the Nielsen gain-ratio schedule.  Both loops, fLM's and ALS's, hold
the model, and fLM its gradient and steps, as N x R x I_max stacks
(:func:`~cpfast.kruskal.stack`), so each factor-sized or R x R job is one
batched call over the modes; a :class:`~cpfast.kruskal.KruskalModel` goes in
and comes out.

:func:`fit` owns the problem each loop solves: it divides Y by ||Y|| once,
builds the configured start, a model of the ST-HOSVD core of that unit-norm
tensor expanded to it (:func:`_fit_unit`), hands both to the loop
(:func:`_fit_lm` or :func:`_fit_als`), which enters through one start
scaling (:func:`_scaled_start`) and then only iterates, and scales the
returned model back once.  On a tensor much larger
than its rank-R Tucker core, :func:`fit` first compresses: it fits the
ST-HOSVD core of Y / ||Y||, divided by its own norm, with the variant's loop
and then refines the expanded model on Y / ||Y|| with the same loop and stop
rule, whose window resumes where the core stage left it.  An fLM fit judges
both stages on Y: the core stage's gradient test is scaled by the error on Y
that the core implies, and a core stage that ends stationary is refined
until its first accepted step on Y that moves the error by less than tol.

The same code path serves real and complex tensors: Gram matrices are
Hermitian, and every place where a damped Gamma inverse right-multiplies a
factor uses (Gamma^(n)^T + mu I)^{-1} = conj((Gamma^(n) + mu I)^{-1}), which
reduces to the symmetric form for real data.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .hessian import damped_core
from .kruskal import (
    GramCache,
    KruskalModel,
    _batch_last_mttkrp,
    _gradient,
    _gram_error,
    _last_mttkrp,
    _residual_norms,
    _sweep,
    _sweep_plan,
    gevd_init,
    gram_stack,
    model_from_stack,
    normalize_with_grams,
    random_init,
    residual_decrease,
    second_order_term,
    st_hosvd,
    stack,
    svd_init,
)
from .tensor import DenseTensor, _khatri_rao_rows, frobenius

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
# The stop reasons of a fit that ran to one of its stopping rules (see
# :func:`fit`); a numerical failure of a step stops it with the error's text.
STOP_REASONS = ("tol", "max_iters", "mu_overflow", "nonfinite")
# A fit first fits the ST-HOSVD core of Y and then refines on Y (see
# :func:`_fit_unit`) once prod I_n is at least this many times prod
# min(I_n, R), the core's size.  In a crossover grid of Gaussian-factor fits
# (README, "Compression"), with the GEVD start for order-3 cores, every cell
# from ratio 512 (40^3 R=5) up ran faster compressed, fLM and ALS-ls alike,
# in two runs; the swamp shapes (ratios 296 and 81) stay plain.
COMPRESS_MIN_RATIO = 512


@dataclass
class FitConfig:
    """What :func:`fit` does: the rank R, the variant ("auto" for fLM, "als"
    or "als-ls"), the initial damping factor ``tau``, the tolerance ``tol``
    of the stop tests, the iteration budget, the seed of every random draw
    and the init.  ``init="svd"`` (the default) starts every fit from its
    ST-HOSVD core: from the GEVD of two slice mixtures of the core where it
    has order >= 3 and its first two dims are R, else, or where that start
    does not exist, from the core's leading singular vectors.
    ``init="random"`` starts from Gaussian factors of the core.  Either
    start is a model of the core, expanded to Y (see :func:`_fit_unit`);
    ``FitResult.start`` says which start ran."""

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
    ``grad_norm`` is also NaN on an accepted fLM record that ends the fit on
    a difference rule ("window" or "core", see :class:`FitResult`): the
    model it returns needs no gradient, so none is formed.
    The damping parameter and the norms are those of the unit-norm problem
    that the fLM loop fits, so they do not depend on the scale of Y.

    ``stage`` is "full" for an iteration on Y and "core" for one on the
    ST-HOSVD core G of a compressed fit (see :func:`_fit_unit`); a
    core record's ``relerr`` is the core's own ||G - Ghat|| / ||G||, not an
    error on Y.  Iterations are numbered across both stages.

    ``scorer`` is the path that scored the iteration's candidates: "gram"
    (the Gram identity), "decrease" (fLM's computed decrease, see
    :func:`~cpfast.kruskal.residual_decrease`) or "dense" (the dense
    residual); see :func:`_candidate_error`.

    ``elapsed_s`` is the wall time in seconds from the start of
    :func:`fit`'s timed region, the clock behind ``FitResult.time_ms``, to
    the end of the iteration, counted across both stages of a compressed
    fit."""

    iter: int
    relerr: float
    mu: float
    accepted: bool
    rho: float = math.nan
    grad_norm: float = math.nan
    step_norm: float = math.nan
    accel_ratio: float = math.nan
    stage: str = "full"
    scorer: str = "gram"
    elapsed_s: float = math.nan


@dataclass
class FitResult:
    """A fit's model, trace and stop reason, its wall time, ``below``: the
    trailing run of differences below ``tol`` that its window counted when it
    stopped (see :func:`_fit_unit`), and ``stop_test``: the test that
    stopped a "tol" fit, and None for any other stop reason.  The tests are
    "gradient" (the LM family's ||g|| <= tol * relerr, checked at every
    model whose gradient the loop forms), "window" (``TOL_WINDOW`` small
    differences) and "core" (an fLM refinement's first accepted step with a
    difference below ``tol`` after a core stage that stopped "gradient").  A
    compressed fit reports its refinement's test.  ``start`` is the start
    that :func:`_start` built of the ST-HOSVD core: "gevd" (its GEVD
    start), "svd" (its leading singular vectors, also where the GEVD start
    does not exist) or "random" (Gaussian factors of it); a compressed fit
    reports its core stage's."""

    model: KruskalModel
    trace: list
    stop_reason: str
    time_ms: float = 0.0
    below: int = 0
    stop_test: str | None = None
    start: str | None = None

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


def flm_step(x: np.ndarray, cache: GramCache, g: np.ndarray, mu: float):
    """One fast dGN step at the model with stack ``x`` (see
    :func:`~cpfast.kruskal.stack`), Gram cache ``cache`` and gradient stack
    ``g``: the Gauss-Newton step v = (H + mu I)^{-1} g, the step to take and
    the acceleration ratio 2 ||a|| / ||v|| (NaN for v = 0).  All factors are
    updated simultaneously; both steps are stacks (compare
    :func:`~cpfast.oracle.dense_damped_solve`).

    One :func:`~cpfast.hessian.damped_core` (the damped Gram inverses and the
    factored core system) is applied twice: to g, and to J^H M''(v, v)
    (:func:`~cpfast.kruskal.second_order_term`) for the geodesic acceleration
    a = -(H + mu I)^{-1} J^H M''(v, v).  The step is v + a/2 when the ratio
    is at most ``ACCEL_MAX_RATIO``, else v.  A singular core raises
    :class:`~cpfast.hessian.SingularKernelError`.
    """
    core = damped_core(x, cache, mu)
    v = core.apply(g)
    minus_a = core.apply(second_order_term(x, cache, v))
    v_norm = frobenius(v)
    ratio = 2.0 * frobenius(minus_a) / v_norm if v_norm > 0 else math.nan
    if not ratio <= ACCEL_MAX_RATIO:
        return v, v, ratio
    return v, v - 0.5 * minus_a, ratio


def mu_init(cache: GramCache, tau: float) -> float:
    """Initial damping tau * max(1, max diag Gamma_full), where Gamma_full_rr
    = prod_n C^(n)_rr.  Under the unit-norm convention for modes 1..N-1 that
    is the largest diagonal entry of the approximate Hessian, max diag C^(N).

    :func:`fit` calls it on the unit-norm problem Y / ||Y||, from a start
    scaled to its least-squares weight, so the rule sees a model at the
    data's scale (Madsen, Nielsen & Tingleff, IMM 2004, section 3.2).
    """
    diag_full = np.multiply.reduce(cache.C.diagonal(0, 1, 2))
    return float(tau * max(1.0, np.max(np.real(diag_full))))


def nielsen_update(mu: float, growth: float, rho: float) -> tuple[float, float]:
    """Nielsen gain-ratio damping control (classical multiplicative form):
    the next damping parameter and growth factor, from the current ones and
    the gain ratio ``rho``."""
    if rho > 0:
        return mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
    return mu * growth, 2.0 * growth


def _start(y: DenseTensor, config: FitConfig) -> tuple[KruskalModel, str]:
    """The configured start of ``y`` and its name (``FitResult.start``).
    :func:`_fit_unit` calls it once per fit, on Y's ST-HOSVD core over its
    norm; the random draws come from ``config.seed`` alone.

    ``init="random"`` gives Gaussian factors ("random").  ``init="svd"``
    gives the GEVD start (:func:`~cpfast.kruskal.gevd_init`, "gevd") of a
    ``y`` of order >= 3 whose first two dims are R, and the SVD start
    (:func:`~cpfast.kruskal.svd_init`, "svd") of any other ``y`` or where
    the GEVD start does not exist.  Each start draws from its own generator
    of the seed, ``np.random.default_rng([config.seed, 0])``, which the SVD
    start makes only where it draws, so a fallback is the SVD start bit for
    bit."""
    rng = functools.partial(np.random.default_rng, [config.seed, 0])
    if config.init == "random":
        return random_init(y.dims, config.rank, rng(), y.scalar_kind), "random"
    if y.order >= 3 and y.dims[:2] == (config.rank, config.rank):
        model = gevd_init(y, rng())
        if model is not None:
            return model, "gevd"
    return svd_init(y, config.rank, config.seed), "svd"


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
    ends the fit.  An accepted step that completes the window ends the fit
    before its model's gradient is formed, so the gradient test is not
    checked there.  ``FitResult.stop_test`` says which test it was; a
    compressed LM fit has a third, "core" (see below).
    Otherwise a fit stops when the iteration budget runs out ("max_iters"),
    or, for the LM family, when the damping parameter overflows 1e30
    ("mu_overflow") or a candidate's squared residual is not finite
    ("nonfinite").  A numerical failure of the step ends the fit with
    stop reason "error at iteration t: ...".  Raises ``ValueError`` for NaN
    or infinite entries, for tensors of order below 2 or with a zero-size
    mode and for a norm that overflows even after rescaling by max|y|, and
    ``ZeroDivisionError`` for an all-zero tensor, all before any
    initialization.

    Every fit solves the unit-norm problem: ``fit`` divides Y by ||Y|| once
    and hands Y / ||Y|| to the front end (:func:`_fit_unit`), which builds
    the configured start of the ST-HOSVD core (for ``init="svd"`` its GEVD
    start where the core has order >= 3, its first two dims are R and that
    start exists, else its SVD start; for ``init="random"`` Gaussian
    factors of it) and hands it to the loop, :func:`_fit_lm` or
    :func:`_fit_als`, which only iterates; ``FitResult.start`` names the
    start.  It then scales the returned model back once: the LM family's
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
    whose window resumes the core stage's (:func:`_fit_unit`); the
    refinement's start costs no pass over Y.  The LM family measures
    convergence on Y: the core stage's gradient test scales ``config.tol``
    by the error on Y that the core implies, and after a core stage that
    stopped on it, the refinement stops "tol" ("core") on its first
    accepted step whose difference is below ``config.tol``.  ``max_iters``
    bounds both stages together, the trace marks each record's stage, and
    ``final_relerr`` is that of the last record on Y.
    """
    if y.order < 2:
        raise ValueError(f"CP fitting needs order >= 2, got order {y.order}")
    if not all(y.dims):
        raise ValueError(f"cannot fit a tensor with a zero-size mode, dims {y.dims}")
    ynorm = _tensor_norm(y)
    t0 = time.monotonic()
    loop = _fit_als if config.variant in ("als", "als-ls") else _fit_lm
    result = _fit_unit(loop, DenseTensor(y.data / ynorm), config, t0)
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


def _fit_unit(loop, y: DenseTensor, config: FitConfig, t0: float) -> FitResult:
    """The front end of every fit of the unit-norm tensor ``y`` with
    ``loop`` (:func:`_fit_lm` or :func:`_fit_als`), whose records are timed
    from ``t0``.

    Every fit, whatever its init, runs one ST-HOSVD (Vannieuwenhoven,
    Vandebril & Meerbergen, SIAM J. Sci. Comput. 34(2), 2012):
    :func:`st_hosvd` of ``y`` gives bases U_n, the core G, of dims
    min(I_n, R) at most, and ``lead``, ``y`` projected in modes 1..N-1.
    G / kappa, kappa = ||G||, gets the configured start (:func:`_start`).  A
    plain fit maps that start to ``y`` with :func:`_expanded_start`, which
    also gives its mode-N MTTKRP, so the start costs no pass over ``y``.

    A compressed fit (:func:`_compresses`, ``max_iters`` > 1) runs compress,
    fit, refine (Bro & Andersson, Chemom. Intell. Lab. Syst. 42, 1998):
    ``loop`` fits G / kappa from the start and its mode-N MTTKRP, then fits
    ``y`` from the expanded result with the same stop rule.  The core stage
    may take ``max_iters`` - 1 iterations and the refinement the rest, so
    ``max_iters`` bounds both together.  The core's records are marked
    "core".  The stop reason, its test and the model, a model of ``y``, are
    the refinement's; ``start`` is the core stage's.

    With orthonormal U_n, ||Y - [[U B]]||^2 = ||Y||^2 - ||G||^2 + ||G -
    [[B]]||^2, so e_Y^2 = 1 - k^2 + k^2 e_G^2 with k = ||G|| / ||Y|| = kappa
    <= 1, and |De_Y| <= k |De_G|: each small difference on G is one at least
    as small on Y.  So the refinement's window starts at the core loop's
    own trailing run of differences below ``tol``, which it returns as
    ``below``.

    The fLM core stage's gradient test is on Y's scale: it stops once ||g_G||
    <= tol * sqrt(e_G^2 + (1 - k^2) / k^2) = tol * e_Y / k (``lost_sq`` of
    :func:`_fit_lm`).  That is conservative.  Expand the model B of G /
    kappa with equal mode norms, A^(n) = k^(1/N) U_n B^(n).  Since U_n^H
    Y_(n) conj(KR(U_m, m != n)) = G_(n) = k (G / kappa)_(n), and A's Gram
    matrices are k^(2/N) times B's, block n of Y's gradient projected onto
    the subspace is U_n^H g_Y = k^(2 - 1/N) g_G.  So the test gives ||U^H
    g_Y|| <= k^(1 - 1/N) tol e_Y <= tol e_Y.  Where k = 1 it is the plain
    test.

    A core stage that stopped "gradient" is stationary on Y within the
    subspace, so the refinement starts its window at zero and stops "tol"
    ("core") on its first accepted step whose difference is below ``tol``;
    a rejected step never ends it that way.  Any other core stage's
    refinement resumes the window.
    """
    first, resume = None, {}
    bases, core, lead = st_hosvd(y, config.rank)
    kappa = _tensor_norm(core)
    core = DenseTensor(core.data / kappa)
    model, start = _start(core, config)
    if config.max_iters > 1 and _compresses(y.dims, config.rank):
        stage = {}
        if loop is _fit_lm:
            # e_Y^2 / k^2 - e_G^2; rounding can put kappa above 1.
            stage["lost_sq"] = max(1.0 - kappa * kappa, 0.0) / (kappa * kappa)
        budget = replace(config, max_iters=config.max_iters - 1)
        kr = _khatri_rao_rows([f.T for f in model.factors[:-1]]).mT
        last = _last_mttkrp(core, kr)
        first = loop(core, budget, t0, model, last, **stage)
        for rec in first.trace:
            rec.stage = "core"
        model = first.model
        config = replace(config, max_iters=config.max_iters - first.iters)
        # Only the LM loop has a gradient test to stop on.
        if first.stop_test == "gradient":
            resume = {"settled": True}
        else:
            resume = {"below": first.below}
    result = loop(y, config, t0, *_expanded_start(bases, lead, model, kappa), **resume)
    if first is not None:
        for rec in result.trace:
            rec.iter += first.iters
        result.trace = first.trace + result.trace
    result.start = start
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
    kr = _khatri_rao_rows([f.T for f in core_model.factors[:-1]]).mT
    return start, kappa * (lead @ kr.conj())


def _candidate_error(
    y: DenseTensor,
    err: float,
    xs: np.ndarray,
    norm,
    grams: np.ndarray,
    last: np.ndarray | None = None,
) -> tuple[list, np.ndarray | tuple, str]:
    """The one candidate scorer: the relative errors of the batch of
    candidate stacks ``xs`` (B x N x R x I_max; see
    :func:`~cpfast.kruskal.stack`) on the unit-norm tensor ``y``, as a list
    of B floats, their mode-N MTTKRPs (B x I_N x R, or B Nones where unused)
    and the path that scored them, "gram" or "dense".

    While the current error ``err`` is at least ``GRAM_ERROR_GUARD``, the
    errors come from the Gram identity, one batched
    :func:`~cpfast.kruskal._gram_error`, with the candidates' stacked Gram
    matrices (B x N x R x R) and their mode-N MTTKRPs.  ``grams`` (N x R x R)
    is the first candidate's, and so is ``last`` when the caller has it; the
    others' come from one batched :func:`gram_stack` and one
    :func:`~cpfast.kruskal._batch_last_mttkrp`, a pass over the tensor per
    candidate.  Below the guard each is the dense residual over ``norm()``,
    the computed ||Y||, from one batched reconstruction
    (:func:`~cpfast.kruskal._residual_norms`), which needs neither.  Each
    candidate's products are the BLAS calls, on the same strides, that
    scoring it alone makes, so its error does not depend on the batch.
    """
    if err < GRAM_ERROR_GUARD:
        ynorm = norm()
        errs = [r / ynorm for r in _residual_norms(y, xs)]
        return errs, (None,) * len(xs), "dense"
    if last is None:
        lasts = _batch_last_mttkrp(y, xs)
    else:
        lasts = _first_given(last, xs, _batch_last_mttkrp, y)
    return _gram_error(xs, lasts, _first_given(grams, xs, gram_stack)), lasts, "gram"


def _first_given(first: np.ndarray, xs: np.ndarray, compute, *args) -> np.ndarray:
    """The batch array for ``xs`` of ``first``, the first element's result,
    and ``compute(*args, xs[1:])``."""
    if xs.shape[0] == 1:
        return first[None]
    out = np.empty(xs.shape[:1] + first.shape, first.dtype)
    out[0] = first
    out[1:] = compute(*args, xs[1:])
    return out


def _fit_als(
    y: DenseTensor,
    config: FitConfig,
    t0: float,
    model: KruskalModel,
    last: np.ndarray,
    below: int = 0,
) -> FitResult:
    """ALS and ALS with line search on the unit-norm tensor ``y``, from the
    start ``model`` of ``y`` and its mode-N MTTKRP ``last``; ``below``
    starts the window's count (see :func:`_fit_unit`), and each
    record's ``elapsed_s`` counts from ``t0``, a ``time.monotonic``
    reading.  :func:`fit` scales ``y`` and the returned model back, and
    :func:`_fit_unit` builds the start, so neither the Gram matrices nor
    the normal equations' solves over- or underflow.

    The loop enters as :func:`_fit_lm` does, through :func:`_scaled_start`,
    which scales the start to its least-squares weight, normalizes it and
    scores it from ``last``.  It holds the model as a stack
    (:func:`~cpfast.kruskal.stack`) and returns its
    :func:`~cpfast.kruskal.model_from_stack` views.  Each iteration is one
    :func:`~cpfast.kruskal._sweep` of the stack, two passes over the
    tensor, whose normal equations are solved by Cholesky (falling back to
    :func:`~cpfast.kruskal.pinv_psd` where a Gram matrix is not numerically
    positive definite).  The loop builds the sweep's per-shape setup
    (:func:`~cpfast.kruskal._sweep_plan`: the other modes of each mode, the
    contraction shapes and the LAPACK routines) once per fit, and then runs
    the sweep, which checks nothing (the front end builds the start from
    ``y``'s own dims and scalar kind) and also returns the swept stack's
    Gram matrices for the scorer.  ALS-ls then tries X_prev + s (X_als -
    X_prev) on stacks, with X_prev the model before the one swept, for s = 1.1 and
    s = t^(1/3), built from one difference as one B = 3 batch behind the
    swept stack; a candidate replaces the sweep only if its error is
    strictly lower, checked in that order.  The recipe is a documented
    stand-in: the classical "ALS with line search" baseline defers to
    toolbox internals.  The batch is scored by one :func:`_candidate_error`
    call, which is still one pass or one dense residual per candidate:
    above ``GRAM_ERROR_GUARD`` the sweep's own M^(N) scores the swept stack
    and each extrapolated candidate costs one pass (an ALS-ls sweep is four
    passes, with no reconstruction), and the sweep's Gram matrices score it
    too; below it, each candidate costs one dense residual, over ||Y|| taken
    at most once per loop, when first needed.
    """
    trace = []
    norm = functools.cache(y.norm)
    x, _, last, err = _scaled_start(y, model, last, norm)
    plan = _sweep_plan(y.dims, x.shape[1], x.dtype)
    prev = None
    stop_reason, stop_test = "max_iters", None
    for t in range(1, config.max_iters + 1):
        swept, last, grams = _sweep(y, x, plan)
        cands = swept[None]
        if config.variant == "als-ls" and prev is not None:
            d = swept - prev
            s = float(t) ** (1.0 / 3.0)
            cands = np.array((swept, prev + 1.1 * d, prev + s * d))
        errs, _, scorer = _candidate_error(y, err, cands, norm, grams, last)
        # The first of the lowest errors: the swept stack on a tie.
        best = errs.index(min(errs))
        prev, x = x, cands[best]
        trace.append(
            IterRecord(
                t, errs[best], 0.0, True, scorer=scorer,
                elapsed_s=time.monotonic() - t0,
            )
        )
        below = below + 1 if abs(err - errs[best]) < config.tol else 0
        err = errs[best]
        if below >= TOL_WINDOW:
            stop_reason, stop_test = "tol", "window"
            break
    return FitResult(
        model_from_stack(x, y.dims), trace, stop_reason, below=below,
        stop_test=stop_test,
    )


def _scaled_start(
    y: DenseTensor, start: KruskalModel, last: np.ndarray, norm
) -> tuple[np.ndarray, GramCache, np.ndarray, float]:
    """The model ``start`` of the unit-norm tensor ``y``, at any scale, with
    its mode-N MTTKRP ``last``, scaled by its least-squares weight and
    normalized, as a stack (see :func:`~cpfast.kruskal.stack`), with its Gram
    cache, mode-N MTTKRP and relative error; ``norm()`` gives the computed
    ||Y||.  Both loops, :func:`_fit_lm` and :func:`_fit_als`, enter through
    it.

    The last factor is multiplied by alpha = Re<A^(N), M^(N)> / 1^T Gamma_full
    1, the one overall scale that minimizes the residual, when alpha > 0; one
    scalar keeps every component's direction and relative size.  The error
    comes from the Gram identity (:func:`~cpfast.kruskal._gram_error`) on
    M^(N), which the caller has already formed, and again from the dense
    residual (:func:`~cpfast.kruskal._residual_norms`) where the first is
    below ``GRAM_ERROR_GUARD``.
    """
    x = stack(start.factors)
    grams = gram_stack(x)
    cross = np.vdot(start.factors[-1], last).real
    alpha = cross / np.multiply.reduce(grams).sum().real
    if alpha > 0:
        x[-1] *= alpha
        grams[-1] *= alpha**2
    x, cache, last = normalize_with_grams(x, grams, last)
    (err,) = _gram_error(x[None], last[None], cache.C[None])
    if err < GRAM_ERROR_GUARD:
        err = _residual_norms(y, x[None])[0] / norm()
    return x, cache, last, err


def _fit_lm(
    y: DenseTensor,
    config: FitConfig,
    t0: float,
    start: KruskalModel,
    last: np.ndarray,
    below: int = 0,
    *,
    lost_sq: float = 0.0,
    settled: bool = False,
) -> FitResult:
    """Damped Gauss-Newton loop with the fast step ("auto") on the unit-norm
    tensor ``y``, from the model ``start`` of ``y`` and its mode-N MTTKRP
    ``last``; ``below`` starts the window's count (see
    :func:`_fit_unit`), and each record's ``elapsed_s`` counts from
    ``t0``, a ``time.monotonic`` reading.  :func:`fit` scales ``y``, so
    ``mu_init``, ``MU_OVERFLOW`` and ``RHO_DENOM_GUARD`` act on an O(1)
    problem, and scales the returned model back; :func:`_fit_unit` builds
    the start.

    The loop starts from ``start``, at any scale, scaled by its
    least-squares weight (:func:`_scaled_start`, as :func:`_fit_als`
    does), which costs no pass over
    the tensor and no dense residual above ``GRAM_ERROR_GUARD``; ``last``
    also serves the first gradient (:func:`~cpfast.kruskal._gradient`).

    The model x, the gradient g, both steps and the candidate are stacks
    (:func:`~cpfast.kruskal.stack`), zero past column I_n, whose Fortran-
    ordered views x[n, :, :I_n]^T are the factors the tensor contractions
    read; every other per-mode job is one batched call over the modes.  The
    loop builds no model: the returned one is the
    :func:`~cpfast.kruskal.model_from_stack` views of the last x.  The
    damping parameter mu and the Nielsen growth factor are two floats that
    :func:`nielsen_update` replaces.

    Each iteration takes one :func:`flm_step`, which factors one
    :class:`~cpfast.hessian.DampedCore` and solves it twice: for v = (H + mu
    I)^{-1} g, and for the geodesic acceleration a = -(H + mu I)^{-1} J^H
    M''(v, v), whose right-hand side
    (:func:`~cpfast.kruskal.second_order_term`) costs O(T R^2 + N^2 R^2) and
    no pass over the tensor.  The candidate is x + v + a/2 when 2 ||a|| /
    ||v|| <= ``ACCEL_MAX_RATIO``, else x + v.  The gain ratio's
    denominator stays Re<v, g + mu v>, v's Gauss-Newton prediction: taking it
    from v + a/2 instead cost more iterations on the swamp.

    Cost per iteration in passes over the tensor: a candidate is scored, as
    a batch of one of :func:`_candidate_error`, with the Gram identity from
    its mode-N MTTKRP (one pass); if it is accepted, its gradient adds the
    partial product for modes 1..N-1 (a second pass), unless it ends the
    fit on a difference rule: the model returned needs no gradient, and its
    record's ``grad_norm`` is NaN.  The identity rounds
    at a few eps, so a step whose predicted decrease Re<v, g + mu v> is
    below ``DECREASE_RESOLUTION`` is scored by
    :func:`~cpfast.kruskal.residual_decrease` from the same one pass, whose
    rounding scales with the step.  Once the accepted relative error is below
    ``GRAM_ERROR_GUARD`` the identity cancels, so candidates are scored by the
    dense residual instead, and an accepted one costs both passes of its
    gradient; the path is chosen from the current error and the
    prediction, so no iteration computes two.  The record's ``scorer`` names
    the path.

    The candidate's Gram matrices are formed once and serve three times: in
    its Gram-identity error and, through :func:`normalize_with_grams`, as its
    column norms and, rescaled, as the next Gram cache; the normalization's
    scales also carry its M^(N) over.  A candidate whose squared residual is
    not finite ends the fit with stop reason "nonfinite".

    Besides the ten-difference window, the fit stops "tol" once ||g|| <=
    tol * relerr at the current model (see :func:`fit`), or, with
    ``lost_sq``, once ||g|| <= tol * sqrt(relerr^2 + ``lost_sq``): a core
    stage's test on the scale of the error on Y (see
    :func:`_fit_unit`).  ||g|| comes from the gradient that each
    accepted model needs for the next step anyway, so the test costs no
    pass over the tensor.  With ``settled``, for a refinement whose core
    stage stopped on that test, the first accepted step whose difference is
    below tol also stops the fit "tol", with stop test "core".
    """
    norm = functools.cache(y.norm)
    x, cache, last, err = _scaled_start(y, start, last, norm)
    mu, growth = mu_init(cache, config.tau), 2.0
    g, last = _gradient(y, x, cache.gamma_excl, last)
    grad_norm = frobenius(g)
    # The error the gradient test scales tol by: relerr itself on a plain
    # fit, so no call is added there.
    test_err = math.sqrt(err * err + lost_sq) if lost_sq else err

    trace = []
    stop_reason, stop_test = "max_iters", None
    for t in range(1, config.max_iters + 1):
        try:
            v, step, accel_ratio = flm_step(x, cache, g, mu)
        except np.linalg.LinAlgError as exc:
            stop_reason = f"error at iteration {t}: {exc}"
            break
        step_norm = frobenius(step)
        cand = x + step
        grams = gram_stack(cand)

        predicted = np.vdot(v, g + mu * v).real
        if predicted < DECREASE_RESOLUTION and err >= GRAM_ERROR_GUARD:
            decrease, cand_last = residual_decrease(y, x, cand, cache.C, grams, last)
            cand_err, scorer = math.sqrt(max(err * err - decrease, 0.0)), "decrease"
        else:
            (cand_err,), (cand_last,), scorer = _candidate_error(
                y, err, cand[None], norm, grams
            )
        cand_sq = cand_err * cand_err
        finite = math.isfinite(cand_sq)
        rho = math.nan  # a non-finite candidate is rejected and mu kept
        if finite:
            rho = (
                -1.0 if abs(predicted) < RHO_DENOM_GUARD
                else (err * err - cand_sq) / predicted
            )
            mu, growth = nielsen_update(mu, growth, rho)

        accepted = bool(rho > 0 and cand_err < err)
        diff = abs(err - cand_err) if accepted else 0.0
        below = below + 1 if diff < config.tol else 0
        if settled and accepted and diff < config.tol:
            ends = "core"
        elif below >= TOL_WINDOW:
            ends = "window"
        else:
            ends = None
        if accepted:
            x, cache, cand_last = normalize_with_grams(cand, grams, cand_last)
            err = cand_err
            test_err = math.sqrt(err * err + lost_sq) if lost_sq else err
            if ends is None:
                g, last = _gradient(y, x, cache.gamma_excl, cand_last)
                grad_norm = frobenius(g)
            else:
                # A difference rule returns this model: no gradient for it.
                grad_norm = math.nan

        trace.append(
            IterRecord(
                t, err, mu, accepted, float(rho), grad_norm, step_norm,
                accel_ratio, scorer=scorer, elapsed_s=time.monotonic() - t0,
            )
        )

        if not finite:
            stop_reason = "nonfinite"
            break
        if grad_norm <= config.tol * test_err:
            stop_reason, stop_test = "tol", "gradient"
            break
        if ends is not None:
            stop_reason, stop_test = "tol", ends
            break
        if mu > MU_OVERFLOW:
            stop_reason = "mu_overflow"
            break
    return FitResult(
        model_from_stack(x, y.dims), trace, stop_reason, below=below,
        stop_test=stop_test,
    )
