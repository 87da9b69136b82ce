"""Collinear swamp benchmark generation, calibrated noise, spectral
feasibility analysis, and angular-error scoring.

Benchmarks follow the standard swamp construction: every mode's components
share a common direction u_1 plus a nu-scaled orthogonal perturbation, so the
mutual angles (and the difficulty) are controlled by a single parameter.

Scoring matches estimated components to true ones with SciPy's compiled
assignment, ``linear_sum_assignment`` of ``scipy.optimize._lsap`` (Crouse,
IEEE TAES 52(4), 2016), loaded by path
(:func:`~cpfast.kruskal._load_scipy_extension`): the routine is
``scipy.optimize``'s own, yet neither scoring nor ``import cpfast`` imports
``scipy.optimize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kruskal import SCIPY_DIR, KruskalModel, _load_scipy_extension, reconstruct
from .tensor import COMPLEX, DenseTensor, REAL, _gaussian

MEDSAE_FLOOR_DB = -300.0
LSAP = _load_scipy_extension(SCIPY_DIR / "optimize", "scipy.optimize._lsap")


@dataclass
class CollinearSpec:
    dims: tuple
    rank: int
    nu: float
    snr_db: float | None = None
    seed: int = 0
    scalar_kind: str = REAL

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        _check_nu(self.nu)
        if self.rank > min(self.dims):
            raise ValueError(
                f"rank {self.rank} exceeds smallest dimension {min(self.dims)}"
            )


def _check_nu(nu: float) -> None:
    """Raise ``ValueError`` unless ``nu`` is finite and positive (NaN fails)."""
    if not (math.isfinite(nu) and nu > 0):
        raise ValueError(f"nu must be positive and finite, got {nu!r}")


def _random_orthonormal(rng, rows: int, cols: int, scalar_kind: str):
    q, _ = np.linalg.qr(_gaussian(rng, (rows, cols), scalar_kind))
    return q


def gen_collinear(spec: CollinearSpec):
    """Build the ground-truth model and its noise-free tensor.

    Per mode, a_1 = u_1 and a_r = u_1 + nu u_r (r >= 2) for orthonormal
    columns u_r drawn from a seeded QR.  Returns (truth, tensor).
    """
    rng = np.random.default_rng([spec.seed, 0])
    factors = []
    for d in spec.dims:
        u = _random_orthonormal(rng, d, spec.rank, spec.scalar_kind)
        a = u.copy()
        a[:, 1:] = u[:, [0]] + spec.nu * u[:, 1:]
        factors.append(a)
    truth = KruskalModel(factors)
    return truth, reconstruct(truth)


def collinearity_angles(nu: float):
    """Closed-form mutual angles (degrees): (theta_{1,r}, theta_{q,r})."""
    _check_nu(nu)
    theta_1r = math.degrees(math.atan(nu))
    theta_qr = math.degrees(math.atan(nu * math.sqrt(nu * nu + 2.0)))
    return theta_1r, theta_qr


def component_magnitude(nu: float, order: int) -> float:
    """Norm-induced weight (1 + nu^2)^(N/2) of each perturbed component."""
    return (1.0 + nu * nu) ** (order / 2.0)


def _noiseless(snr_db: float | None) -> bool:
    """Whether ``snr_db`` means no noise: None or +inf.  Any other value must
    be finite; -inf and NaN raise ``ValueError``."""
    if snr_db is None or snr_db == math.inf:
        return True
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, +inf or None, got {snr_db!r}")
    return False


def add_noise(tensor: DenseTensor, snr_db: float | None, seed: int) -> DenseTensor:
    """Additive white Gaussian noise calibrated to the target SNR (dB).

    sigma = ||Y||_F / sqrt(prod(dims) * 10^(SNR/10)); complex noise is
    circular with unit variance.  ``snr_db`` of None or +inf returns the
    tensor unchanged; -inf and NaN raise ``ValueError``.
    """
    if _noiseless(snr_db):
        return tensor
    ynorm = tensor.norm()
    if ynorm == 0.0:
        raise ZeroDivisionError("cannot calibrate noise for a zero tensor")
    j = tensor.size
    sigma = ynorm / math.sqrt(j * 10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng([seed, 1])
    noise = _gaussian(rng, tensor.dims, tensor.scalar_kind)
    if tensor.scalar_kind == COMPLEX:
        noise = noise / math.sqrt(2.0)
    return DenseTensor(tensor.data + sigma * noise)


def collinear_mixing(rank: int, nu: float) -> np.ndarray:
    """The R x R mixing Q with A^(n) = U^(n) Q for the swamp construction."""
    _check_nu(nu)
    q = nu * np.eye(rank)
    q[0, :] = 1.0
    return q


@dataclass
class SpectrumReport:
    """Closed-form spectrum of the mode unfolding's Gram for cubic swamps."""

    x: float
    y: float
    lam_max: float
    lam_mid: float
    lam_min: float
    sigma2: float
    noise_floor: float
    norm2: float
    feasible: bool


def _overflow(nu: float, order: int) -> ValueError:
    return ValueError(
        f"closed form overflows float64 for nu={nu!r} and order={order}"
    )


def _closed_form_base(nu: float, order: int) -> tuple[float, float]:
    """x = 1 + nu^2 and y = x^(N-1), the bases of the closed forms; a y
    beyond float64 raises ``ValueError`` naming ``nu`` and ``order``."""
    x = 1.0 + nu * nu
    try:
        return x, x ** (order - 1)
    except OverflowError:
        raise _overflow(nu, order) from None


def frobenius_sq_closed_form(rank: int, nu: float, order: int) -> float:
    """||Y||_F^2 of the noiseless swamp tensor, R >= 2.

    Equals R^2 + (R-1)(xy - 1) with x = 1 + nu^2, y = x^(N-1); this is the
    trace of the mixing spectrum and matches direct computation (the widely
    quoted R^2 + (R-1)xy - 1 variant only agrees at R = 2).  Raises
    ``ValueError`` where it overflows float64.
    """
    if rank < 2:
        raise ValueError("closed form requires R >= 2")
    x, y = _closed_form_base(nu, order)
    norm2 = rank * rank + (rank - 1) * (x * y - 1.0)
    if not math.isfinite(norm2):
        raise _overflow(nu, order)
    return norm2


def spectrum(
    size: int, rank: int, order: int, nu: float, snr_db: float | None = None
) -> SpectrumReport:
    """Eigenvalues of the noiseless unfolding Gram versus the noise floor.

    Valid for cubic tensors (all dims equal to ``size``) and R >= 2.  The
    noise floor is ||Y||^2 10^(-SNR/10) / I and sigma^2 the floor times
    I^(1-N), formed with no intermediate beyond float64, so a value that
    underflows is 0.  Raises ``ValueError`` for R < 2, order < 2, for the
    swamps that :class:`CollinearSpec` rejects (nu not finite and positive,
    ``size`` < R), for a (``nu``, ``order``) whose eigenvalues overflow
    float64, for a noise floor beyond float64 and for an ``snr_db`` of -inf
    or NaN (None or +inf is noiseless).
    """
    if rank < 2:
        raise ValueError("spectrum analysis requires R >= 2")
    if order < 2:
        raise ValueError(f"spectrum analysis requires order >= 2, got {order}")
    CollinearSpec((size,) * order, rank, nu)
    x, y = _closed_form_base(nu, order)
    lam_mid = (x - 1.0) * (y - 1.0)
    s = x * y + (rank - 2) * (rank + x + y) + 3.0
    if not math.isfinite(s * s):
        raise _overflow(nu, order)
    p = (x - 1.0) * (y - 1.0)
    disc = math.sqrt(max(s * s - 4.0 * p, 0.0))
    lam_max = (s + disc) / 2.0
    lam_min = (s - disc) / 2.0
    norm2 = frobenius_sq_closed_form(rank, nu, order)
    noise_floor = 0.0
    if not _noiseless(snr_db):
        # 10^(-SNR/10) is applied in two factors where it alone would leave
        # float64, so only a floor that does raises.
        first = min(max(-snr_db / 10.0, -300.0), 300.0)
        try:
            noise_floor = norm2 / size * 10.0**first * 10.0 ** (-snr_db / 10.0 - first)
        except OverflowError:
            noise_floor = math.inf
        if noise_floor == math.inf:
            raise ValueError(f"noise floor overflows float64 for snr_db={snr_db!r}")
    sigma2 = noise_floor * float(size) ** (1 - order)
    return SpectrumReport(
        x=x,
        y=y,
        lam_max=lam_max,
        lam_mid=lam_mid,
        lam_min=lam_min,
        sigma2=sigma2,
        noise_floor=noise_floor,
        norm2=norm2,
        feasible=lam_min > noise_floor,
    )


def match_components(truth: KruskalModel, estimate: KruskalModel) -> np.ndarray:
    """Optimal assignment of estimate components to truth components.

    The congruence score multiplies the normalized |inner product| across all
    modes; the assignment maximizes total congruence (SciPy's
    ``linear_sum_assignment`` of the negated scores).  Returns
    ``perm`` with truth component r matched to estimate column perm[r].  An
    estimate with a zero column scores NaN, which raises ``ValueError``.
    """
    if truth.rank != estimate.rank:
        raise ValueError("rank mismatch between truth and estimate")
    r = truth.rank
    score = np.ones((r, r))
    for ft, fe in zip(truth.factors, estimate.factors):
        tn = ft / np.linalg.norm(ft, axis=0, keepdims=True)
        en = fe / np.linalg.norm(fe, axis=0, keepdims=True)
        score *= np.abs(tn.conj().T @ en)
    return LSAP.linear_sum_assignment(-score)[1]


def component_angles(truth: KruskalModel, estimate: KruskalModel) -> np.ndarray:
    """Angles (radians) between matched components, shape (N, R).

    Uses |a^H ahat| so sign and unit-modulus phase indeterminacy never
    inflate the angle.  Cosines within 1e-14 of unity are snapped to exact
    alignment: below that level arccos only amplifies rounding noise (a
    relative error of eps in the cosine already fakes an angle of ~1e-8).
    """
    perm = match_components(truth, estimate)
    n_modes, r = truth.order, truth.rank
    angles = np.zeros((n_modes, r))
    for n in range(n_modes):
        ft = truth.factors[n]
        fe = estimate.factors[n][:, perm]
        num = np.abs(np.sum(ft.conj() * fe, axis=0))
        den = np.linalg.norm(ft, axis=0) * np.linalg.norm(fe, axis=0)
        cos = np.clip(num / den, 0.0, 1.0)
        cos = np.where(cos > 1.0 - 1e-14, 1.0, cos)
        angles[n] = np.arccos(cos)
    return angles


def medsae(angle_runs) -> dict:
    """Median squared angular error in dB from one or more runs of angles.

    ``angle_runs``: iterable of (N, R) angle arrays (radians), one per run.
    Per component: 10 log10(median over runs of alpha^2), floored at -300 dB.
    ``first_db`` averages the r = 1 component over modes; ``rest_db`` averages
    components r >= 2 over modes (None when R = 1).
    """
    stack = np.stack([np.asarray(a) for a in angle_runs])
    med = np.median(stack**2, axis=0)
    with np.errstate(divide="ignore"):
        per_component = np.maximum(10.0 * np.log10(med), MEDSAE_FLOOR_DB)
    first_db = float(np.mean(per_component[:, 0]))
    rest_db = (
        float(np.mean(per_component[:, 1:]))
        if per_component.shape[1] > 1
        else None
    )
    return {
        "first_db": first_db,
        "rest_db": rest_db,
        "per_component": per_component,
    }


def medsae_pair(truth: KruskalModel, estimate: KruskalModel) -> dict:
    """Single-run convenience wrapper around :func:`medsae`."""
    return medsae([component_angles(truth, estimate)])
