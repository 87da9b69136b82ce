"""Collinear swamp benchmark generation, calibrated noise, spectral
feasibility analysis, and angular-error scoring.

Benchmarks follow the standard swamp construction: every mode's components
share a common direction u_1 plus a nu-scaled orthogonal perturbation, so the
mutual angles (and the difficulty) are controlled by a single parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kruskal import KruskalModel, reconstruct
from .tensor import COMPLEX, DenseTensor, REAL, _gaussian

MEDSAE_FLOOR_DB = -300.0


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


def add_noise(tensor: DenseTensor, snr_db: float | None, seed: int) -> DenseTensor:
    """Additive white Gaussian noise calibrated to the target SNR (dB).

    sigma = ||Y||_F / sqrt(prod(dims) * 10^(SNR/10)); complex noise is
    circular with unit variance.  ``snr_db`` of None or +inf returns the
    tensor unchanged.
    """
    if snr_db is None or math.isinf(snr_db):
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


def frobenius_sq_closed_form(rank: int, nu: float, order: int) -> float:
    """||Y||_F^2 of the noiseless swamp tensor, R >= 2.

    Equals R^2 + (R-1)(xy - 1) with x = 1 + nu^2, y = x^(N-1); this is the
    trace of the mixing spectrum and matches direct computation (the widely
    quoted R^2 + (R-1)xy - 1 variant only agrees at R = 2).
    """
    if rank < 2:
        raise ValueError("closed form requires R >= 2")
    x = 1.0 + nu * nu
    y = x ** (order - 1)
    return rank * rank + (rank - 1) * (x * y - 1.0)


def spectrum(
    size: int, rank: int, order: int, nu: float, snr_db: float | None = None
) -> SpectrumReport:
    """Eigenvalues of the noiseless unfolding Gram versus the noise floor.

    Valid for cubic tensors (all dims equal to ``size``) and R >= 2.  Raises
    ``ValueError`` for R < 2, order < 2, and for the swamps that
    :class:`CollinearSpec` rejects (nu not finite and positive, ``size`` < R).
    """
    if rank < 2:
        raise ValueError("spectrum analysis requires R >= 2")
    if order < 2:
        raise ValueError(f"spectrum analysis requires order >= 2, got {order}")
    CollinearSpec((size,) * order, rank, nu)
    x = 1.0 + nu * nu
    y = x ** (order - 1)
    lam_mid = (x - 1.0) * (y - 1.0)
    s = x * y + (rank - 2) * (rank + x + y) + 3.0
    p = (x - 1.0) * (y - 1.0)
    disc = math.sqrt(max(s * s - 4.0 * p, 0.0))
    lam_max = (s + disc) / 2.0
    lam_min = (s - disc) / 2.0
    norm2 = frobenius_sq_closed_form(rank, nu, order)
    if snr_db is None or math.isinf(snr_db):
        sigma2 = 0.0
    else:
        sigma2 = norm2 / (10.0 ** (snr_db / 10.0) * float(size) ** order)
    noise_floor = sigma2 * float(size) ** (order - 1)
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
    modes; the Hungarian method maximizes total congruence.  Returns ``perm``
    with truth component r matched to estimate column perm[r].
    """
    # Imported here so that ``import cpfast`` does not load scipy.optimize,
    # which fitting never needs.
    from scipy.optimize import linear_sum_assignment

    if truth.rank != estimate.rank:
        raise ValueError("rank mismatch between truth and estimate")
    r = truth.rank
    score = np.ones((r, r))
    for ft, fe in zip(truth.factors, estimate.factors):
        tn = ft / np.linalg.norm(ft, axis=0, keepdims=True)
        en = fe / np.linalg.norm(fe, axis=0, keepdims=True)
        score *= np.abs(tn.conj().T @ en)
    _, cols = linear_sum_assignment(-score)
    return cols


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
