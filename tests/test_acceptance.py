"""Top-level acceptance suite: each test is one headline criterion, checked at
its stated tolerance against independent oracles.  One pass/fail line per
criterion (pytest -v).

The shared instance ensemble draws factor matrices with unit-norm columns
(N in {2,3,4}, I_n in [2,6], R in [1,3], real and complex): column
normalization pins the top Hessian eigenvalue to O(1) so that comparisons at
mu as small as 1e-6 measure algebraic agreement rather than float64
conditioning noise.
"""

import math
import statistics
import time

import numpy as np
import pytest

from cpfast.hessian import damped_core
from cpfast.kruskal import (
    KruskalModel,
    build_gram_cache,
    gradient,
    model_from_stack,
    model_from_vector,
    random_init,
    reconstruct,
    stack,
)
from cpfast.oracle import (
    assemble_hessian,
    assemble_phi,
    build_parts,
    dense_damped_solve,
    jacobian,
    kernel_inverse,
    kernel_is_invertible,
    kernel_matrix,
    phi_density,
)
from cpfast.solver import FitConfig, fit
from cpfast.synth import (
    CollinearSpec,
    add_noise,
    collinear_mixing,
    collinearity_angles,
    component_magnitude,
    gen_collinear,
    spectrum,
)
from cpfast.tensor import COMPLEX, DenseTensor, REAL, unfold
from cpfast.verify import fd_gradient

N_INSTANCES = 50
MU_INVERSE_GRID = (1e-6, 1e-2, 1.0, 1e3)
MU_STEP_GRID = (1e-4, 1e-1, 10.0)


def as_stack(vec, model):
    """The stacked vector ``vec`` of a model like ``model``, as a stack."""
    return stack(model_from_vector(vec, model.dims, model.rank).factors)


def as_vector(x, model):
    """The stack ``x`` of a model like ``model``, as a stacked vector."""
    return model_from_stack(x, model.dims).as_vector()


def ensemble_instance(seed):
    """Instance #seed of the shared acceptance ensemble."""
    rng = np.random.default_rng([seed, 10])
    kind = COMPLEX if seed % 2 else REAL
    n_modes = int(rng.integers(2, 5))
    dims = tuple(int(rng.integers(2, 7)) for _ in range(n_modes))
    rank = int(rng.integers(1, 4))
    model = random_init(dims, rank, rng, kind)
    for f in model.factors:
        f /= np.linalg.norm(f, axis=0, keepdims=True)
    noise = rng.standard_normal(dims)
    if kind == COMPLEX:
        noise = noise + 1j * rng.standard_normal(dims)
    y = DenseTensor(reconstruct(model).data + 0.1 * noise)
    return y, model


def rel(delta, ref):
    return float(np.linalg.norm(delta) / np.linalg.norm(ref))


def test_criterion_01_hessian_identity():
    """Blockwise H equals J^T J / J^H J to 1e-10 on 50 instances in < 30 s."""
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(N_INSTANCES):
        _, model = ensemble_instance(seed)
        j = jacobian(model)
        ref = j.conj().T @ j
        worst = max(worst, rel(assemble_hessian(model) - ref, ref))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10, f"worst relative error {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_02_low_rank_adjustment():
    """|H - (G + Z K Z^H)| / |H| <= 1e-12 on the same instances."""
    worst = 0.0
    for seed in range(N_INSTANCES):
        _, model = ensemble_instance(seed)
        cache = build_gram_cache(model)
        h = assemble_hessian(model, cache)
        parts = build_parts(cache, model.factors)
        rebuilt = parts.G + parts.Z @ parts.K @ parts.Z.conj().T
        worst = max(worst, rel(h - rebuilt, h))
    assert worst <= 1e-12, f"worst relative error {worst:.3e}"


def test_criterion_03_fast_inverse():
    """Materialized structured inverse equals dense (H+mu I)^{-1} to 1e-8 over
    the mu grid; storage is exactly N R^2 + N^2 R^4 scalars."""
    worst = 0.0
    for seed in range(0, N_INSTANCES, 2):
        _, model = ensemble_instance(seed)
        cache = build_gram_cache(model)
        h = assemble_hessian(model, cache)
        eye = np.eye(h.shape[0])
        for mu in MU_INVERSE_GRID:
            dense = np.linalg.inv(h + mu * eye)
            core = damped_core(stack(model.factors), cache, mu)
            mat = np.column_stack(
                [as_vector(core.apply(as_stack(e, model)), model) for e in eye]
            )
            worst = max(worst, rel(mat - dense, dense))
            n, r = model.order, model.rank
            assert core.gtilde.size + core.lu.size == n * r**2 + n**2 * r**4
    assert worst <= 1e-8, f"worst relative error {worst:.3e}"


def test_criterion_04_step_equivalence(damped_step):
    """The fast (fLM_a) step equals the dense dGN step to 1e-8."""
    worst = 0.0
    for seed in range(N_INSTANCES):
        y, model = ensemble_instance(seed)
        for mu in MU_STEP_GRID:
            ref = dense_damped_solve(y, model, mu)
            worst = max(worst, rel(damped_step("flm-a", y, model, mu) - ref, ref))
    assert worst <= 1e-8, f"worst step error {worst:.3e}"


def test_criterion_05_kernel_inverse(damped_step):
    """K Ktilde = I to 1e-10 on non-orthogonal factors; on orthonormal
    factors K is singular, and the fast step, which never forms K^{-1}, still
    equals the dense step."""
    worst = 0.0
    for seed in range(N_INSTANCES):
        _, model = ensemble_instance(seed)
        cache = build_gram_cache(model)
        if not kernel_is_invertible(cache):
            continue
        k = kernel_matrix(cache)
        eye = np.eye(k.shape[0])
        worst = max(worst, float(np.linalg.norm(k @ kernel_inverse(cache) - eye)))
    assert worst <= 1e-10, f"worst |K Ktilde - I| {worst:.3e}"

    rng = np.random.default_rng(99)
    factors = [np.linalg.qr(rng.standard_normal((6, 3)))[0] for _ in range(3)]
    ortho = KruskalModel(factors)
    cache = build_gram_cache(ortho)
    assert not kernel_is_invertible(cache)
    y = DenseTensor(reconstruct(ortho).data + 0.1 * rng.standard_normal((6, 6, 6)))
    ref = dense_damped_solve(y, ortho, 0.1)
    delta = damped_step("flm-a", y, ortho, 0.1)
    assert rel(delta - ref, ref) <= 1e-8


def test_criterion_06_gradient_finite_differences():
    """Analytic gradient matches central differences (h = 1e-6) to 1e-5."""
    for seed in (0, 1, 2, 3):
        y, model = ensemble_instance(seed)
        g = gradient(y, model)
        fd = fd_gradient(y, model)
        assert rel(g - fd, g) <= 1e-5, f"instance {seed}"


@pytest.mark.parametrize("n_modes,rank", [(3, 2), (4, 3), (5, 3)])
def test_criterion_07_density_formulas(n_modes, rank):
    """Assembled Phi1/Phi2 nonzero fractions equal the closed-form densities."""
    rng = np.random.default_rng(n_modes * 10 + rank)
    model = random_init((rank + 2,) * n_modes, rank, rng)
    cache = build_gram_cache(model)
    from fractions import Fraction

    for variant in ("phi1", "phi2"):
        phi = assemble_phi(cache, 0.5, variant)
        nnz = np.count_nonzero(np.abs(phi) > 1e-13 * np.abs(phi).max())
        total = (n_modes * rank**2) ** 2
        assert Fraction(nnz, total) == phi_density(n_modes, rank, variant)


def test_criterion_08_appendix_spectrum():
    """Closed-form eigenvalues match the mixing-matrix eigendecomposition to
    1e-10 and the empirical unfolding spectrum to 1e-6; sigma calibration is
    within 0.3 dB."""
    for nu in (0.3, 0.9, 2.0):
        for rank in (2, 3, 4):
            rep = spectrum(12, rank, 3, nu)
            q = collinear_mixing(rank, nu)
            sigma = q @ (q.T @ q) ** 2 @ q.T
            eigs = np.sort(np.linalg.eigvalsh(sigma))[::-1]
            closed = np.array([rep.lam_max] + [rep.lam_mid] * (rank - 2) + [rep.lam_min])
            np.testing.assert_allclose(eigs, closed, rtol=1e-10)

            _, y = gen_collinear(CollinearSpec((12, 12, 12), rank, nu, seed=0))
            mat = unfold(y, 1)
            emp = np.sort(np.linalg.eigvalsh(mat @ mat.T))[::-1][:rank]
            np.testing.assert_allclose(emp, closed, rtol=1e-6)

    _, y = gen_collinear(CollinearSpec((22, 22, 22), 3, 0.5, seed=3))
    for snr_db in (10.0, 30.0):
        noisy = add_noise(y, snr_db, seed=3)
        noise2 = np.linalg.norm((noisy.data - y.data).ravel()) ** 2
        measured = 10 * math.log10(y.norm() ** 2 / noise2)
        assert abs(measured - snr_db) < 0.3


def test_criterion_09a_component_magnitudes_and_first_angle():
    """nu = 3, 4, 5 (N = 3) give lambda_r = 31.6, 70.1, 132.6 (+-0.05);
    nu = 0.1 gives theta_1r = 5.71 degrees (+-0.01)."""
    for nu, expected in ((3.0, 31.6), (4.0, 70.1), (5.0, 132.6)):
        assert abs(component_magnitude(nu, 3) - expected) <= 0.05
    theta_1r, _ = collinearity_angles(0.1)
    assert abs(theta_1r - 5.71) <= 0.01


def test_criterion_09b_second_angle():
    """nu = 0.1 gives theta_qr = 8.10 degrees (+-0.02).

    atan(0.1 sqrt(0.1^2 + 2)) = 8.0698 degrees, so an 8.10 +- 0.02 window
    cannot contain the true value of the stated formula; the nearby quantity
    atan(0.1) * sqrt(0.1^2 + 2) = 8.0964 does fall in it, suggesting the
    quoted 8.10 was produced by that misreading.  The check is kept at the
    stated tolerance rather than widened.
    """
    _, theta_qr = collinearity_angles(0.1)
    assert abs(theta_qr - 8.10) <= 0.02, f"theta_qr = {theta_qr:.4f} degrees"


def test_criterion_10_convergence_and_ordering(request):
    """On 20^3, R = 3, noise-free: nu = 0.5 reaches eps < 1e-8 within 1000
    iterations for >= 90% of 20 seeds; at nu = 0.1, fLM and ALS-ls both
    reach eps < 1e-12 from the default start (the GEVD of the ST-HOSVD
    core, exact on noiseless data) on 10 seeds, and from the SVD start
    (``svd_start``) median fLM iterations are strictly below median ALS-ls
    iterations: the paper's swamp comparison, which an exact start, where
    both loops stop on the ten-difference window, cannot make.  Under 5
    minutes."""
    t0 = time.monotonic()
    hits = 0
    for seed in range(20):
        _, y = gen_collinear(CollinearSpec((20, 20, 20), 3, 0.5, seed=seed))
        result = fit(y, FitConfig(rank=3, variant="auto", seed=seed, max_iters=1000))
        if result.final_relerr < 1e-8 and result.iters <= 1000:
            hits += 1
    assert hits >= 18, f"only {hits}/20 seeds converged"

    swamps = [
        gen_collinear(CollinearSpec((20, 20, 20), 3, 0.1, seed=seed))[1]
        for seed in range(10)
    ]

    def swamp_fits(variant):
        return [
            fit(y, FitConfig(rank=3, variant=variant, seed=seed, max_iters=1000))
            for seed, y in enumerate(swamps)
        ]

    for variant in ("auto", "als-ls"):
        assert all(r.final_relerr < 1e-12 for r in swamp_fits(variant)), variant
    request.getfixturevalue("svd_start")
    flm_iters, als_iters = (
        [r.iters for r in swamp_fits(variant)] for variant in ("auto", "als-ls")
    )
    assert statistics.median(flm_iters) < statistics.median(als_iters)
    assert time.monotonic() - t0 < 300.0


def test_criterion_11_acceptance_monotonicity():
    """Across every trace: relative error strictly decreases over accepted
    iterations, mu stays positive, and a stop reason is declared."""
    configs = [
        ((20, 20, 20), 3, 0.5, None, "auto", 0),
        ((20, 20, 20), 3, 0.1, None, "auto", 1),
        ((12, 12, 12), 3, 0.5, 20.0, "auto", 2),
        ((12, 12, 12), 2, 0.9, 30.0, "auto", 3),
    ]
    for dims, rank, nu, snr_db, algo, seed in configs:
        _, y = gen_collinear(CollinearSpec(dims, rank, nu, seed=seed))
        y = add_noise(y, snr_db, seed)
        result = fit(y, FitConfig(rank=rank, variant=algo, seed=seed, max_iters=300))
        accepted = [rec.relerr for rec in result.trace if rec.accepted]
        assert all(b < a for a, b in zip(accepted, accepted[1:]))
        assert all(rec.mu > 0 for rec in result.trace)
        assert result.stop_reason in ("tol", "max_iters", "mu_overflow")
