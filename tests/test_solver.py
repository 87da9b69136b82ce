"""Damped Gauss-Newton iteration: step pieces against dense oracles, damping
schedule arithmetic, and full-fit behavior."""

import numpy as np
import pytest
import scipy.linalg

from cpfast.hessian import (
    damped_core,
    damped_gram_inverses,
    dense_damped_solve,
    kernel_is_invertible,
    kernel_matrix,
)
import cpfast.solver
from cpfast.kruskal import (
    build_gram_cache,
    gradient,
    mttkrp,
    normalize_equal_energy,
    normalize_unit_modes,
    pinv_psd,
    random_init,
    reconstruct,
    relative_error,
)
from cpfast.solver import (
    FitConfig,
    GRAM_ERROR_GUARD,
    LmState,
    MU_OVERFLOW,
    _rescaled_last_mttkrp,
    compute_w,
    damped_als_factor,
    fit,
    flm_step,
    flm_update,
    mu_init,
    nielsen_update,
)
from cpfast.synth import CollinearSpec, gen_collinear
from cpfast.tensor import COMPLEX, DenseTensor, REAL


def unit_model(rng, dims, rank, kind=REAL):
    m = random_init(dims, rank, rng, kind)
    for f in m.factors:
        f /= np.linalg.norm(f, axis=0, keepdims=True)
    return m


def noisy_instance(rng, dims, rank, kind=REAL, noise=0.1):
    m = unit_model(rng, dims, rank, kind)
    e = rng.standard_normal(dims)
    if kind == COMPLEX:
        e = e + 1j * rng.standard_normal(dims)
    return DenseTensor(reconstruct(m).data + noise * e), m


def dense_core_product(cache, mu, use_kernel_inverse, w):
    """B_mu w from the dense K and Psi: inv(K^{-1} + Psi) w with the kernel
    inverse (taken densely here), K (I + Psi K)^{-1} w without."""
    r = cache.gamma_full.shape[0]
    psi = scipy.linalg.block_diag(
        *[
            np.kron(np.linalg.inv(g + mu * np.eye(r)), c)
            for g, c in zip(cache.gamma_excl, cache.C)
        ]
    )
    k = kernel_matrix(cache)
    if use_kernel_inverse:
        return np.linalg.inv(np.linalg.inv(k) + psi) @ w
    return k @ np.linalg.solve(np.eye(k.shape[0]) + psi @ k, w)


class TestDampedAlsFactor:
    def test_undamped_limit_is_als(self):
        rng = np.random.default_rng(0)
        y, m = noisy_instance(rng, (4, 5, 6), 2)
        cache = build_gram_cache(m)
        got = damped_als_factor(y, m, damped_gram_inverses(cache, 0.0), 2)
        expected = mttkrp(y, m, 2) @ pinv_psd(cache.gamma_excl[1]).T
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_heavy_damping_kills_update(self):
        rng = np.random.default_rng(1)
        y, m = noisy_instance(rng, (4, 5, 6), 2)
        cache = build_gram_cache(m)
        got = damped_als_factor(y, m, damped_gram_inverses(cache, 1e12), 1)
        bound = np.abs(mttkrp(y, m, 1)).max() / 1e12 * (1 + 1e-6)
        assert np.abs(got).max() <= bound


class TestComputeW:
    def test_zero_at_exact_fit(self):
        rng = np.random.default_rng(2)
        m = unit_model(rng, (3, 4, 5), 2)
        y = reconstruct(m)
        cache = build_gram_cache(m)
        gt = damped_gram_inverses(cache, 0.1)
        damped = [damped_als_factor(y, m, gt, n) for n in (1, 2, 3)]
        assert np.abs(compute_w(m, cache, damped, gt)).max() < 1e-12

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_structured_product_oracle(self, kind):
        """w must equal Z^H (Gtilde_mu g) assembled from dense pieces."""
        rng = np.random.default_rng(3)
        y, m = noisy_instance(rng, (3, 4, 5), 2, kind)
        cache = build_gram_cache(m)
        mu = 0.25
        r = m.rank
        gt = scipy.linalg.block_diag(
            *[
                np.kron(np.linalg.inv(cache.gamma_excl[n] + mu * np.eye(r)), np.eye(m.dims[n]))
                for n in range(m.order)
            ]
        )
        z = scipy.linalg.block_diag(*[np.kron(np.eye(r), f) for f in m.factors])
        oracle = z.conj().T @ (gt @ gradient(y, m, cache))
        gt = damped_gram_inverses(cache, mu)
        damped = [damped_als_factor(y, m, gt, n) for n in (1, 2, 3)]
        w = compute_w(m, cache, damped, gt)
        assert np.linalg.norm(w - oracle) / np.linalg.norm(oracle) < 1e-10

    def test_rank_one_scalar_closed_form(self):
        rng = np.random.default_rng(4)
        y, m = noisy_instance(rng, (3, 4), 1)
        cache = build_gram_cache(m)
        mu = 0.5
        gt = damped_gram_inverses(cache, mu)
        damped = [damped_als_factor(y, m, gt, n) for n in (1, 2)]
        w = compute_w(m, cache, damped, gt)
        for n in range(2):
            a = m.factors[n][:, 0]
            c = cache.C[n].item()
            g = cache.gamma_excl[n].item()
            expected = a @ damped[n][:, 0] - c * g / (g + mu)
            assert np.isclose(w[n], expected)


class TestSolveB:
    def test_zero_maps_to_zero(self):
        rng = np.random.default_rng(5)
        cache = build_gram_cache(unit_model(rng, (3, 4, 5), 2))
        F = damped_core(cache, 0.1, "flm-a").solve(np.zeros(3 * 4))
        assert all(np.all(f == 0) for f in F)

    @pytest.mark.parametrize("variant,use_kinv", [("flm-a", False), ("flm-b", True)])
    def test_dense_oracle(self, variant, use_kinv):
        rng = np.random.default_rng(6)
        cache = build_gram_cache(unit_model(rng, (3, 4, 5), 2))
        w = rng.standard_normal(12)
        mu = 0.1
        F = damped_core(cache, mu, variant).solve(w)
        expected = dense_core_product(cache, mu, use_kinv, w)
        got = np.concatenate([f.reshape(-1, order="F") for f in F])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("dims", [(3, 4, 5), (3, 4, 3, 2)])
    @pytest.mark.parametrize("variant", ["flm-a", "flm-b"])
    def test_factored_core_matches_dense(self, kind, dims, variant):
        rng = np.random.default_rng(21)
        cache = build_gram_cache(unit_model(rng, dims, 2, kind))
        w = rng.standard_normal(len(dims) * 4)
        if kind == COMPLEX:
            w = w + 1j * rng.standard_normal(w.size)
        for mu in (1e-3, 1.0):
            F = damped_core(cache, mu, variant).solve(w)
            got = np.concatenate([f.reshape(-1, order="F") for f in F])
            expected = dense_core_product(cache, mu, variant == "flm-b", w)
            assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-10

    def test_variants_agree(self):
        rng = np.random.default_rng(7)
        cache = build_gram_cache(unit_model(rng, (4, 4, 4), 3))
        assert kernel_is_invertible(cache)
        w = rng.standard_normal(3 * 9)
        fa = damped_core(cache, 0.3, "flm-a").solve(w)
        fb = damped_core(cache, 0.3, "flm-b").solve(w)
        np.testing.assert_allclose(fa, fb, atol=1e-9)


class TestFlmStep:
    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("mu", [1e-4, 1e-1, 10.0])
    @pytest.mark.parametrize("variant", ["flm-a", "flm-b"])
    def test_equals_dense_dgn_step(self, kind, mu, variant):
        rng = np.random.default_rng(8)
        y, m = noisy_instance(rng, (3, 4, 5), 2, kind)
        delta_ref = dense_damped_solve(y, m, mu)
        delta = flm_step(y, m, mu, variant)
        assert np.linalg.norm(delta - delta_ref) / np.linalg.norm(delta_ref) < 1e-8

    @pytest.mark.parametrize("mu", [1e-4, 1e-1, 10.0])
    @pytest.mark.parametrize("variant", ["flm-a", "flm-b"])
    def test_four_way_complex_equals_dense_dgn_step(self, mu, variant):
        rng = np.random.default_rng(22)
        y, m = noisy_instance(rng, (3, 4, 3, 2), 2, COMPLEX)
        delta_ref = dense_damped_solve(y, m, mu)
        delta = flm_step(y, m, mu, variant)
        assert np.linalg.norm(delta - delta_ref) / np.linalg.norm(delta_ref) < 1e-8

    @pytest.mark.parametrize("dims", [(4, 5, 6), (3, 4, 3, 2)])
    @pytest.mark.parametrize("variant", ["flm-a", "flm-b", "auto"])
    def test_one_core_factorization_per_step(self, dims, variant, monkeypatch):
        """The damped Gram inverses come from one batched inverse and the
        core from one LU, shared by the step and both refinement rounds."""
        rng = np.random.default_rng(23)
        y, m = noisy_instance(rng, dims, 2)
        calls = []
        for mod, name in [(np.linalg, "inv"), (scipy.linalg, "lu_factor")]:
            original = getattr(mod, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
        flm_step(y, m, 0.1, variant, refine_steps=2)
        assert sorted(calls) == ["inv", "lu_factor"]

    def test_exact_fit_leaves_factors(self):
        rng = np.random.default_rng(9)
        m = unit_model(rng, (3, 4, 5), 2)
        y = reconstruct(m)
        assert np.abs(flm_step(y, m, 0.1)).max() < 1e-10

    def test_heavy_damping_freezes_factors(self):
        rng = np.random.default_rng(10)
        y, m = noisy_instance(rng, (3, 4, 5), 2)
        rel = np.linalg.norm(flm_step(y, m, 1e12)) / np.linalg.norm(m.as_vector())
        assert rel < 1e-6

    def test_flm_update_consistency(self):
        """The factored update pieces reproduce the one-call step."""
        rng = np.random.default_rng(11)
        y, m = noisy_instance(rng, (3, 4, 5), 2)
        mu = 0.1
        cache = build_gram_cache(m)
        core = damped_core(cache, mu, "flm-b")
        damped = [damped_als_factor(y, m, core.gtilde, n) for n in (1, 2, 3)]
        w = compute_w(m, cache, damped, core.gtilde)
        cand = flm_update(m, damped, core.solve(w), cache, core.gtilde)
        one_call = m.as_vector() + flm_step(y, m, mu, "flm-b", refine_steps=0)
        np.testing.assert_allclose(cand.as_vector(), one_call, atol=1e-12)


class TestDamping:
    def test_mu_init_unit_norm(self):
        rng = np.random.default_rng(12)
        m = unit_model(rng, (4, 4, 4), 2)
        cache = build_gram_cache(normalize_unit_modes(m))
        assert np.isclose(mu_init(cache, 1e-3), 1e-3)

    def test_mu_init_substitution(self):
        rng = np.random.default_rng(13)
        m = unit_model(rng, (4, 4, 4), 2)
        m.factors[-1][:, 0] *= 5.0 / np.linalg.norm(m.factors[-1][:, 0])
        cache = build_gram_cache(normalize_unit_modes(m))
        assert np.isclose(mu_init(cache, 1e-3), 0.025)

    def test_nielsen_accept_shrinks(self):
        state = nielsen_update(LmState(mu=1.0), rho=1.0)
        assert np.isclose(state.mu, 1.0 / 3.0)
        assert state.growth == 2.0 and state.accepted

    def test_nielsen_neutral_rho(self):
        state = nielsen_update(LmState(mu=1.0), rho=0.5)
        assert np.isclose(state.mu, 1.0)

    def test_nielsen_rejection_doubles_growth(self):
        state = LmState(mu=1.0)
        state = nielsen_update(state, rho=-1.0)
        assert state.mu == 2.0 and state.growth == 4.0 and not state.accepted
        state = nielsen_update(state, rho=-1.0)
        assert state.mu == 8.0 and state.growth == 8.0

    @pytest.mark.parametrize("rho", [-1e6, -1.0, 0.0, 0.3, 1.0, 1e6])
    def test_mu_stays_positive(self, rho):
        state = nielsen_update(LmState(mu=1e-5), rho)
        assert state.mu > 0


class TestFit:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            FitConfig(rank=2, variant="newton")

    @pytest.mark.parametrize("variant", ["auto", "flm-a", "dgn-oracle"])
    def test_converges_on_exact_instance(self, variant):
        rng = np.random.default_rng(14)
        truth = unit_model(rng, (8, 8, 8), 2)
        y = reconstruct(truth)
        result = fit(y, FitConfig(rank=2, variant=variant, seed=3, max_iters=300))
        assert result.final_relerr < 1e-8
        assert result.stop_reason == "tol"
        assert result.iters >= result.accepted_iters >= 1

    def test_als_path_converges(self):
        rng = np.random.default_rng(15)
        truth = unit_model(rng, (8, 8, 8), 2)
        y = reconstruct(truth)
        result = fit(
            y,
            FitConfig(rank=2, variant="als-ls", seed=0, max_iters=500, tol=1e-10, init="random"),
        )
        assert result.final_relerr < 1e-6

    def test_accepted_errors_strictly_decrease(self):
        rng = np.random.default_rng(16)
        y, _ = noisy_instance(rng, (8, 8, 8), 3, noise=0.05)
        result = fit(y, FitConfig(rank=3, variant="auto", seed=1, max_iters=200))
        accepted = [rec.relerr for rec in result.trace if rec.accepted]
        assert all(b < a for a, b in zip(accepted, accepted[1:]))
        assert all(rec.mu > 0 for rec in result.trace)
        assert result.stop_reason in ("tol", "max_iters", "mu_overflow")

    def test_max_iters_stop(self):
        rng = np.random.default_rng(17)
        y, _ = noisy_instance(rng, (6, 6, 6), 2, noise=0.3)
        result = fit(y, FitConfig(rank=2, variant="auto", max_iters=3, tol=0.0))
        assert result.stop_reason == "max_iters"
        assert result.iters == 3

    def test_zero_tensor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            fit(DenseTensor(np.zeros((3, 3, 3))), FitConfig(rank=1))

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("variant", ["auto", "als-ls"])
    def test_non_finite_entries_rejected(self, kind, bad, variant):
        rng = np.random.default_rng(19)
        y, _ = noisy_instance(rng, (4, 4, 4), 2, kind)
        data = y.data.copy()
        data[1, 2, 3] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            fit(DenseTensor(data), FitConfig(rank=2, variant=variant))

    @pytest.mark.parametrize("kind, seed", [(REAL, 0), (COMPLEX, 1)])
    def test_error_guard_crossing_keeps_dense_trajectory(
        self, kind, seed, monkeypatch
    ):
        """Noiseless swamp fits pass from the Gram-identity error to the dense
        one, reach relerr <= 1e-12 and take as many iterations as a fit that
        scores every candidate densely."""
        spec = CollinearSpec((20, 20, 20), 3, 0.1, None, seed, kind)
        _, y = gen_collinear(spec)
        config = FitConfig(rank=3, variant="auto")
        result = fit(y, config)
        assert result.trace[0].relerr > GRAM_ERROR_GUARD
        assert result.final_relerr <= 1e-12
        assert result.stop_reason == "tol"
        monkeypatch.setattr(cpfast.solver, "GRAM_ERROR_GUARD", np.inf)
        dense = fit(y, config)
        assert dense.stop_reason == "tol"
        assert dense.iters == result.iters

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_rescaled_last_mttkrp(self, kind):
        rng = np.random.default_rng(20)
        y, m = noisy_instance(rng, (3, 4, 5), 2, kind)
        m = type(m)([f * rng.uniform(0.5, 2.0, 2) for f in m.factors])
        normalized = normalize_equal_energy(m)
        np.testing.assert_allclose(
            _rescaled_last_mttkrp(mttkrp(y, m, 3), m, normalized),
            mttkrp(y, normalized, 3),
            atol=1e-12,
        )

    def test_mu_overflow_constant(self):
        assert MU_OVERFLOW == 1e30

    def test_complex_on_real_data_matches_real_step(self):
        rng = np.random.default_rng(18)
        y, m = noisy_instance(rng, (3, 4, 5), 2)
        yc = DenseTensor(y.data.astype(complex))
        mc = m.copy()
        mc = type(m)([f.astype(complex) for f in mc.factors])
        real_step = flm_step(y, m, 0.1)
        complex_step = flm_step(yc, mc, 0.1)
        assert np.abs(complex_step - real_step).max() < 1e-10
        assert np.abs(complex_step.imag).max() < 1e-10
