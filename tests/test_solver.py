"""Damped Gauss-Newton iteration: step pieces against dense oracles, damping
schedule arithmetic, and full-fit behavior."""

import itertools
import math
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cpfast.hessian import damped_core
import cpfast.hessian
import cpfast.kruskal
import cpfast.solver
from cpfast.kruskal import (
    KruskalModel,
    build_gram_cache,
    gradient,
    model_from_stack,
    model_from_vector,
    mttkrp,
    gram_stack,
    normalize_with_grams,
    pack,
    random_init,
    reconstruct,
    relative_error,
    second_order_term,
    st_hosvd,
    stack,
    unpack,
)
from cpfast.solver import (
    ACCEL_MAX_RATIO,
    FitConfig,
    GRAM_ERROR_GUARD,
    LmState,
    MU_OVERFLOW,
    _init_model,
    _scaled_start,
    fit,
    flm_step,
    mu_init,
    nielsen_update,
)
from cpfast.bench import record_from_result
from cpfast.oracle import (
    damped_hessian,
    dense_damped_solve,
    dense_second_order_term,
    kernel_inverse,
    kernel_matrix,
)
from cpfast.synth import CollinearSpec, gen_collinear
from cpfast.tensor import COMPLEX, DenseTensor, REAL


def normalize(model, last=None):
    """:func:`normalize_with_grams` on the stack of ``model``, as a model."""
    x = stack(model.factors)
    x, cache, last = normalize_with_grams(x, gram_stack(x), last)
    return model_from_stack(x, model.dims), cache, last


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


def gaussian_instance(seed, noise=0.01, dims=(30, 30, 30), rank=3, kind=REAL):
    """Tensor (an array) of a model with Gaussian factors, plus Gaussian
    noise at ``noise`` times its norm: well conditioned, so a plain fit
    finds the true basin."""
    rng = np.random.default_rng(seed)
    clean = reconstruct(random_init(dims, rank, rng, kind)).data
    e = rng.standard_normal(clean.shape)
    if kind == COMPLEX:
        e = e + 1j * rng.standard_normal(clean.shape)
    return clean + noise * np.linalg.norm(clean) / np.linalg.norm(e) * e


def unit_gradient_norm(y, model):
    """||g|| of the unit-norm problem Y / ||Y|| at a fit's returned ``model``
    scaled back by ||Y||^(-1/N), recomputed from scratch."""
    ynorm = y.norm()
    scale = ynorm ** (-1.0 / model.order)
    unit = KruskalModel([f * scale for f in model.factors])
    return float(np.linalg.norm(gradient(DenseTensor(y.data / ynorm), unit)))


def dense_core_product(cache, mu, use_kernel_inverse, w):
    """(Sb (K^{-1} + Psi) Sb)^{-1} w from the dense K, Psi and Sb =
    blkdiag((Gamma^(n) + mu I) kron I): Sb^{-1} inv(K^{-1} + Psi) Sb^{-1} w
    with the oracle's closed-form K^{-1} (the paper's Phi_2), Sb^{-1} K
    (I + Psi K)^{-1} Sb^{-1} w without (Phi_1)."""
    r = cache.gamma_full.shape[0]
    gtilde = [np.linalg.inv(g + mu * np.eye(r)) for g in cache.gamma_excl]
    psi = scipy.linalg.block_diag(
        *[np.kron(gt, c) for gt, c in zip(gtilde, cache.C)]
    )
    sb_inv = scipy.linalg.block_diag(*[np.kron(gt, np.eye(r)) for gt in gtilde])
    k = kernel_matrix(cache)
    x = sb_inv @ w
    if use_kernel_inverse:
        return sb_inv @ np.linalg.inv(kernel_inverse(cache) + psi) @ x
    return sb_inv @ k @ np.linalg.solve(np.eye(k.shape[0]) + psi @ k, x)


def mp_oracle_steps(mpmath, y, model, mus):
    """(H + mu I)^{-1} J^T vec(Y - Yhat) in 40-digit arithmetic for a real
    model, with J formed entry by entry (columns in ``as_vector`` order)."""
    dims, rank = model.dims, model.rank
    with mpmath.workdps(40):
        a = [mpmath.matrix(f.tolist()) for f in model.factors]
        rows, resid = [], []
        for idx in itertools.product(*map(range, dims)):
            terms = [[f[i, r] for f, i in zip(a, idx)] for r in range(rank)]
            row = []
            for n, size in enumerate(dims):
                for r in range(rank):
                    others = mpmath.fprod(terms[r][:n] + terms[r][n + 1 :])
                    row += [others if i == idx[n] else 0 for i in range(size)]
            rows.append(row)
            fit = mpmath.fsum(mpmath.fprod(t) for t in terms)
            resid.append(mpmath.mpf(float(y.data[idx])) - fit)
        j = mpmath.matrix(rows)
        h = j.T * j
        g = j.T * mpmath.matrix(resid)
        eye = mpmath.eye(h.rows)
        steps = [mpmath.lu_solve(h + mpmath.mpf(mu) * eye, g) for mu in mus]
        return [np.array(step.tolist(), dtype=float)[:, 0] for step in steps]


class TestSolveB:
    """The one core's solve against dense products of both of the paper's
    forms: Phi_1 through K, and Phi_2 through the closed-form K^{-1}."""

    def test_zero_maps_to_zero(self):
        rng = np.random.default_rng(5)
        m = unit_model(rng, (3, 4, 5), 2)
        core = damped_core(stack(m.factors), m.dims, build_gram_cache(m), 0.1)
        F = core.solve(np.zeros(3 * 4))
        assert all(np.all(f == 0) for f in F)

    @pytest.mark.parametrize("variant,use_kinv", [("flm-a", False), ("flm-b", True)])
    def test_dense_oracle(self, variant, use_kinv):
        rng = np.random.default_rng(6)
        m = unit_model(rng, (3, 4, 5), 2)
        cache = build_gram_cache(m)
        w = rng.standard_normal(12)
        mu = 0.1
        F = damped_core(stack(m.factors), m.dims, cache, mu).solve(w)
        expected = dense_core_product(cache, mu, use_kinv, w)
        got = np.concatenate([f.reshape(-1, order="F") for f in F])
        np.testing.assert_allclose(got, expected, atol=1e-12, err_msg=variant)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("dims", [(3, 4, 5), (3, 4, 3, 2)])
    @pytest.mark.parametrize("variant", ["flm-a", "flm-b"])
    def test_factored_core_matches_dense(self, kind, dims, variant):
        rng = np.random.default_rng(21)
        m = unit_model(rng, dims, 2, kind)
        cache = build_gram_cache(m)
        w = rng.standard_normal(len(dims) * 4)
        if kind == COMPLEX:
            w = w + 1j * rng.standard_normal(w.size)
        for mu in (1e-3, 1.0):
            F = damped_core(stack(m.factors), m.dims, cache, mu).solve(w)
            got = np.concatenate([f.reshape(-1, order="F") for f in F])
            expected = dense_core_product(cache, mu, variant == "flm-b", w)
            assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-10


@st.composite
def step_problems(draw):
    """A noisy instance of order 2-4, dims 2-5, rank 1-3, real or complex,
    with mu log-uniform in [1e-4, 1e2] and a permutation of its modes."""
    order = draw(st.integers(2, 4))
    dims = tuple(draw(st.integers(2, 5)) for _ in range(order))
    rank = draw(st.integers(1, 3))
    kind = draw(st.sampled_from([REAL, COMPLEX]))
    mu = 10.0 ** draw(st.floats(-4.0, 2.0))
    perm = draw(st.permutations(range(order)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y, m = noisy_instance(rng, dims, rank, kind)
    return y, m, mu, perm


def rel(delta, ref):
    return np.linalg.norm(delta) / np.linalg.norm(ref)


def count_tensor_passes(monkeypatch) -> list:
    """Record each ``mttkrp`` (with its mode), ``reconstruct`` and
    ``relative_error`` call made through cpfast.kruskal or cpfast.solver."""
    calls = []
    for name in ("mttkrp", "reconstruct", "relative_error"):
        original = getattr(cpfast.kruskal, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append((_name, args[2] if _name == "mttkrp" else None))
            return _original(*args, **kwargs)

        for mod in (cpfast.kruskal, cpfast.solver):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


class TestFlmStep:
    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("mu", [1e-4, 1e-1, 10.0])
    @pytest.mark.parametrize("variant", ["flm-a", "flm-b"])
    def test_equals_dense_dgn_step(self, kind, mu, variant, damped_step):
        rng = np.random.default_rng(8)
        y, m = noisy_instance(rng, (3, 4, 5), 2, kind)
        delta_ref = dense_damped_solve(y, m, mu)
        delta = damped_step(variant, y, m, mu)
        assert rel(delta - delta_ref, delta_ref) < 1e-8

    @pytest.mark.parametrize("mu", [1e-4, 1e-1, 10.0])
    @pytest.mark.parametrize("variant", ["flm-a", "flm-b"])
    def test_four_way_complex_equals_dense_dgn_step(self, mu, variant, damped_step):
        rng = np.random.default_rng(22)
        y, m = noisy_instance(rng, (3, 4, 3, 2), 2, COMPLEX)
        delta_ref = dense_damped_solve(y, m, mu)
        delta = damped_step(variant, y, m, mu)
        assert rel(delta - delta_ref, delta_ref) < 1e-8

    @settings(max_examples=60)
    @given(step_problems())
    def test_step_matches_dense_and_follows_mode_order(self, problem):
        """The fast step equals the dense dGN step, and permuting the modes
        of (y, model) permutes the step's blocks the same way."""
        y, m, mu, perm = problem
        delta = flm_step(y, m, mu)
        assert rel(delta - dense_damped_solve(y, m, mu), delta) < 1e-8
        ends = np.cumsum([f.size for f in m.factors])[:-1]
        blocks = np.split(delta, ends)
        permuted = KruskalModel([m.factors[p] for p in perm])
        delta_p = flm_step(DenseTensor(np.transpose(y.data, perm)), permuted, mu)
        expected = np.concatenate([blocks[p] for p in perm])
        assert rel(delta_p - expected, delta) < 1e-8

    @pytest.mark.parametrize("dims", [(4, 5, 6), (3, 4, 3, 2)])
    @pytest.mark.parametrize("variant", ["auto"])
    def test_one_core_factorization_per_step(self, dims, variant, monkeypatch):
        """One fit iteration: the damped Gram inverses come from one batched
        inverse, and the core is factored once (``?getrf``) and solved twice
        (``?getrs``), for the step and for its geodesic acceleration."""
        rng = np.random.default_rng(23)
        y, m = noisy_instance(rng, dims, 2)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        lapack = cpfast.hessian._lapack

        def counted_lapack(name, dtype):
            return counted(name, lapack(name, dtype))

        monkeypatch.setattr(cpfast.hessian, "_lapack", counted_lapack)
        for mod, name in [
            (np.linalg, "inv"),
            (np.linalg, "solve"),
            (scipy.linalg, "lu_factor"),
            (scipy.linalg, "lu_solve"),
        ]:
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        fit(y, FitConfig(rank=2, variant=variant, max_iters=1))
        assert sorted(calls) == ["getrf", "getrs", "getrs", "inv"]

    @pytest.mark.parametrize("nu", [0.05, 0.3])
    def test_matches_extended_precision_oracle(self, nu):
        """Down to mu = 1e-9 on collinear factors, the fast step is as close to
        a 40-digit solve as the dense float64 solve is (within 10x), or 1e-8."""
        mpmath = pytest.importorskip("mpmath")
        truth, y = gen_collinear(CollinearSpec((4, 4, 4), 3, nu, None, 1))
        rng = np.random.default_rng(24)
        model = KruskalModel(
            [3.0 * f + 0.05 * rng.standard_normal(f.shape) for f in truth.factors]
        )
        y = DenseTensor(27.0 * y.data + 0.01 * rng.standard_normal(y.dims))
        mus = (1e-9, 1e-8, 1e-6, 1e-4, 1e-1)
        for mu, exact in zip(mus, mp_oracle_steps(mpmath, y, model, mus)):
            scale = np.linalg.norm(exact)
            dense = np.linalg.norm(dense_damped_solve(y, model, mu) - exact) / scale
            fast = np.linalg.norm(flm_step(y, model, mu) - exact) / scale
            assert fast <= max(10.0 * dense, 1e-8), (mu, fast, dense)

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


class TestDamping:
    def test_mu_init_unit_norm(self):
        rng = np.random.default_rng(12)
        m = unit_model(rng, (4, 4, 4), 2)
        cache = build_gram_cache(m)
        assert np.isclose(mu_init(cache, 1e-3), 1e-3)

    def test_mu_init_substitution(self):
        rng = np.random.default_rng(13)
        m = unit_model(rng, (4, 4, 4), 2)
        m.factors[-1][:, 0] *= 5.0 / np.linalg.norm(m.factors[-1][:, 0])
        cache = build_gram_cache(m)
        assert np.isclose(mu_init(cache, 1e-3), 0.025)

    def test_nielsen_accept_shrinks(self):
        state = nielsen_update(LmState(mu=1.0), rho=1.0)
        assert np.isclose(state.mu, 1.0 / 3.0)
        assert state.growth == 2.0

    def test_nielsen_neutral_rho(self):
        state = nielsen_update(LmState(mu=1.0), rho=0.5)
        assert np.isclose(state.mu, 1.0)

    def test_nielsen_rejection_doubles_growth(self):
        state = LmState(mu=1.0)
        state = nielsen_update(state, rho=-1.0)
        assert state.mu == 2.0 and state.growth == 4.0
        state = nielsen_update(state, rho=-1.0)
        assert state.mu == 8.0 and state.growth == 8.0

    @pytest.mark.parametrize("rho", [-1e6, -1.0, 0.0, 0.3, 1.0, 1e6])
    def test_mu_stays_positive(self, rho):
        state = nielsen_update(LmState(mu=1e-5), rho)
        assert state.mu > 0


class TestFit:
    def test_unknown_variant_rejected(self):
        for variant in ("newton", "flm-b", "flm-a", "dgn-oracle"):
            with pytest.raises(ValueError, match=variant):
                FitConfig(rank=2, variant=variant)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tau", 0.0),
            ("tau", -1e-3),
            ("tau", math.nan),
            ("tau", math.inf),
            ("tau", "1e-3"),
            ("tol", -1e-8),
            ("tol", math.nan),
            ("tol", math.inf),
            ("tol", None),
            ("max_iters", 0),
            ("max_iters", -3),
            ("max_iters", 3.5),
            ("rank", 2.5),
            ("rank", 0),
            ("rank", True),
            ("seed", -1),
            ("seed", 1.0),
            ("seed", True),
            ("init", "ones"),
        ],
    )
    def test_config_checked_at_boundary(self, field, value):
        with pytest.raises(ValueError, match=field):
            FitConfig(**{"rank": 2, field: value})

    def test_numpy_integers_accepted(self):
        config = FitConfig(rank=np.int64(2), max_iters=np.int32(3), seed=np.uint8(4))
        assert (config.rank, config.max_iters, config.seed) == (2, 3, 4)

    @pytest.mark.parametrize("variant", ["auto"])
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

    @pytest.mark.parametrize("variant", ["auto", "als-ls"])
    def test_order_one_rejected(self, variant):
        y = DenseTensor(np.arange(1.0, 6.0))
        with pytest.raises(ValueError, match="order"):
            fit(y, FitConfig(rank=1, variant=variant))

    @pytest.mark.parametrize("variant", ["auto", "als-ls", "als"])
    def test_zero_tensor_rejected(self, variant, monkeypatch):
        """Every variant rejects a zero tensor the same way, before the init."""

        def no_init(*args, **kwargs):
            raise AssertionError("the init ran on a zero tensor")

        monkeypatch.setattr(cpfast.solver, "svd_init", no_init)
        zero = DenseTensor(np.zeros((3, 3, 3)))
        with pytest.raises(ZeroDivisionError, match="cannot fit a zero tensor"):
            fit(zero, FitConfig(rank=1, variant=variant))

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("variant", ["auto", "als-ls"])
    def test_zero_size_mode_rejected(self, kind, variant, monkeypatch):
        """A tensor with a zero-size mode raises a ``ValueError`` that names
        its dims, before the norm and the init."""

        def no_call(*args, **kwargs):
            raise AssertionError("the norm or the init ran on an empty tensor")

        monkeypatch.setattr(cpfast.solver, "_tensor_norm", no_call)
        monkeypatch.setattr(cpfast.solver, "_init_model", no_call)
        dtype = np.complex128 if kind == COMPLEX else np.float64
        y = DenseTensor(np.zeros((0, 3, 3), dtype=dtype))
        with pytest.raises(ValueError, match=r"zero-size mode, dims \(0, 3, 3\)"):
            fit(y, FitConfig(rank=2, variant=variant))

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("variant", ["auto", "als-ls"])
    def test_non_finite_entries_rejected(self, kind, bad, variant, monkeypatch):
        """NaN and infinite entries raise their own error, before the init
        and before the norm's rescale (which would report an overflow)."""

        def no_init(*args, **kwargs):
            raise AssertionError("the init ran on a non-finite tensor")

        monkeypatch.setattr(cpfast.solver, "svd_init", no_init)
        rng = np.random.default_rng(19)
        y, _ = noisy_instance(rng, (4, 4, 4), 2, kind)
        data = y.data.copy()
        data[1, 2, 3] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            fit(DenseTensor(data), FitConfig(rank=2, variant=variant))

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_stack_padding_stays_zero(self, kind, monkeypatch):
        """A (9, 7, 8) fit holds its model, gradient and steps in stacks
        padded to I_max = 9: past column I_n every entry stays exactly zero
        over five iterations, accepted and rejected.  ALS-ls on the same
        problem scores every stack it holds, swept, extrapolated and kept,
        through ``_candidate_error``, and each of those stays zero there too
        over five sweeps."""
        y, _ = noisy_instance(np.random.default_rng(33), (9, 7, 8), 3, kind, 0.05)
        seen = []
        accelerated_step = cpfast.solver._accelerated_step

        def recorded(solve, x, grams, g):
            v, step, ratio = accelerated_step(solve, x, grams, g)
            seen.extend((x, g, v, step))
            return v, step, ratio

        monkeypatch.setattr(cpfast.solver, "_accelerated_step", recorded)
        result = fit(y, FitConfig(rank=3, max_iters=5))
        assert result.iters == len(seen) // 4 == 5 and result.accepted_iters >= 1
        candidate_error = cpfast.solver._candidate_error

        def scored(y, err, x, *args, **kwargs):
            seen.append(x)
            return candidate_error(y, err, x, *args, **kwargs)

        monkeypatch.setattr(cpfast.solver, "_candidate_error", scored)
        result = fit(y, FitConfig(rank=3, variant="als-ls", max_iters=5))
        # One swept stack per sweep and two extrapolations from the second.
        assert result.iters == 5 and len(seen) == 4 * 5 + 5 + 2 * 4
        for a in seen:
            assert a.shape == (3, 3, 9)
            for n, d in enumerate(y.dims):
                assert not a[n, :, d:].any()

    @staticmethod
    def _calls_per_iteration(variant):
        """Python-level calls and calls of C functions (``sys.setprofile``
        "call" and "c_call" events) per iteration on the noiseless 20^3,
        R=3, nu=0.1 swamp fit, over iterations 11 to 40: the count for a
        budget of 40 minus that for 10 (a fit with a smaller budget is a
        prefix of the same run), over 30.  A count, not a timing."""
        _, y = gen_collinear(CollinearSpec((20, 20, 20), 3, 0.1, None, 0))
        fit(y, FitConfig(rank=3, variant=variant, max_iters=3))
        counts = []
        for budget in (10, 40):
            events = [0]

            def profile(frame, event, arg):
                if event in ("call", "c_call"):
                    events[0] += 1

            config = FitConfig(rank=3, variant=variant, max_iters=budget)
            sys.setprofile(profile)
            try:
                result = fit(y, config)
            finally:
                sys.setprofile(None)
            assert result.iters == budget
            counts.append(events[0])
        return (counts[1] - counts[0]) / 30

    def test_calls_per_iteration(self):
        """fLM calls per iteration (see ``_calls_per_iteration``).  The
        per-mode code that the stacked layout replaced made 377.0 calls per
        iteration here (NumPy 2.4, Python 3.11); the bound is half of that."""
        assert self._calls_per_iteration("auto") <= 377.0 / 2

    @pytest.mark.parametrize("variant,bound", [("als", 210.0), ("als-ls", 292.5)])
    def test_als_calls_per_iteration(self, variant, bound):
        """ALS and ALS-ls calls per iteration (see ``_calls_per_iteration``),
        bounded by the counts of the list-of-factors sweep that the stacked
        one replaced, 210.0 and 292.5 (NumPy 2.4.6, Python 3.11)."""
        assert self._calls_per_iteration(variant) <= bound

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

    def test_trace_records_gain_ratio(self):
        rng = np.random.default_rng(28)
        y, _ = noisy_instance(rng, (6, 6, 6), 2, noise=0.1)
        lm = fit(y, FitConfig(rank=2, max_iters=40))
        assert all(np.isfinite(rec.rho) for rec in lm.trace)
        assert all(rec.rho > 0 for rec in lm.trace if rec.accepted)
        als = fit(y, FitConfig(rank=2, variant="als", max_iters=5))
        assert all(np.isnan(rec.rho) for rec in als.trace)

    def test_nonfinite_candidate_stops(self, monkeypatch):
        """A candidate whose error is infinite stops the fit "nonfinite" at
        once instead of reporting "tol"."""
        _, y = gen_collinear(CollinearSpec((8, 8, 8), 3, 0.3, None, 0))

        def overflowing(*args, **kwargs):
            return math.inf, None

        monkeypatch.setattr(cpfast.solver, "_candidate_error", overflowing)
        result = fit(y, FitConfig(rank=3))
        assert result.stop_reason == "nonfinite"
        assert (result.iters, result.accepted_iters) == (1, 0)
        assert np.isnan(result.trace[-1].rho)
        record = record_from_result(result, None, 0, 0.3, 3, None, "auto")
        assert (record.stop_reason, record.error) == ("nonfinite", None)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_grad_norm_is_at_model_after_iteration(self, kind, k):
        """The recorded ||g|| is that of the model an iteration ends on: the
        start after each of the first three (rejected) steps, the accepted
        candidate after the fourth."""
        rng = np.random.default_rng(40)
        y, _ = noisy_instance(rng, (5, 6, 7), 3, kind, noise=0.1)
        result = fit(y, FitConfig(rank=3, max_iters=k, tol=0.0))
        assert [r.accepted for r in result.trace] == [False, False, False, True][:k]
        assert result.trace[-1].grad_norm == pytest.approx(
            unit_gradient_norm(y, result.model), rel=1e-10
        )

    def test_trace_records_gradient_and_step_norms(self):
        rng = np.random.default_rng(28)
        y, _ = noisy_instance(rng, (6, 6, 6), 2, noise=0.1)
        lm = fit(y, FitConfig(rank=2, max_iters=40))
        for rec in lm.trace:
            assert 0 < rec.grad_norm < np.inf and 0 < rec.step_norm < np.inf
            assert 0 <= rec.accel_ratio < np.inf
        als = fit(y, FitConfig(rank=2, variant="als", max_iters=5))
        norms = [(r.grad_norm, r.step_norm, r.accel_ratio) for r in als.trace]
        assert np.isnan(norms).all()

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_rescaled_last_mttkrp(self, kind):
        rng = np.random.default_rng(20)
        y, m = noisy_instance(rng, (3, 4, 5), 2, kind)
        m = type(m)([f * rng.uniform(0.5, 2.0, 2) for f in m.factors])
        normalized, _, last = normalize(m, mttkrp(y, m, 3))
        np.testing.assert_allclose(last, mttkrp(y, normalized, 3), atol=1e-12)

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


class TestGradientStop:
    """Besides the ten-difference window, an fLM fit stops "tol" once ||g|| <=
    tol * relerr at its current model."""

    def test_noisy_fit_stops_on_converging_step(self):
        y = DenseTensor(gaussian_instance(0))
        config = FitConfig(rank=3)
        result = fit(y, config)
        last = result.trace[-1]
        assert result.stop_reason == "tol" and last.accepted
        bound = config.tol * last.relerr
        assert last.grad_norm <= bound
        assert unit_gradient_norm(y, result.model) <= bound * (1 + 1e-3)

    @settings(max_examples=40)
    @given(
        dims=st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5)),
        rank=st.integers(1, 3),
        kind=st.sampled_from([REAL, COMPLEX]),
        noise=st.sampled_from([0.0, 1e-3, 0.1]),
        variant=st.sampled_from(["auto", "als-ls"]),
        seed=st.integers(0, 2**16),
    )
    def test_tol_means_converged(self, dims, rank, kind, noise, variant, seed):
        """A "tol" stop implies a finite relerr and either ten differences
        below tol (the nine that the trace holds when it has only ten
        records) or, for fLM, ||g|| <= tol * relerr at the final model."""
        y, _ = noisy_instance(np.random.default_rng(seed), dims, rank, kind, noise)
        config = FitConfig(rank=rank, variant=variant, max_iters=200, seed=seed)
        result = fit(y, config)
        if result.stop_reason != "tol":
            return
        last = result.trace[-1]
        assert math.isfinite(last.relerr)
        errs = [r.relerr for r in result.trace]
        diffs = [abs(a - b) for a, b in zip(errs, errs[1:])][-10:]
        window = len(errs) >= 10 and all(d < config.tol for d in diffs)
        assert window or last.grad_norm <= config.tol * last.relerr


class TestGeodesicAcceleration:
    """The step is v + a/2 while 2 ||a|| / ||v|| <= ACCEL_MAX_RATIO, else v,
    with v = (H + mu I)^{-1} g and a = -(H + mu I)^{-1} J^H M''(v, v); the
    gain ratio keeps v's Gauss-Newton prediction."""

    @pytest.mark.parametrize("tau,accelerated", [(1e-3, False), (1.0, True)])
    def test_first_record_describes_step_taken(self, tau, accelerated):
        """The first record's ratio, step norm, error and gain ratio are those
        of the step rebuilt from the scaled start: accelerated at tau = 1,
        plain at the default tau, where the ratio is 1.2."""
        y = DenseTensor(gaussian_instance(0))
        config = FitConfig(rank=3, tau=tau, max_iters=1)
        rec = fit(y, config).trace[0]
        unit = DenseTensor(y.data / y.norm())
        x, cache, _, err = _scaled_start(unit, *_init_model(unit, config))
        model = model_from_stack(x, unit.dims)
        mu = mu_init(cache, tau)
        g = gradient(unit, model, cache)
        core = damped_core(x, unit.dims, cache, mu)
        v = core(g)
        a = -core(second_order_term(model.factors, cache.C, v))
        ratio = 2.0 * np.linalg.norm(a) / np.linalg.norm(v)
        assert (ratio <= ACCEL_MAX_RATIO) == accelerated
        step = v + 0.5 * a if accelerated else v
        taken = model_from_vector(model.as_vector() + step, model.dims, model.rank)
        cand = relative_error(unit, taken)
        assert rec.accepted
        assert rec.accel_ratio == pytest.approx(ratio, rel=1e-9)
        assert rec.step_norm == pytest.approx(np.linalg.norm(step), rel=1e-9)
        assert rec.relerr == pytest.approx(cand, rel=1e-9)
        predicted = np.vdot(v, g + mu * v).real
        assert rec.rho == pytest.approx((err**2 - cand**2) / predicted, rel=1e-6)

    @pytest.mark.parametrize(
        "dims,rank,kind", [((8, 8, 8), 3, REAL), ((5, 4, 6), 2, COMPLEX)]
    )
    def test_dgn_oracle_takes_the_same_steps(self, dims, rank, kind, monkeypatch):
        """A fit whose solves use the dense H + mu I of :mod:`cpfast.oracle`
        in place of the core takes the same steps: the same accept decisions,
        ratios and errors while the error is above its final value.  The loop
        applies the core to stacks, so the dense solve goes through
        :func:`unpack` and :func:`pack`."""
        y, _ = noisy_instance(np.random.default_rng(16), dims, rank, kind, 0.05)
        config = FitConfig(rank=rank)
        fast = fit(y, config)

        def dense_core(x, dims, cache, mu):
            h = damped_hessian(model_from_stack(x, dims), mu, cache)
            return SimpleNamespace(
                apply=lambda v: pack(np.linalg.solve(h, unpack(v, dims)), dims, rank)
            )

        monkeypatch.setattr(cpfast.solver, "damped_core", dense_core)
        dense = fit(y, config)
        assert fast.stop_reason == dense.stop_reason == "tol"
        assert any(rec.accel_ratio <= ACCEL_MAX_RATIO for rec in fast.trace)
        floor = fast.final_relerr * (1 + 1e-9)
        lead = list(itertools.takewhile(lambda r: r.relerr > floor, fast.trace))
        assert len(lead) > 5
        for a, b in zip(lead, dense.trace):
            assert a.accepted == b.accepted
            assert b.relerr == pytest.approx(a.relerr, rel=1e-9)
            assert b.accel_ratio == pytest.approx(a.accel_ratio, rel=1e-6)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("dims,rank", [((5, 4, 6), 2), ((4, 3, 3, 4), 2)])
    def test_step_matches_dense_oracle_at_each_model(
        self, dims, rank, kind, monkeypatch
    ):
        """At every iteration of an fLM fit, the loop's v and step match the
        dense oracle's at the loop's own model x, gradient g and mu, within
        1e-8: v_ref = (H + mu I)^{-1} g from
        :func:`~cpfast.oracle.damped_hessian`, a = -(H + mu I)^{-1} J^H
        M''(v, v) at the loop's v from
        :func:`~cpfast.oracle.dense_second_order_term`, and the step v + a/2
        or v by ``ACCEL_MAX_RATIO``.  Nothing here depends on where two
        trajectories part.

        A difference d is measured as ||(H + mu I) d|| against ||(H + mu I)
        ref||, the part of it that the system determines.  These fits reach
        mu ~ 5e-11, where cond(H + mu I) ~ 4e10: there the fast and the dense
        float64 solves each differ from a 40-digit solve by ~1e-6 relative,
        along the near-null scaling directions, while their images differ by
        below 1e-12."""
        seen = []
        core_of, step_of = cpfast.solver.damped_core, cpfast.solver._accelerated_step

        def recording_core(x, dims, cache, mu):
            seen.append({"mu": mu})
            return core_of(x, dims, cache, mu)

        def recording_step(solve, x, grams, g):
            v, step, ratio = step_of(solve, x, grams, g)
            seen[-1].update(x=x.copy(), g=g.copy(), v=v.copy(), step=step.copy())
            return v, step, ratio

        monkeypatch.setattr(cpfast.solver, "damped_core", recording_core)
        monkeypatch.setattr(cpfast.solver, "_accelerated_step", recording_step)
        y, _ = noisy_instance(np.random.default_rng(16), dims, rank, kind, 0.05)
        result = fit(y, FitConfig(rank=rank))
        assert result.stop_reason == "tol"
        assert len(seen) == result.iters
        accelerated = 0
        for rec in seen:
            model = model_from_stack(rec["x"], dims)
            h = damped_hessian(model, rec["mu"])
            g, v, step = (unpack(rec[key], dims) for key in ("g", "v", "step"))
            a = -np.linalg.solve(h, dense_second_order_term(model, v))
            ratio = 2.0 * np.linalg.norm(a) / np.linalg.norm(v)
            accelerated += ratio <= ACCEL_MAX_RATIO
            taken = v + 0.5 * a if ratio <= ACCEL_MAX_RATIO else v
            for got, ref in ((v, np.linalg.solve(h, g)), (step, taken)):
                err = np.linalg.norm(h @ (got - ref))
                assert err <= 1e-8 * np.linalg.norm(h @ ref)
        assert accelerated > 0


class TestScaleFree:
    """The LM family fits Y / ||Y|| from a least-squares-scaled start."""

    @pytest.mark.parametrize("k", [-200, -160, -158, -150, -50, 0, 50, 150, 200])
    def test_probe_at_every_scale(self, k):
        """Noiseless 8^3, R=3, nu=0.3 times 10^k stops "tol" at a relerr at
        rounding level, and the returned model is the scaled fit."""
        _, y = gen_collinear(CollinearSpec((8, 8, 8), 3, 0.3, None, 0))
        result = fit(DenseTensor(y.data * 10.0**k), FitConfig(rank=3))
        assert result.stop_reason == "tol"
        assert result.final_relerr <= 1e-12
        back = KruskalModel([f * 10.0 ** (-k / 3) for f in result.model.factors])
        assert relative_error(y, back) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_noisy_fit_does_not_depend_on_scale(self, seed):
        """30^3, R=3 Gaussian factors at 1% noise, times 1 and 1e3: the same
        stop reason and relerr, and the same accept decisions and errors while
        the error is above its final value (so the same first accepted step:
        iteration 1 at seed 0, 4 at seed 1).  At the final value, whether a
        candidate lowers the error turns on the last bits."""
        y = gaussian_instance(seed)
        one, big = (fit(DenseTensor(s * y), FitConfig(rank=3)) for s in (1.0, 1e3))
        assert one.stop_reason == big.stop_reason == "tol"
        assert big.final_relerr == pytest.approx(one.final_relerr, rel=1e-9)
        floor = one.final_relerr * (1 + 1e-9)
        lead = list(itertools.takewhile(lambda r: r.relerr > floor, one.trace))
        assert lead
        for a, b in zip(lead, big.trace):
            assert a.accepted == b.accepted
            assert b.relerr == pytest.approx(a.relerr, rel=1e-9)
            assert b.grad_norm == pytest.approx(a.grad_norm, rel=1e-9)

    @pytest.mark.parametrize("k", [-200, -163, -160, -158, 0, 200])
    def test_als_ls_probe_at_every_scale(self, k):
        """ALS-ls on the same probe stops "tol" at every scale, and the
        returned model, scaled back, fits the x1 data as reported."""
        _, y = gen_collinear(CollinearSpec((8, 8, 8), 3, 0.3, None, 0))
        config = FitConfig(rank=3, variant="als-ls")
        result = fit(DenseTensor(y.data * 10.0**k), config)
        assert result.stop_reason == "tol"
        assert result.final_relerr <= 1e-6
        back = KruskalModel([f * 10.0 ** (-k / 3) for f in result.model.factors])
        assert relative_error(y, back) == pytest.approx(result.final_relerr, rel=1e-6)

    @pytest.mark.parametrize("variant", ["als", "als-ls"])
    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_als_power_of_two_scale_is_exact(self, variant, kind):
        """ALS fits Y / ||Y||, and ||2^k Y|| = 2^k ||Y|| makes that tensor
        the same bits at x2^k as at x1: the trace is the x1 trace bit for
        bit, and the first factor is the x1 factor times 2^k."""
        rng = np.random.default_rng(31)
        y, _ = noisy_instance(rng, (6, 7, 8), 3, kind, noise=0.05)
        config = FitConfig(rank=3, variant=variant, max_iters=50)
        ref = fit(y, config)
        for k in (-300, 400):
            got = fit(DenseTensor(y.data * 2.0**k), config)
            assert [r.relerr for r in got.trace] == [r.relerr for r in ref.trace]
            assert np.array_equal(got.model.factors[0], ref.model.factors[0] * 2.0**k)
            for a, b in zip(got.model.factors[1:], ref.model.factors[1:]):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("variant", ["auto", "als-ls"])
    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("compressed", [False, True])
    def test_loops_receive_unit_norm_tensors(
        self, variant, kind, compressed, monkeypatch
    ):
        """Every call of a loop receives a tensor of norm 1 (within 1e-14):
        a plain fit's one call, and a compressed fit's core stage and
        refinement, on data whose norm is above 5e4."""
        if compressed:
            monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        norms = []
        for name in ("_fit_lm", "_fit_als"):

            def recorded(y, *args, _loop=getattr(cpfast.solver, name), **kwargs):
                norms.append(y.norm())
                return _loop(y, *args, **kwargs)

            monkeypatch.setattr(cpfast.solver, name, recorded)
        y = DenseTensor(1e3 * gaussian_instance(4, dims=(12, 10, 9), kind=kind))
        fit(y, FitConfig(rank=3, variant=variant, max_iters=6))
        assert len(norms) == (2 if compressed else 1)
        assert all(abs(n - 1.0) <= 1e-14 for n in norms), norms

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e-158, 1.0, 1e200])
    def test_overflow_safe_norm(self, scale):
        data = np.random.default_rng(30).standard_normal((4, 5, 6))
        got = cpfast.solver._tensor_norm(DenseTensor(data * scale))
        assert got == pytest.approx(np.linalg.norm(data) * scale, rel=1e-14, abs=0)

    def test_norm_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            fit(DenseTensor(np.full((4, 4, 4), 1e308)), FitConfig(rank=1))

    @pytest.mark.parametrize("dims", [(5, 6, 7), (3, 4, 3, 5)])
    def test_start_passes(self, dims, monkeypatch):
        """Above the guard the start reconstructs nothing and makes one
        mode-N MTTKRP (the SVD init's), which also serves the first
        ``mttkrp_all``; the first candidate costs one more."""
        rng = np.random.default_rng(25)
        y, _ = noisy_instance(rng, dims, 3, noise=0.3)
        calls = count_tensor_passes(monkeypatch)
        core = cpfast.solver.damped_core

        def marked(*args, **kwargs):
            calls.append(("step", None))
            return core(*args, **kwargs)

        monkeypatch.setattr(cpfast.solver, "damped_core", marked)
        result = fit(y, FitConfig(rank=3, max_iters=1))
        assert result.final_relerr > GRAM_ERROR_GUARD
        n = len(dims)
        assert calls == [("mttkrp", n), ("step", None), ("mttkrp", n)]


class TestCarriedOverCache:
    """The accepted candidate's Gram matrices, rescaled, stand in for a fresh
    Gram cache of its normalization."""

    @staticmethod
    def candidate(kind, n_modes):
        rng = np.random.default_rng(29 + n_modes)
        dims = (3, 4, 5, 2)[:n_modes]
        m = random_init(dims, 3, rng, kind)
        return KruskalModel([f * rng.uniform(0.2, 5.0, 3) for f in m.factors])

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("n_modes", [2, 3, 4])
    def test_scaled_grams_match_fresh_cache(self, kind, n_modes):
        cand = self.candidate(kind, n_modes)
        normalized, cache, _ = normalize(cand)
        fresh = build_gram_cache(normalized)
        for name in ("C", "gamma_excl", "gamma_pair", "gamma_full"):
            got, ref = getattr(cache, name), getattr(fresh, name)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), name

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("n_modes", [2, 3, 4])
    def test_scale_path_matches_normalize_equal_energy(
        self, kind, n_modes, equal_energy_loop
    ):
        """Column norms from diag C^(n) give the normalization that column
        norms from the factors give, component by component."""
        cand = self.candidate(kind, n_modes)
        normalized, _, _ = normalize(cand)
        for got, ref in zip(normalized.factors, equal_energy_loop(cand)):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_zero_norm_column_rejected(self):
        cand = self.candidate(REAL, 3)
        cand.factors[1][:, 2] = 0.0
        with pytest.raises(ZeroDivisionError, match="component 2"):
            normalize(cand)


class TestAlsLineSearch:
    @pytest.mark.parametrize("dims", [(5, 6, 7), (3, 4, 3, 5)])
    @pytest.mark.parametrize("above", [True, False])
    def test_passes_per_step(self, dims, above, monkeypatch):
        """Above the guard an iteration with a previous model reconstructs
        nothing and makes three mode-N MTTKRPs (the sweep's and one per
        extrapolated candidate); below it, each of the three candidates is
        scored densely.  A fit with a smaller budget is a prefix of the same
        run, so the second iteration's calls are those that max_iters=2
        makes beyond max_iters=1."""
        rng = np.random.default_rng(25)
        y, _ = noisy_instance(rng, dims, 3, noise=0.3)
        if not above:
            monkeypatch.setattr(cpfast.solver, "GRAM_ERROR_GUARD", np.inf)
        calls = count_tensor_passes(monkeypatch)
        one = fit(y, FitConfig(rank=3, variant="als-ls", max_iters=1))
        assert one.final_relerr > GRAM_ERROR_GUARD
        prefix = list(calls)
        calls.clear()
        fit(y, FitConfig(rank=3, variant="als-ls", max_iters=2))
        assert calls[: len(prefix)] == prefix
        calls = calls[len(prefix) :]
        sweep = [("mttkrp", len(dims))]
        if above:
            assert calls == sweep * 3
        else:
            assert sorted(calls) == sorted(
                sweep + [("reconstruct", None), ("relative_error", None)] * 3
            )

    @pytest.mark.parametrize("variant", ["als-ls", "als"])
    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_gram_scoring_keeps_dense_trajectory(self, variant, kind, monkeypatch):
        """Scoring by the Gram identity gives the sweeps, stop reason and
        relerr (within 1e-9) of a fit that scores every candidate densely."""
        rng = np.random.default_rng(26)
        y, _ = noisy_instance(rng, (6, 7, 8), 3, kind, noise=0.005)
        config = FitConfig(rank=3, variant=variant, max_iters=400)
        gram = fit(y, config)
        assert gram.final_relerr > GRAM_ERROR_GUARD
        monkeypatch.setattr(cpfast.solver, "GRAM_ERROR_GUARD", np.inf)
        dense = fit(y, config)
        assert (gram.iters, gram.stop_reason) == (dense.iters, dense.stop_reason)
        assert gram.final_relerr == pytest.approx(dense.final_relerr, rel=1e-9)


class TestCompression:
    """Compress, fit the core, refine: :func:`fit`'s front end where
    prod I_n >= COMPRESS_MIN_RATIO * prod min(I_n, R).  Tests other than
    the routing test force it by setting the constant to 0."""

    def test_routing_rule(self):
        """The rule alone, with no fit: the swamp shapes 20^3 R=3 (ratio
        296) and 12^4 R=4 (ratio 81) never compress, 100^3 R=5 (ratio
        8000) does, and a tensor with no mode above R never does."""
        compresses = cpfast.solver._compresses
        assert not compresses((20, 20, 20), 3)
        assert not compresses((12, 12, 12, 12), 4)
        assert compresses((100, 100, 100), 5)
        assert not compresses((3, 3, 3), 5)
        assert not compresses((5, 5, 5), 5)

    def test_plain_path_never_projects(self, monkeypatch):
        """Below the rule, and at max_iters = 1 above it, fit makes no
        ST-HOSVD and marks every record "full"."""

        def refuse(*args):
            raise AssertionError("st_hosvd called")

        monkeypatch.setattr(cpfast.solver, "st_hosvd", refuse)
        _, y = gen_collinear(CollinearSpec((20, 20, 20), 3, 0.5, 40.0, 0))
        assert {rec.stage for rec in fit(y, FitConfig(rank=3)).trace} == {"full"}
        monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        y = DenseTensor(gaussian_instance(0, dims=(12, 10, 9)))
        one = fit(y, FitConfig(rank=3, max_iters=1))
        assert [rec.stage for rec in one.trace] == ["full"]

    @pytest.mark.parametrize(
        "dims,rank,kind,variant",
        [
            ((30, 30, 30), 3, REAL, "auto"),
            ((30, 30, 30), 3, REAL, "als-ls"),
            ((12, 10, 9), 3, COMPLEX, "auto"),
            ((8, 7, 6, 9), 2, REAL, "auto"),
            ((15, 3, 12), 3, REAL, "auto"),  # I_2 = R: mode 2 uncompressed
            ((14, 2, 11), 3, COMPLEX, "auto"),  # I_2 < R
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_ends_within_tol_of_plain_fit(
        self, dims, rank, kind, variant, seed, monkeypatch
    ):
        """Stated bound: on these noisy Gaussian problems the compressed fit
        stops "tol" with |relerr - relerr_plain| <= tol * relerr_plain.
        Its trace is the core fit's records (those of a plain fit of the
        core of Y / ||Y|| with max_iters - 1, marked "core") followed by
        "full" records,
        numbered across both; the returned model reconstructs Y with the
        reported relerr.  The refinement resumes the core's ten-difference
        window, so on these problems ALS-ls refines with one sweep."""
        y = DenseTensor(gaussian_instance(seed, dims=dims, rank=rank, kind=kind))
        config = FitConfig(rank=rank, variant=variant)
        plain = fit(y, config)
        unit = DenseTensor(y.data / cpfast.solver._tensor_norm(y))
        _, core, _ = st_hosvd(unit, rank)
        core_fit = fit(core, replace(config, max_iters=config.max_iters - 1))
        monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        comp = fit(y, config)
        assert plain.stop_reason == comp.stop_reason == "tol"
        assert abs(comp.final_relerr - plain.final_relerr) <= (
            config.tol * plain.final_relerr
        )
        n_core = core_fit.iters
        assert [rec.stage for rec in comp.trace] == (
            ["core"] * n_core + ["full"] * (comp.iters - n_core)
        )
        assert comp.iters > n_core
        if variant == "als-ls":
            assert comp.iters - n_core == 1
        assert [rec.relerr for rec in comp.trace[:n_core]] == [
            rec.relerr for rec in core_fit.trace
        ]
        assert [rec.iter for rec in comp.trace] == list(range(1, comp.iters + 1))
        assert comp.final_relerr == comp.trace[-1].relerr
        assert relative_error(y, comp.model) == pytest.approx(
            comp.final_relerr, rel=1e-9
        )

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize(
        "dims,rank",
        [
            ((9, 8, 7), 3),
            ((9, 2, 7), 3),  # I_2 < R
            ((8, 7, 3), 3),  # I_N = R: the last mode is not compressed
            ((6, 3, 5, 2), 3),  # I_2 = R and I_N < R
        ],
    )
    def test_start_mttkrp_from_lead(self, dims, rank, kind):
        """The expanded start's M^(N), formed from the ST-HOSVD's ``lead``
        and the core model with no pass over Y, equals ``mttkrp`` of the
        start on Y within 1e-12 relative; the start is U_n B^(n), with
        A^(1) times kappa."""
        rng = np.random.default_rng(75)
        y = DenseTensor(gaussian_instance(5, dims=dims, rank=rank, kind=kind))
        bases, core, lead = st_hosvd(y, rank)
        b = random_init(core.dims, rank, rng, kind)
        start, last = cpfast.solver._expanded_start(bases, lead, b, 0.7)
        for n, (u, a) in enumerate(zip(bases, start.factors)):
            np.testing.assert_allclose(a, (0.7 if n == 0 else 1.0) * u @ b.factors[n])
        ref = mttkrp(y, start, len(dims))
        assert np.linalg.norm(last - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_refinement_passes(self, monkeypatch):
        """The ALS-ls refinement of a noisy 30^3 R=3 fit forms no dense
        residual: its start costs no pass over Y (its M^(N) comes from the
        ST-HOSVD), its first sweep (with no previous model to extrapolate
        from) one mode-N MTTKRP, and each later sweep three; and it resumes
        the core's window, so it is shorter than the window.  The
        refinement's calls are those made after the core loop returns, the
        start's included."""
        monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        y = DenseTensor(gaussian_instance(3))
        calls = count_tensor_passes(monkeypatch)
        loop = cpfast.solver._fit_als
        returned = ("loop returned", None)

        def marked(*args, **kwargs):
            result = loop(*args, **kwargs)
            calls.append(returned)
            return result

        monkeypatch.setattr(cpfast.solver, "_fit_als", marked)
        result = fit(y, FitConfig(rank=3, variant="als-ls"))
        assert result.stop_reason == "tol"
        assert result.final_relerr > GRAM_ERROR_GUARD
        assert calls.count(returned) == 2 and calls[-1] == returned
        refine = calls[calls.index(returned) + 1 : -1]
        n_refine = sum(rec.stage == "full" for rec in result.trace)
        assert 1 <= n_refine < cpfast.solver.TOL_WINDOW
        assert set(refine) == {("mttkrp", 3)}
        assert len(refine) <= 1 + 3 * (n_refine - 1)

    def test_flm_refinement_start_passes(self, monkeypatch):
        """The fLM twin of :meth:`test_refinement_passes`: between the core
        loop's return and the refinement loop's entry there is no
        ``mttkrp``, ``reconstruct`` or ``relative_error`` call, so the
        expanded start costs no pass over Y."""
        monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        y = DenseTensor(gaussian_instance(3))
        calls = count_tensor_passes(monkeypatch)
        loop = cpfast.solver._fit_lm
        entered, returned = ("loop entered", None), ("loop returned", None)

        def marked(*args, **kwargs):
            calls.append(entered)
            result = loop(*args, **kwargs)
            calls.append(returned)
            return result

        monkeypatch.setattr(cpfast.solver, "_fit_lm", marked)
        result = fit(y, FitConfig(rank=3))
        assert result.stop_reason == "tol"
        assert result.final_relerr > GRAM_ERROR_GUARD
        assert calls.count(entered) == 2 and calls.count(returned) == 2
        first = calls.index(returned)
        assert calls[first + 1] == entered
        assert ("mttkrp", 3) in calls[first + 2 :]

    @pytest.mark.parametrize("variant", ["auto", "als-ls"])
    @pytest.mark.parametrize("max_iters", [2, 3, 7])
    def test_max_iters_bounds_both_stages(self, variant, max_iters, monkeypatch):
        """The core stage takes at most max_iters - 1 iterations, and the
        two stages together at most max_iters; the last record is "full"."""
        monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        y = DenseTensor(gaussian_instance(2, dims=(12, 10, 9)))
        result = fit(y, FitConfig(rank=3, variant=variant, max_iters=max_iters))
        stages = [rec.stage for rec in result.trace]
        assert result.iters == max_iters and result.stop_reason == "max_iters"
        assert stages[0] == "core" and stages[-1] == "full"
        assert result.final_relerr == result.trace[-1].relerr


class TestModePermutation:
    """Fitting is equivariant under a permutation of the modes."""

    @settings(max_examples=12)
    @given(
        seed=st.integers(0, 3),
        dims=st.sampled_from([(9, 7, 8), (7, 6, 8, 5)]),
        kind=st.sampled_from([REAL, COMPLEX]),
        data=st.data(),
    )
    def test_permuted_fit_reaches_the_same_fit(self, seed, dims, kind, data):
        """Stated bounds, on well-conditioned Gaussian rank-3 problems at 1%
        noise: the fit of the mode-permuted tensor stops "tol" with a final
        relerr within tol * relerr of the plain fit's, its model reconstructs
        the permuted tensor with that relerr, and its reconstruction is the
        plain fit's, permuted, within 1e-6 ||Y||."""
        perm = data.draw(st.permutations(range(len(dims))))
        y = DenseTensor(gaussian_instance(seed, dims=dims, kind=kind))
        y_perm = DenseTensor(np.transpose(y.data, perm))
        config = FitConfig(rank=3)
        plain, permuted = fit(y, config), fit(y_perm, config)
        assert plain.stop_reason == permuted.stop_reason == "tol"
        assert abs(permuted.final_relerr - plain.final_relerr) <= (
            config.tol * plain.final_relerr
        )
        assert relative_error(y_perm, permuted.model) == pytest.approx(
            permuted.final_relerr, rel=1e-9
        )
        expected = np.transpose(reconstruct(plain.model).data, perm)
        gap = np.linalg.norm(reconstruct(permuted.model).data - expected)
        assert gap <= 1e-6 * y.norm()
