"""Damped Gauss-Newton iteration: step pieces against dense oracles, damping
schedule arithmetic, and full-fit behavior."""

import gc
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
    random_init,
    reconstruct,
    relative_error,
    second_order_term,
    st_hosvd,
    stack,
)
from cpfast.solver import (
    ACCEL_MAX_RATIO,
    FitConfig,
    FitResult,
    GRAM_ERROR_GUARD,
    MU_OVERFLOW,
    _expanded_start,
    _fit_unit,
    _scaled_start,
    _start,
    _tensor_norm,
    fit,
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


def handed_start(y, config):
    """The start that the front end (``_fit_unit``) hands the loop of a
    plain fit of ``y``: its model, its mode-N MTTKRP and its name.  The
    stand-in loop only records them."""
    handed = []

    def loop(y, config, t0, start, last, **kwargs):
        handed.append((start, last))
        return FitResult(start, [], "max_iters")

    start = _fit_unit(loop, y, config, 0.0).start
    return *handed[0], start


def keep_plain(monkeypatch):
    """Route every fit through the plain path.  The noisy 30^3 R=3
    instances (ratio 1000) compress by default, and the tests that call
    this check plain-fit behaviour on them."""
    monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", math.inf)


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
        core = damped_core(stack(m.factors), build_gram_cache(m), 0.1)
        F = core.solve(np.zeros(3 * 4))
        assert all(np.all(f == 0) for f in F)

    @pytest.mark.parametrize("variant,use_kinv", [("flm-a", False), ("flm-b", True)])
    def test_dense_oracle(self, variant, use_kinv):
        rng = np.random.default_rng(6)
        m = unit_model(rng, (3, 4, 5), 2)
        cache = build_gram_cache(m)
        w = rng.standard_normal(12)
        mu = 0.1
        F = damped_core(stack(m.factors), cache, mu).solve(w)
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
            F = damped_core(stack(m.factors), cache, mu).solve(w)
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


# The stop tests that end an fLM fit on an accepted step's difference alone,
# with no gradient formed for the model returned.
DIFFERENCE_RULES = ("window", "core")


def count_tensor_passes(monkeypatch, dims=None) -> list:
    """Record the name of each pass over a tensor at the seam that every
    pass goes through: the mode-N kernel ``_last_mttkrp``, the partial
    product ``_last_partial`` and the dense residuals ``_residual_norms``.
    A batched call is recorded once per batch element: a ``_last_mttkrp``
    of B Khatri-Rao products, or ``_residual_norms`` of B stacks, is B
    passes.  Each kernel is replaced wherever it is bound, in
    ``cpfast.kruskal`` and ``cpfast.solver``.  With ``dims``, only passes
    over a tensor of those dims are recorded."""
    calls = []
    # Each kernel's second argument, with the number of its trailing axes
    # that one pass reads; any leading axes are batch axes.
    kernels = (("_last_mttkrp", 2), ("_last_partial", 2), ("_residual_norms", 3))
    for name, core in kernels:
        original = getattr(cpfast.kruskal, name)

        def counted(y, arg, _original=original, _name=name, _core=core):
            if dims is None or y.dims == tuple(dims):
                calls.extend([_name] * math.prod(arg.shape[:-_core]))
            return _original(y, arg)

        for module in (cpfast.kruskal, cpfast.solver):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
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
    def test_step_matches_dense_and_follows_mode_order(self, damped_step, problem):
        """The fast step equals the dense dGN step, and permuting the modes
        of (y, model) permutes the step's blocks the same way."""
        y, m, mu, perm = problem
        delta = damped_step("flm-a", y, m, mu)
        assert rel(delta - dense_damped_solve(y, m, mu), delta) < 1e-8
        ends = np.cumsum([f.size for f in m.factors])[:-1]
        blocks = np.split(delta, ends)
        permuted = KruskalModel([m.factors[p] for p in perm])
        y_p = DenseTensor(np.transpose(y.data, perm))
        delta_p = damped_step("flm-a", y_p, permuted, mu)
        expected = np.concatenate([blocks[p] for p in perm])
        assert rel(delta_p - expected, delta) < 1e-8

    @pytest.mark.parametrize("dims", [(4, 5, 6), (3, 4, 3, 2)])
    @pytest.mark.parametrize("variant", ["auto"])
    def test_one_core_factorization_per_step(self, dims, variant, monkeypatch):
        """One fit iteration: the damped Gram inverses come from one batched
        inverse (``cpfast.hessian._batched_inv``, never ``np.linalg.inv``),
        and the core is factored once (``?getrf``) and solved twice
        (``?getrs``), for the step and for its geodesic acceleration.  The
        fit takes ``init="random"``, which makes none of these calls (the
        GEVD start's are ``np.linalg.solve``)."""
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
            (cpfast.hessian, "_batched_inv"),
            (np.linalg, "inv"),
            (np.linalg, "solve"),
            (scipy.linalg, "lu_factor"),
            (scipy.linalg, "lu_solve"),
        ]:
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        fit(y, FitConfig(rank=2, variant=variant, max_iters=1, init="random"))
        assert sorted(calls) == ["_batched_inv", "getrf", "getrs", "getrs"]

    @pytest.mark.parametrize("nu", [0.05, 0.3])
    def test_matches_extended_precision_oracle(self, nu, damped_step):
        """Down to mu = 1e-9 on collinear factors, the fast step is as close to
        a 40-digit solve as the dense float64 solve is (within 10x), or 1e-8.

        Both float64 solves take the same right-hand side, the fast
        :func:`gradient`, so this compares the solves alone.  At nu = 0.3 and
        mu = 1e-9 the oracle's Jacobian-projected residual, 5e-15 from that
        gradient, gives a dense step 1e-5 from the 40-digit one, and the
        gradient gives one 4e-4 from it."""
        mpmath = pytest.importorskip("mpmath")
        truth, y = gen_collinear(CollinearSpec((4, 4, 4), 3, nu, None, 1))
        rng = np.random.default_rng(24)
        model = KruskalModel(
            [3.0 * f + 0.05 * rng.standard_normal(f.shape) for f in truth.factors]
        )
        y = DenseTensor(27.0 * y.data + 0.01 * rng.standard_normal(y.dims))
        g = gradient(y, model)
        mus = (1e-9, 1e-8, 1e-6, 1e-4, 1e-1)
        for mu, exact in zip(mus, mp_oracle_steps(mpmath, y, model, mus)):
            scale = np.linalg.norm(exact)
            ref = np.linalg.solve(damped_hessian(model, mu), g)
            dense = np.linalg.norm(ref - exact) / scale
            fast = np.linalg.norm(damped_step("flm-a", y, model, mu) - exact) / scale
            assert fast <= max(10.0 * dense, 1e-8), (mu, fast, dense)

    def test_exact_fit_leaves_factors(self, damped_step):
        rng = np.random.default_rng(9)
        m = unit_model(rng, (3, 4, 5), 2)
        y = reconstruct(m)
        assert np.abs(damped_step("flm-a", y, m, 0.1)).max() < 1e-10

    def test_heavy_damping_freezes_factors(self, damped_step):
        rng = np.random.default_rng(10)
        y, m = noisy_instance(rng, (3, 4, 5), 2)
        step = damped_step("flm-a", y, m, 1e12)
        rel = np.linalg.norm(step) / np.linalg.norm(m.as_vector())
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
        mu, growth = nielsen_update(1.0, 8.0, rho=1.0)
        assert np.isclose(mu, 1.0 / 3.0)
        assert growth == 2.0

    def test_nielsen_neutral_rho(self):
        mu, _ = nielsen_update(1.0, 2.0, rho=0.5)
        assert np.isclose(mu, 1.0)

    def test_nielsen_rejection_doubles_growth(self):
        mu, growth = nielsen_update(1.0, 2.0, rho=-1.0)
        assert mu == 2.0 and growth == 4.0
        mu, growth = nielsen_update(mu, growth, rho=-1.0)
        assert mu == 8.0 and growth == 8.0

    @pytest.mark.parametrize("rho", [-1e6, -1.0, 0.0, 0.3, 1.0, 1e6])
    def test_mu_stays_positive(self, rho):
        mu, _ = nielsen_update(1e-5, 2.0, rho)
        assert mu > 0


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

        monkeypatch.setattr(cpfast.solver, "st_hosvd", no_init)
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
        monkeypatch.setattr(cpfast.solver, "_fit_unit", no_call)
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

        monkeypatch.setattr(cpfast.solver, "st_hosvd", no_init)
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
        through ``_candidate_error``, in batches, and each of those stays zero
        there too over five sweeps."""
        y, _ = noisy_instance(np.random.default_rng(33), (9, 7, 8), 3, kind, 0.05)
        seen = []
        flm_step = cpfast.solver.flm_step

        def recorded(x, cache, g, mu):
            v, step, ratio = flm_step(x, cache, g, mu)
            seen.extend((x, g, v, step))
            return v, step, ratio

        monkeypatch.setattr(cpfast.solver, "flm_step", recorded)
        result = fit(y, FitConfig(rank=3, max_iters=5))
        assert result.iters == len(seen) // 4 == 5 and result.accepted_iters >= 1
        candidate_error = cpfast.solver._candidate_error

        def scored(y, err, xs, *args, **kwargs):
            seen.extend(xs)
            return candidate_error(y, err, xs, *args, **kwargs)

        monkeypatch.setattr(cpfast.solver, "_candidate_error", scored)
        result = fit(y, FitConfig(rank=3, variant="als-ls", max_iters=5))
        # The start, one swept stack per sweep and two extrapolations from
        # the second.
        assert result.iters == 5 and len(seen) == 4 * 5 + 1 + 5 + 2 * 4
        for a in seen:
            assert a.shape == (3, 3, 9)
            for n, d in enumerate(y.dims):
                assert not a[n, :, d:].any()

    @staticmethod
    def _calls_per_iteration(variant):
        """Python-level calls and calls of C functions (``sys.setprofile``
        "call" and "c_call" events) per iteration on the noiseless 20^3,
        R=3, nu=0.1 swamp fit from the SVD start (the caller takes
        ``svd_start``: from the GEVD start the fit ends at 10 iterations),
        over iterations 11 to 40: the count for a budget of 40 minus that
        for 10 (a fit with a smaller budget is a prefix of the same run),
        over 30.  A count, not a timing.  The
        cyclic garbage collector is off while a fit is counted: a collection
        runs whenever earlier allocations make it due, and its callbacks
        (Hypothesis registers one) and finalizers are not the fit's calls."""
        _, y = gen_collinear(CollinearSpec((20, 20, 20), 3, 0.1, None, 0))
        fit(y, FitConfig(rank=3, variant=variant, max_iters=3))
        counts = []
        for budget in (10, 40):
            events = [0]

            def profile(frame, event, arg):
                if event in ("call", "c_call"):
                    events[0] += 1

            config = FitConfig(rank=3, variant=variant, max_iters=budget)
            gc_enabled = gc.isenabled()
            gc.disable()
            sys.setprofile(profile)
            try:
                result = fit(y, config)
            finally:
                sys.setprofile(None)
                if gc_enabled:
                    gc.enable()
            assert result.iters == budget
            counts.append(events[0])
        return (counts[1] - counts[0]) / 30

    def test_calls_per_iteration(self, svd_start):
        """fLM calls per iteration (see ``_calls_per_iteration``): 80.27
        measured (NumPy 2.4.6, Python 3.11)."""
        assert self._calls_per_iteration("auto") <= 80.3

    @pytest.mark.parametrize(
        "variant,bound", [("als", 41.0), ("als-ls", 53.4)], ids=["als", "als-ls"]
    )
    def test_als_calls_per_iteration(self, variant, bound, svd_start):
        """ALS and ALS-ls calls per iteration (see ``_calls_per_iteration``):
        41.0 and 53.33 measured (NumPy 2.4.6, Python 3.11)."""
        assert self._calls_per_iteration(variant) <= bound

    @pytest.mark.parametrize("variant", ["auto", "als", "als-ls"])
    @pytest.mark.parametrize("compressed", [False, True])
    def test_elapsed_s_counts_from_fit_start(self, variant, compressed, monkeypatch):
        """Each record's ``elapsed_s`` is positive and never decreases, across
        both stages of a compressed fit, and the last is at most the fit's
        ``time_ms`` / 1e3, read from the same clock.  No timing bound."""
        if compressed:
            monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        y = DenseTensor(gaussian_instance(5, dims=(12, 10, 9)))
        result = fit(y, FitConfig(rank=3, variant=variant, max_iters=30))
        elapsed = [rec.elapsed_s for rec in result.trace]
        assert ("core" in [rec.stage for rec in result.trace]) == compressed
        assert elapsed[0] > 0
        assert all(a <= b for a, b in zip(elapsed, elapsed[1:]))
        assert elapsed[-1] <= result.time_ms / 1e3

    @pytest.mark.parametrize("variant", ["auto", "als", "als-ls"])
    def test_models_built_do_not_grow_with_iterations(
        self, variant, monkeypatch, svd_start
    ):
        """Both loops run on stacks alone: a fit builds its
        :class:`KruskalModel` objects at its boundary only, as many with a
        budget of 40 iterations as with 10 on the noiseless 20^3, R=3,
        nu=0.1 swamp fit from the SVD start (from the GEVD start it ends at
        10).  Each model is counted by its ``__post_init__``."""
        _, y = gen_collinear(CollinearSpec((20, 20, 20), 3, 0.1, None, 0))
        built = [0]
        post_init = KruskalModel.__post_init__

        def counted(model):
            built[0] += 1
            post_init(model)

        monkeypatch.setattr(KruskalModel, "__post_init__", counted)
        counts = []
        for budget in (10, 40):
            built[0] = 0
            result = fit(y, FitConfig(rank=3, variant=variant, max_iters=budget))
            assert result.iters == budget
            counts.append(built[0])
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("kind, seed", [(REAL, 0), (COMPLEX, 1)])
    def test_error_guard_crossing_keeps_dense_trajectory(
        self, kind, seed, monkeypatch, svd_start
    ):
        """Noiseless swamp fits from the SVD start pass from the Gram-identity
        error to the dense one, reach relerr <= 1e-12 and take as many
        iterations as a fit that scores every candidate densely.  (The GEVD
        start is below the guard before the first step.)"""
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

        def overflowing(y, err, xs, *args, **kwargs):
            return [math.inf] * len(xs), (None,) * len(xs), "gram"

        monkeypatch.setattr(cpfast.solver, "_candidate_error", overflowing)
        result = fit(y, FitConfig(rank=3))
        assert result.stop_reason == "nonfinite"
        assert (result.iters, result.accepted_iters) == (1, 0)
        assert np.isnan(result.trace[-1].rho)
        record = record_from_result(result, None, 0, 0.3, 3, None, "auto")
        assert (record.stop_reason, record.error) == ("nonfinite", None)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_grad_norm_is_at_model_after_iteration(self, kind, k, svd_start):
        """The recorded ||g|| is that of the model an iteration ends on: the
        start after each of the first three (rejected) steps, the accepted
        candidate after the fourth, from the SVD start."""
        rng = np.random.default_rng(40)
        y, _ = noisy_instance(rng, (5, 6, 7), 3, kind, noise=0.1)
        result = fit(y, FitConfig(rank=3, max_iters=k, tol=0.0))
        assert [r.accepted for r in result.trace] == [False, False, False, True][:k]
        assert result.trace[-1].grad_norm == pytest.approx(
            unit_gradient_norm(y, result.model), rel=1e-10
        )

    def test_trace_records_gradient_and_step_norms(self):
        """Every fLM record holds finite, positive norms, except that the
        accepted record that ends the fit on a difference rule has no
        gradient (NaN); ALS records hold none."""
        rng = np.random.default_rng(28)
        y, _ = noisy_instance(rng, (6, 6, 6), 2, noise=0.1)
        lm = fit(y, FitConfig(rank=2, max_iters=40))
        assert lm.stop_test in DIFFERENCE_RULES and lm.trace[-1].accepted
        assert np.isnan(lm.trace[-1].grad_norm)
        for rec in lm.trace:
            if rec is not lm.trace[-1]:
                assert 0 < rec.grad_norm < np.inf
            assert 0 < rec.step_norm < np.inf and 0 <= rec.accel_ratio < np.inf
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

    def test_complex_on_real_data_matches_real_step(self, damped_step):
        rng = np.random.default_rng(18)
        y, m = noisy_instance(rng, (3, 4, 5), 2)
        yc = DenseTensor(y.data.astype(complex))
        mc = m.copy()
        mc = type(m)([f.astype(complex) for f in mc.factors])
        real_step = damped_step("flm-a", y, m, 0.1)
        complex_step = damped_step("flm-a", yc, mc, 0.1)
        assert np.abs(complex_step - real_step).max() < 1e-10
        assert np.abs(complex_step.imag).max() < 1e-10


class TestGradientStop:
    """Besides the ten-difference window, an fLM fit stops "tol" once ||g|| <=
    tol * relerr at its current model."""

    def test_noisy_fit_stops_on_converging_step(self, monkeypatch):
        keep_plain(monkeypatch)
        y = DenseTensor(gaussian_instance(0))
        config = FitConfig(rank=3)
        result = fit(y, config)
        last = result.trace[-1]
        assert result.stop_reason == "tol" and last.accepted
        assert result.stop_test == "gradient"
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
        records) or, for fLM, ||g|| <= tol * relerr at the final model, and
        ``stop_test`` names the test that holds: "gradient" whenever the
        gradient test holds at a final model whose gradient the fit formed
        (an accepted step that ends the fit on the window forms none).  Any
        other stop has no ``stop_test``."""
        y, _ = noisy_instance(np.random.default_rng(seed), dims, rank, kind, noise)
        config = FitConfig(rank=rank, variant=variant, max_iters=200, seed=seed)
        result = fit(y, config)
        if result.stop_reason != "tol":
            assert result.stop_test is None
            return
        last = result.trace[-1]
        assert math.isfinite(last.relerr)
        errs = [r.relerr for r in result.trace]
        diffs = [abs(a - b) for a, b in zip(errs, errs[1:])][-10:]
        window = len(errs) >= 10 and all(d < config.tol for d in diffs)
        stationary = variant == "auto" and last.grad_norm <= config.tol * last.relerr
        assert result.stop_test == ("gradient" if stationary else "window")
        assert window or stationary

    @pytest.mark.parametrize(
        "case,expected",
        [
            ("noiseless-flm", "window"),
            ("noisy-flm", "gradient"),
            ("noisy-als-ls", "window"),
            ("max-iters", None),
            ("compressed-flm", "core"),
        ],
    )
    def test_stop_test_names_the_rule(self, case, expected, monkeypatch, request):
        """The noiseless 20^3, R=3, nu=0.1 swamp fit stops on the window (g
        shrinks with the residual), as does ALS-ls on the noisy Gaussian
        instance; a fit that runs out of iterations has no stop test, and a
        compressed fit reports its refinement's: after a core stage that
        stopped on the gradient test, "core", on the refinement's first
        accepted step whose difference is below tol, a step whose model's
        gradient is not formed.  The noisy fLM fit stops on the gradient
        test (``test_noisy_fit_stops_on_converging_step``).  An fLM record's
        ``grad_norm`` is NaN exactly where it is the accepted last record of
        a fit that a difference rule ended."""
        keep_plain(monkeypatch)
        y = DenseTensor(gaussian_instance(0))
        config = FitConfig(rank=3)
        if case == "noiseless-flm":
            _, y = gen_collinear(CollinearSpec((20, 20, 20), 3, 0.1, None, 0))
        elif case == "noisy-als-ls":
            config = FitConfig(rank=3, variant="als-ls")
        elif case == "max-iters":
            # From the SVD start: from the GEVD start this fit stops "tol"
            # on its third step.
            request.getfixturevalue("svd_start")
            config = FitConfig(rank=3, max_iters=3)
        elif case == "compressed-flm":
            monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        result = fit(y, config)
        assert result.stop_test == expected
        assert result.stop_reason == ("max_iters" if expected is None else "tol")
        last = result.trace[-1]
        if config.variant == "auto":
            ended = last.accepted and expected in DIFFERENCE_RULES
            assert [np.isnan(rec.grad_norm) for rec in result.trace] == (
                [False] * (result.iters - 1) + [ended]
            )
        if case == "compressed-flm":
            assert result.trace[0].stage == "core" and last.stage == "full"
            assert last.accepted and np.isnan(last.grad_norm)
            # The refinement's window counts from zero, so its last
            # difference is below tol.
            assert result.below >= 1


class TestGeodesicAcceleration:
    """The step is v + a/2 while 2 ||a|| / ||v|| <= ACCEL_MAX_RATIO, else v,
    with v = (H + mu I)^{-1} g and a = -(H + mu I)^{-1} J^H M''(v, v); the
    gain ratio keeps v's Gauss-Newton prediction."""

    @pytest.mark.parametrize("tau,accelerated", [(1e-3, False), (1.0, True)])
    def test_first_record_describes_step_taken(self, tau, accelerated, svd_start):
        """The first record's ratio, step norm, error and gain ratio are those
        of the step rebuilt from the scaled SVD start: accelerated at tau =
        1, plain at the default tau, where the ratio is 1.2."""
        y = DenseTensor(gaussian_instance(0))
        config = FitConfig(rank=3, tau=tau, max_iters=1)
        rec = fit(y, config).trace[0]
        unit = DenseTensor(y.data / y.norm())
        x, cache, _, err = _scaled_start(unit, *svd_start(unit, config), unit.norm)
        model = model_from_stack(x, unit.dims)
        mu = mu_init(cache, tau)
        g = gradient(unit, model, cache)
        g = stack(model_from_vector(g, model.dims, model.rank).factors)
        core = damped_core(x, cache, mu)
        v = core.apply(g)
        a = -core.apply(second_order_term(x, cache, v))
        ratio = 2.0 * np.linalg.norm(a) / np.linalg.norm(v)
        assert (ratio <= ACCEL_MAX_RATIO) == accelerated
        step = v + 0.5 * a if accelerated else v
        cand = relative_error(unit, model_from_stack(x + step, unit.dims))
        assert rec.accepted
        assert rec.accel_ratio == pytest.approx(ratio, rel=1e-9)
        assert rec.step_norm == pytest.approx(np.linalg.norm(step), rel=1e-9)
        assert rec.relerr == pytest.approx(cand, rel=1e-9)
        predicted = np.vdot(v, g + mu * v).real
        assert rec.rho == pytest.approx((err**2 - cand**2) / predicted, rel=1e-6)

    @pytest.mark.parametrize(
        "dims,rank,kind", [((8, 8, 8), 3, REAL), ((5, 4, 6), 2, COMPLEX)]
    )
    def test_dgn_oracle_takes_the_same_steps(
        self, dims, rank, kind, monkeypatch, svd_start
    ):
        """A fit whose solves use the dense H + mu I of :mod:`cpfast.oracle`
        in place of the core takes the same steps: the same accept decisions,
        ratios and errors while the error is above its final value.  The loop
        applies the core to stacks, so the dense solve goes through the
        stacked vector of each.  Both fits take the SVD start: from the GEVD
        start the real case's last three ratios before the floor differ by
        1.2e-6 to 2.7e-5, near convergence, where the ratio is dominated by
        rounding, with every accept decision and error the same."""
        y, _ = noisy_instance(np.random.default_rng(16), dims, rank, kind, 0.05)
        config = FitConfig(rank=rank)
        fast = fit(y, config)

        def dense_core(x, cache, mu):
            h = damped_hessian(model_from_stack(x, dims), mu, cache)

            def apply(v):
                w = np.linalg.solve(h, model_from_stack(v, dims).as_vector())
                return stack(model_from_vector(w, dims, rank).factors)

            return SimpleNamespace(apply=apply)

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
        step_of = cpfast.solver.flm_step

        def recording_step(x, cache, g, mu):
            v, step, ratio = step_of(x, cache, g, mu)
            arrays = {"x": x, "g": g, "v": v, "step": step}
            seen.append({"mu": mu, **{k: a.copy() for k, a in arrays.items()}})
            return v, step, ratio

        monkeypatch.setattr(cpfast.solver, "flm_step", recording_step)
        y, _ = noisy_instance(np.random.default_rng(16), dims, rank, kind, 0.05)
        result = fit(y, FitConfig(rank=rank))
        assert result.stop_reason == "tol"
        assert len(seen) == result.iters
        accelerated = 0
        for rec in seen:
            model = model_from_stack(rec["x"], dims)
            h = damped_hessian(model, rec["mu"])
            g, v, step = (
                model_from_stack(rec[k], dims).as_vector() for k in ("g", "v", "step")
            )
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
    def test_noisy_fit_does_not_depend_on_scale(self, seed, monkeypatch):
        """30^3, R=3 Gaussian factors at 1% noise, times 1 and 1e3: the same
        stop reason and relerr, and the same accept decisions and errors while
        the error is above its final value (so the same first accepted step:
        iteration 1 at seed 0, 4 at seed 1).  At the final value, whether a
        candidate lowers the error turns on the last bits."""
        keep_plain(monkeypatch)
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
        mode-N pass (the SVD init's), which also serves the first
        gradient, whose partial product is the start's only other pass;
        the first candidate, rejected, costs one more."""
        rng = np.random.default_rng(25)
        y, _ = noisy_instance(rng, dims, 3, noise=0.3)
        calls = count_tensor_passes(monkeypatch)
        flm_step = cpfast.solver.flm_step

        def marked(*args):
            calls.append("step")
            return flm_step(*args)

        monkeypatch.setattr(cpfast.solver, "flm_step", marked)
        result = fit(y, FitConfig(rank=3, max_iters=1))
        assert result.final_relerr > GRAM_ERROR_GUARD
        assert not result.trace[0].accepted
        assert calls == ["_last_mttkrp", "_last_partial", "step", "_last_mttkrp"]


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
        nothing and makes four passes: the sweep's partial product and
        mode-N pass, and one mode-N pass per extrapolated candidate; below
        it, the sweep's two passes and one dense residual for each of the
        three candidates.  A fit with a smaller budget is a prefix of the same
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
        sweep = ["_last_partial", "_last_mttkrp"]
        if above:
            assert calls == sweep + ["_last_mttkrp"] * 2
        else:
            assert calls == sweep + ["_residual_norms"] * 3

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


class TestCandidateError:
    """``_candidate_error``, the one scorer of both fit loops, on batches of
    candidate stacks."""

    @staticmethod
    def batch(kind, dims, size):
        """A unit-norm noisy tensor and ``size`` stacks near its model (zero
        past column I_n), at relative errors of about 0.05 to 0.3."""
        rng = np.random.default_rng(90 + len(dims))
        y, m = noisy_instance(rng, dims, 3, kind, noise=0.05)
        ynorm = y.norm()
        unit = DenseTensor(y.data / ynorm)
        x = stack([m.factors[0] / ynorm] + m.factors[1:])
        shifts = [stack(random_init(dims, 3, rng, kind).factors) for _ in range(size)]
        xs = np.stack([x + 0.05 * k * s for k, s in enumerate(shifts)])
        return unit, xs

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("err, scorer", [(1.0, "gram"), (0.0, "dense")])
    @pytest.mark.parametrize("dims", [(5, 6, 7), (4, 3, 5, 2)])
    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_batch_scores_as_alone(self, kind, dims, err, scorer, size):
        """Each candidate of a batch of 1-3 stacks gets, compared with ==,
        the error and mode-N MTTKRP that it gets scored alone, whether the
        first candidate's MTTKRP, Gram stack or both are passed in or formed
        by the scorer, on both sides of ``GRAM_ERROR_GUARD``; the errors
        agree with the dense ``relative_error`` to 1e-10 relative."""
        assert (err >= GRAM_ERROR_GUARD) == (scorer == "gram")
        y, xs = self.batch(kind, dims, size)
        score = cpfast.solver._candidate_error
        norm = y.norm
        alone = [score(y, err, xs[k : k + 1], norm) for k in range(size)]
        last = mttkrp(y, model_from_stack(xs[0], dims), len(dims))
        grams = gram_stack(xs[0])
        given = ({}, {"last": last}, {"grams": grams}, {"last": last, "grams": grams})
        for kwargs in given:
            errs, lasts, path = score(y, err, xs, norm, **kwargs)
            assert path == scorer and len(errs) == len(lasts) == size
            assert errs == [a[0][0] for a in alone]
            for got, (_, ref, _) in zip(lasts, alone):
                if scorer == "gram":
                    assert (got == ref[0]).all()
                else:
                    assert got is None and ref[0] is None
        for x, e in zip(xs, errs):
            dense = relative_error(y, model_from_stack(x, dims))
            assert 0.01 < dense < 1.0
            assert e == pytest.approx(dense, rel=1e-10)

    def test_flm_trace_records_scorer(self, monkeypatch, svd_start):
        """A noiseless 20^3 nu=0.1 fLM fit records "gram" and then "dense",
        each record the path that the error before it picks; the noisy 30^3
        fit records "decrease" on the step that converges; an ALS-ls fit
        records its candidates' path too.  All from the SVD start, so each
        path is taken."""
        keep_plain(monkeypatch)
        _, y = gen_collinear(CollinearSpec((20, 20, 20), 3, 0.1, None, 0))
        trace = fit(y, FitConfig(rank=3)).trace
        scorers = [rec.scorer for rec in trace]
        assert scorers[0] == "gram" and scorers[-1] == "dense"
        for before, rec in zip(trace, trace[1:]):
            dense = before.relerr < GRAM_ERROR_GUARD
            assert (rec.scorer == "dense") == dense
        als = fit(y, FitConfig(rank=3, variant="als-ls", max_iters=20)).trace
        assert {rec.scorer for rec in als} == {"gram"}
        y = DenseTensor(gaussian_instance(0))
        trace = fit(y, FitConfig(rank=3)).trace
        assert trace[-1].scorer == "decrease"
        assert trace[-1].relerr > GRAM_ERROR_GUARD


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

    @staticmethod
    def record_st_hosvd(monkeypatch) -> list:
        """The dims of the tensor of every ``st_hosvd`` call, in order."""
        calls = []
        original = cpfast.solver.st_hosvd

        def counted(y, rank):
            calls.append(y.dims)
            return original(y, rank)

        monkeypatch.setattr(cpfast.solver, "st_hosvd", counted)
        return calls

    def test_plain_path_never_projects(self, monkeypatch):
        """Below the rule, and at max_iters = 1 above it, fit has no core
        stage: it marks every record "full", and its one ST-HOSVD is the
        start's, of the tensor fitted."""
        calls = self.record_st_hosvd(monkeypatch)
        _, y = gen_collinear(CollinearSpec((20, 20, 20), 3, 0.5, 40.0, 0))
        result = fit(y, FitConfig(rank=3))
        assert {rec.stage for rec in result.trace} == {"full"}
        assert (calls, result.start) == ([y.dims], "gevd")
        monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        calls.clear()
        y = DenseTensor(gaussian_instance(0, dims=(12, 10, 9)))
        one = fit(y, FitConfig(rank=3, max_iters=1))
        assert [rec.stage for rec in one.trace] == ["full"]
        assert (calls, one.start) == ([y.dims], "gevd")

    @pytest.mark.parametrize(
        "dims,rank,init,compressed,runs",
        [
            ((30, 30, 30, 30), 3, "svd", True, 1),  # order 4
            ((30, 30, 30, 30), 3, "random", True, 1),
            ((6, 6, 40), 6, "svd", False, 1),  # R x R x K
            ((9, 7), 2, "svd", False, 1),  # order 2
            ((20, 20, 20), 3, "svd", False, 1),
            ((20, 20, 20), 3, "random", False, 1),
        ],
    )
    def test_one_st_hosvd_per_fit(
        self, dims, rank, init, compressed, runs, monkeypatch
    ):
        """Every fit runs ``st_hosvd`` once, on Y / ||Y||, whatever the
        init, the order or the shape, and whether it compresses or not."""
        calls = self.record_st_hosvd(monkeypatch)
        y = DenseTensor(gaussian_instance(0, dims=dims, rank=rank))
        result = fit(y, FitConfig(rank=rank, init=init, max_iters=20))
        assert ("core" in {rec.stage for rec in result.trace}) == compressed
        assert calls == [dims] * runs

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
        Its trace is the core fit's records followed by "full" records,
        numbered across both; the returned model reconstructs Y with the
        reported relerr.  The core records are those of the variant's loop
        on G / ||G||, G the core of Y / ||Y||, from its start
        (``_start``) with max_iters - 1, marked "core": the loop alone for
        ALS-ls, and for fLM with the gradient test scaled by the error on Y,
        through ``lost_sq`` = (1 - kappa^2) / kappa^2, kappa = ||G||.  The
        refinement resumes the core's ten-difference window, so on these
        problems ALS-ls refines with one sweep."""
        y = DenseTensor(gaussian_instance(seed, dims=dims, rank=rank, kind=kind))
        config = FitConfig(rank=rank, variant=variant)
        plain = fit(y, config)
        unit = DenseTensor(y.data / cpfast.solver._tensor_norm(y))
        _, core, _ = st_hosvd(unit, rank)
        budget = replace(config, max_iters=config.max_iters - 1)
        kappa = _tensor_norm(core)
        core = DenseTensor(core.data / kappa)
        model = _start(core, config)[0]
        start = model, mttkrp(core, model, core.order)
        if variant == "auto":
            core_fit = cpfast.solver._fit_lm(
                core, budget, 0.0, *start, lost_sq=(1.0 - kappa**2) / kappa**2
            )
        else:
            core_fit = cpfast.solver._fit_als(core, budget, 0.0, *start)
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

    @staticmethod
    def record_lm_stages(monkeypatch) -> list:
        """The results of every ``_fit_lm`` call, in order: a compressed
        fit's core stage, then its refinement."""
        results = []
        loop = cpfast.solver._fit_lm

        def recorded(*args, **kwargs):
            results.append(loop(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cpfast.solver, "_fit_lm", recorded)
        return results

    @pytest.mark.parametrize(
        "dims,rank,kind",
        [
            ((30, 30, 30), 3, REAL),
            ((12, 10, 9), 3, COMPLEX),
            ((8, 7, 6, 9), 2, REAL),
            ((8, 7, 6, 9), 2, COMPLEX),
            ((15, 3, 12), 3, REAL),  # I_2 = R: mode 2 uncompressed
            ((14, 2, 11), 3, COMPLEX),  # I_2 < R
        ],
    )
    def test_core_gradient_stop_is_stationary_on_y(
        self, dims, rank, kind, monkeypatch
    ):
        """The fLM core stage's gradient test is on Y's scale.  On these
        problems at 30% noise its core stage stops "gradient"; at the
        expanded start A^(n) = kappa^(1/N) U_n B^(n) (equal mode norms) the
        in-subspace gradient U_n^H g_Y is kappa^(2 - 1/N) times the core's
        g_G (to 1e-4 relative) and meets tol * e_Y, and so does it at the
        refinement's own start, the expanded model scaled by its
        least-squares weight."""
        monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        stages = self.record_lm_stages(monkeypatch)
        y = DenseTensor(
            gaussian_instance(2, noise=0.3, dims=dims, rank=rank, kind=kind)
        )
        config = FitConfig(rank=rank)
        fit(y, config)
        core_stage = stages[0]
        assert core_stage.stop_test == "gradient"
        unit = DenseTensor(y.data / cpfast.solver._tensor_norm(y))
        bases, core, lead = st_hosvd(unit, rank)
        kappa = cpfast.solver._tensor_norm(core)
        b = core_stage.model
        g_core = np.linalg.norm(gradient(DenseTensor(core.data / kappa), b))

        def in_subspace(model):
            g = model_from_vector(gradient(unit, model), model.dims, rank)
            blocks = [u.conj().T @ gn for u, gn in zip(bases, g.factors)]
            return math.sqrt(sum(np.linalg.norm(blk) ** 2 for blk in blocks))

        order = len(dims)
        scale = kappa ** (1.0 / order)
        expanded = KruskalModel([scale * u @ f for u, f in zip(bases, b.factors)])
        g_sub = in_subspace(expanded)
        assert g_sub == pytest.approx(kappa ** (2 - 1 / order) * g_core, rel=1e-4)
        assert g_sub <= config.tol * relative_error(unit, expanded)
        start = cpfast.solver._expanded_start(bases, lead, b, kappa)
        x, _, _, err = _scaled_start(unit, *start, unit.norm)
        assert in_subspace(model_from_stack(x, unit.dims)) <= config.tol * err

    @pytest.mark.parametrize("carried", [False, True])
    def test_rejected_first_step_does_not_end_refinement(
        self, carried, monkeypatch
    ):
        """After a core stage that stopped "gradient", the refinement's first
        candidate is forced to be rejected (its step reversed, so its gain
        ratio is negative); the fit still takes an accepted step on Y, or
        stops on the gradient test.  With ``carried``, the core stage
        reports a trailing run of ``TOL_WINDOW`` - 1 small differences: a
        refinement that resumed that window would end on the rejection and
        return its unrefined start."""
        monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        stages = self.record_lm_stages(monkeypatch)
        if carried:
            loop = cpfast.solver._fit_lm

            def carrying(*args, **kwargs):
                result = loop(*args, **kwargs)
                if len(stages) == 1:
                    result.below = cpfast.solver.TOL_WINDOW - 1
                return result

            monkeypatch.setattr(cpfast.solver, "_fit_lm", carrying)
        y = DenseTensor(gaussian_instance(0))
        step = cpfast.solver.flm_step
        reversed_steps = []

        def first_reversed(x, cache, g, mu):
            v, taken, ratio = step(x, cache, g, mu)
            if x.shape[-1] == max(y.dims) and not reversed_steps:
                reversed_steps.append(taken)
                taken = -taken
            return v, taken, ratio

        monkeypatch.setattr(cpfast.solver, "flm_step", first_reversed)
        result = fit(y, FitConfig(rank=3))
        assert stages[0].stop_test == "gradient" and reversed_steps
        refine = [rec for rec in result.trace if rec.stage == "full"]
        assert not refine[0].accepted
        assert result.stop_reason == "tol"
        assert any(rec.accepted for rec in refine) or result.stop_test == "gradient"
        assert result.stop_test in ("core", "gradient")

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
        from) two passes, and each later sweep four; and it resumes
        the core's window, so it is shorter than the window.  The
        refinement's calls are those made after the core loop returns, the
        start's included."""
        monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        y = DenseTensor(gaussian_instance(3))
        calls = count_tensor_passes(monkeypatch)
        loop = cpfast.solver._fit_als
        returned = "loop returned"

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
        assert set(refine) == {"_last_partial", "_last_mttkrp"}
        assert len(refine) <= 2 + 4 * (n_refine - 1)

    def test_flm_refinement_start_passes(self, monkeypatch):
        """The fLM twin of :meth:`test_refinement_passes`: between the core
        loop's return and the refinement loop's entry no pass is counted,
        so the expanded start costs no pass over Y."""
        monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        y = DenseTensor(gaussian_instance(3))
        calls = count_tensor_passes(monkeypatch)
        loop = cpfast.solver._fit_lm
        entered, returned = "loop entered", "loop returned"

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
        assert "_last_mttkrp" in calls[first + 2 :]

    @pytest.mark.parametrize("variant", ["auto", "als-ls"])
    @pytest.mark.parametrize("max_iters", [2, 3, 7])
    def test_max_iters_bounds_both_stages(self, variant, max_iters, monkeypatch):
        """The core stage takes at most max_iters - 1 iterations, and the
        two stages together at most max_iters; the last record is "full".
        At tol = 0 no stop test can end the fit before its budget."""
        monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        y = DenseTensor(gaussian_instance(2, dims=(12, 10, 9)))
        config = FitConfig(rank=3, variant=variant, max_iters=max_iters, tol=0.0)
        result = fit(y, config)
        stages = [rec.stage for rec in result.trace]
        assert result.iters == max_iters and result.stop_reason == "max_iters"
        assert stages[0] == "core" and stages[-1] == "full"
        assert result.final_relerr == result.trace[-1].relerr


class TestGevdStart:
    """``init="svd"`` starts from Y's ST-HOSVD core: from the GEVD of two
    slice mixtures (:func:`~cpfast.kruskal.gevd_init`, modes 3..N merged and
    split back) where the core has order >= 3 and its first two dims are R,
    else from the core's SVD start, expanded to Y (:func:`_fit_unit`).
    ``FitResult.start`` says which start ran."""

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("dims", [(4, 4, 7), (5, 5, 2)])
    def test_start_alone_reconstructs_noiseless_tensor(self, dims, kind):
        """Stated bound: on a noiseless rank-R R x R x K tensor with Gaussian
        factors, the start that a fit hands its loop is the GEVD start of
        the ST-HOSVD core and reconstructs the tensor to relerr <= 1e-12 with
        no iteration, and its MTTKRP is the start's mode-3 MTTKRP."""
        rng = np.random.default_rng(3)
        y = reconstruct(random_init(dims, dims[0], rng, kind))
        model, last, start = handed_start(y, FitConfig(rank=dims[0]))
        assert start == "gevd"
        assert relative_error(y, model) <= 1e-12
        np.testing.assert_allclose(last, mttkrp(y, model, 3), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize(
        "dims,rank",
        [((9, 8, 7), 3), ((7, 6, 5, 4), 3), ((6, 5, 4, 4, 3), 3), ((4, 4, 4, 4), 4)],
    )
    def test_core_start_alone_reconstructs_noiseless_tensor(self, dims, rank, kind):
        """Stated bound: on a noiseless rank-R tensor of order 3, 4 or 5 with
        Gaussian factors, the GEVD start of its ST-HOSVD core, mapped back
        to Y, reconstructs Y to relerr <= 1e-12, and its mode-N MTTKRP,
        which costs no pass over Y, equals ``mttkrp`` to 1e-12 relative."""
        rng = np.random.default_rng(7)
        y = reconstruct(random_init(dims, rank, rng, kind))
        model, last, start = handed_start(y, FitConfig(rank=rank))
        assert start == "gevd"
        assert relative_error(y, model) <= 1e-12
        direct = mttkrp(y, model, y.order)
        assert np.linalg.norm(last - direct) <= 1e-12 * np.linalg.norm(direct)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize(
        "dims,rank,nu", [((20, 20, 20), 3, 0.1), ((12, 12, 12, 12), 4, 0.5)]
    )
    def test_start_alone_reconstructs_noiseless_swamp(self, dims, rank, nu, kind):
        """Stated bound: the plain ``swamp-small`` shapes, noiseless (20^3
        R=3 at nu = 0.1 and 12^4 R=4), are reconstructed to relerr <= 1e-12
        by their start alone, real and complex."""
        _, y = gen_collinear(CollinearSpec(dims, rank, nu, None, 0, kind))
        model, last, start = handed_start(y, FitConfig(rank=rank))
        assert start == "gevd"
        assert relative_error(y, model) <= 1e-12
        direct = mttkrp(y, model, y.order)
        assert np.linalg.norm(last - direct) <= 1e-12 * np.linalg.norm(direct)

    def test_start_alone_recovers_noiseless_swamp_core(self):
        """Stated bound: the compressed core of a noiseless 20^3 swamp
        tensor (nu = 0.1, R = 3) is reconstructed to relerr <= 1e-12 by its
        GEVD start alone."""
        _, y = gen_collinear(CollinearSpec((20, 20, 20), 3, 0.1, None, 0))
        _, core, _ = st_hosvd(DenseTensor(y.data / y.norm()), 3)
        model, start = _start(core, FitConfig(rank=3))
        assert start == "gevd"
        assert relative_error(core, model) <= 1e-12

    @staticmethod
    def assert_svd_start(y, config):
        """The handed start is the SVD start of the ST-HOSVD core over its
        norm, expanded to Y, bit for bit, and says "svd", as does the fit."""
        model, last, start = handed_start(y, config)
        bases, core, lead = st_hosvd(y, config.rank)
        kappa = _tensor_norm(core)
        core_start = cpfast.kruskal.svd_init(
            DenseTensor(core.data / kappa), config.rank,
            np.random.default_rng([config.seed, 0]),
        )
        svd_model, svd_last = _expanded_start(bases, lead, core_start, kappa)
        assert start == "svd"
        for f, g in zip(model.factors, svd_model.factors):
            assert f.tobytes() == g.tobytes()
        assert last.tobytes() == svd_last.tobytes()
        assert fit(y, config).start == "svd"

    def test_complex_pair_falls_back_to_svd_start(self):
        """The real 2 x 2 x 2 tensor with slices [[0, -1], [1, 0]] and I: any
        real mixture pencil has the eigenvalues of a Moebius map of +-i, a
        complex pair, so no real GEVD start exists.  The fallback is the SVD
        start of its core bit for bit, and the fit says "svd"."""
        data = np.stack([[[0.0, -1.0], [1.0, 0.0]], np.eye(2)], axis=-1)
        y = DenseTensor(data)
        assert cpfast.kruskal.gevd_init(y, np.random.default_rng(0)) is None
        self.assert_svd_start(y, FitConfig(rank=2))

    def test_order_4_complex_pair_falls_back_to_svd_start(self):
        """A real 5 x 4 x 3 x 3 tensor whose every (mode-3, mode-4) slice is
        U_1 (alpha J + beta I) U_2^T, J = [[0, -1], [1, 0]], with orthonormal
        U_1, U_2: its ST-HOSVD core at R = 2 keeps that form, so the merged
        core's real pencils have a complex eigenvalue pair.  No GEVD start
        exists, and the fallback is the SVD start of the core bit for bit."""
        rng = np.random.default_rng(9)
        alpha, beta = rng.standard_normal((2, 3, 3))
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        slices = j[:, :, None, None] * alpha + np.eye(2)[:, :, None, None] * beta
        u1 = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        u2 = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        y = DenseTensor(np.einsum("ia,jb,abkl->ijkl", u1, u2, slices))
        config = FitConfig(rank=2)
        _, core, _ = st_hosvd(y, 2)
        assert core.dims == (2, 2, 2, 2)
        assert cpfast.kruskal.gevd_init(core, np.random.default_rng(0)) is None
        self.assert_svd_start(y, config)

    def test_singular_solve_falls_back(self):
        """A zero first row makes every slice mixture singular (an exact
        zero pivot), of the tensor and of its ST-HOSVD core, so the builder
        returns None and the start is "svd"."""
        data = np.random.default_rng(4).standard_normal((3, 3, 4))
        data[0] = 0.0
        y = DenseTensor(data)
        assert cpfast.kruskal.gevd_init(y, np.random.default_rng(0)) is None
        assert handed_start(y, FitConfig(rank=3))[2] == "svd"

    def test_rank_above_first_dims_takes_svd_start(self, monkeypatch):
        """With I_1 < R or I_2 < R there is no R x R core to take the GEVD
        of: the builder is not called and the start is "svd"."""

        def refuse(*args):
            raise AssertionError("gevd_init called")

        monkeypatch.setattr(cpfast.solver, "gevd_init", refuse)
        y = DenseTensor(gaussian_instance(0, dims=(6, 2, 5), rank=3))
        assert handed_start(y, FitConfig(rank=3))[2] == "svd"

    @pytest.mark.parametrize(
        "dims,rank,kind,variant,expected",
        [
            ((30, 30, 30), 3, REAL, "auto", "gevd"),
            ((30, 30, 30), 3, REAL, "als-ls", "gevd"),
            ((12, 10, 9), 3, COMPLEX, "auto", "gevd"),
            ((14, 2, 11), 3, COMPLEX, "auto", "svd"),  # core I_2 = 2 < R
            ((8, 7, 6, 9), 2, REAL, "auto", "gevd"),  # order 4
        ],
    )
    def test_compressed_fit_reports_its_core_start(
        self, dims, rank, kind, variant, expected, monkeypatch
    ):
        """A compressed fit's ``start`` is its core stage's: the GEVD start
        for a core with I_1 = I_2 = R, of order 3 or 4, whichever the
        variant, and the SVD start for a core with I_2 < R."""
        monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        y = DenseTensor(gaussian_instance(0, dims=dims, rank=rank, kind=kind))
        result = fit(y, FitConfig(rank=rank, variant=variant))
        assert result.trace[0].stage == "core"
        assert result.start == expected

    @pytest.mark.parametrize("variant", ["auto", "als-ls"])
    def test_random_init_reports_random(self, variant, monkeypatch):
        """``init="random"`` never builds the GEVD start, also on a
        qualifying core."""

        def refuse(*args):
            raise AssertionError("gevd_init called")

        monkeypatch.setattr(cpfast.solver, "gevd_init", refuse)
        monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        y = DenseTensor(gaussian_instance(0))
        assert fit(y, FitConfig(rank=3, variant=variant, init="random")).start == (
            "random"
        )

    @pytest.mark.parametrize("variant", ["auto", "als-ls", "als"])
    def test_swamp_shapes_build_it(self, variant, monkeypatch):
        """Plain 20^3 R=3 and 12^4 R=4 fits, the ``swamp-small`` shapes,
        stay plain and start from the GEVD of their ST-HOSVD core, R x R x R
        and R x R x R x R.  Every variant takes the same start."""
        cores = []
        original = cpfast.solver.gevd_init

        def recorded(y, rng):
            cores.append(y.dims)
            return original(y, rng)

        monkeypatch.setattr(cpfast.solver, "gevd_init", recorded)
        for dims, rank in (((20, 20, 20), 3), ((12, 12, 12, 12), 4)):
            _, y = gen_collinear(CollinearSpec(dims, rank, 0.5, 40.0, 0))
            result = fit(y, FitConfig(rank=rank, variant=variant))
            assert result.start == "gevd"
            assert {rec.stage for rec in result.trace} == {"full"}
        assert cores == [(3, 3, 3), (4, 4, 4, 4)]

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_same_seed_same_start(self, kind):
        """The start is a function of the tensor and the seed: two builds
        with one seed are equal bit for bit, and another seed mixes the
        slices of the ST-HOSVD core with other weights, on an order-3 (4 x 4
        x 6, R=4) and an order-4 (9 x 8 x 7 x 6, R=3) tensor."""
        for dims, rank in (((4, 4, 6), 4), ((9, 8, 7, 6), 3)):
            y = DenseTensor(gaussian_instance(1, dims=dims, rank=rank, kind=kind))
            first, again, other = (
                handed_start(y, FitConfig(rank=rank, seed=seed)) for seed in (5, 5, 6)
            )
            assert first[2] == again[2] == other[2] == "gevd"
            for f, g in zip(first[0].factors, again[0].factors):
                assert f.tobytes() == g.tobytes()
            assert first[1].tobytes() == again[1].tobytes()
            assert first[0].factors[1].tobytes() != other[0].factors[1].tobytes()


class TestOneStartPath:
    """Every fit starts from a model of Y's ST-HOSVD core, whatever its
    init, and both loops take their start through ``_scaled_start``."""

    @pytest.mark.parametrize("variant", ["auto", "als", "als-ls"])
    @pytest.mark.parametrize("compressed", [False, True])
    def test_each_loop_enters_through_scaled_start(
        self, variant, compressed, monkeypatch
    ):
        """A plain fit of the noisy 30^3 R=3 instance calls
        ``_scaled_start`` once, on Y / ||Y||; the same fit compressed calls
        it once on its 3 x 3 x 3 core, then once on Y / ||Y||."""
        calls = []
        original = cpfast.solver._scaled_start

        def recorded(y, *args):
            calls.append(y.dims)
            return original(y, *args)

        monkeypatch.setattr(cpfast.solver, "_scaled_start", recorded)
        if compressed:
            monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
        else:
            keep_plain(monkeypatch)
        y = DenseTensor(gaussian_instance(0))
        result = fit(y, FitConfig(rank=3, variant=variant))
        assert ("core" in {rec.stage for rec in result.trace}) == compressed
        assert calls == [(3, 3, 3)] * compressed + [y.dims]

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("dims,rank", [((20, 20, 20), 3), ((9, 7), 2)])
    def test_random_start_is_a_model_of_the_core(
        self, dims, rank, kind, monkeypatch
    ):
        """A plain ``init="random"`` fit runs ``st_hosvd`` once, on Y /
        ||Y||, and starts from Gaussian factors of its core, expanded: each
        factor of the start lies in the span of its mode's basis U_n,
        ||U_n U_n^H A^(n) - A^(n)|| <= 1e-12 ||A^(n)||.  The start and its
        mode-N MTTKRP, which the handed one matches to 1e-12, cost no pass
        over Y."""
        y = DenseTensor(gaussian_instance(0, dims=dims, rank=rank, kind=kind))
        unit = DenseTensor(y.data / _tensor_norm(y))
        calls = TestCompression.record_st_hosvd(monkeypatch)
        passes = count_tensor_passes(monkeypatch, dims)
        model, last, start = handed_start(unit, FitConfig(rank=rank, init="random"))
        assert (calls, passes, start) == ([dims], [], "random")
        bases, _, _ = st_hosvd(unit, rank)
        for u, a in zip(bases, model.factors):
            assert np.linalg.norm(u @ (u.conj().T @ a) - a) <= (
                1e-12 * np.linalg.norm(a)
            )
        np.testing.assert_allclose(
            last, mttkrp(unit, model, unit.order), rtol=1e-12, atol=0
        )


class TestPassBudget:
    """Every pass over Y that a fit makes, counted at the seam
    (``count_tensor_passes``), is the one that the README's "Cost per
    iteration" budgets, derived from the fit's trace and start error."""

    @staticmethod
    def budget(variant, records, errs, init, returned=False):
        """The seam calls that the budget gives one loop on Y, whose records
        are ``records`` and whose error before each record is ``errs``
        (``errs[0]`` the start's): ``init`` (the passes of a start of Y
        that a fixture hands the loop; none for every start that the front
        end builds from Y's ST-HOSVD core, GEVD, SVD or random, or for a
        refinement start), a dense residual for a start below
        ``GRAM_ERROR_GUARD``, fLM's first gradient's partial product, then
        per record, from the error before it:

        - fLM above the guard: one mode-N pass per candidate, scored by the
          Gram identity or by its decrease alike, and the partial product
          for an accepted one; below it: one dense residual per candidate,
          and both passes of its gradient for an accepted one.  With
          ``returned``, a difference rule ended the fit on its last record,
          so that record's model, returned, has no gradient;
        - ALS-ls: the sweep's two passes, then, above the guard, one mode-N
          pass per extrapolated candidate (the swept one is scored free),
          and below it one dense residual per candidate.  The loop's first
          sweep has no previous model, so no extrapolated candidates.
        """
        calls = list(init)
        if errs[0] < GRAM_ERROR_GUARD:
            calls.append("_residual_norms")
        if variant == "auto":
            calls.append("_last_partial")
        for t, (err, rec) in enumerate(zip(errs, records)):
            above = err >= GRAM_ERROR_GUARD
            if variant == "auto":
                gradient = rec.accepted and not (returned and rec is records[-1])
                if above:
                    calls += ["_last_mttkrp"] + ["_last_partial"] * gradient
                else:
                    calls += ["_residual_norms"]
                    calls += ["_last_mttkrp", "_last_partial"] * gradient
            else:
                extrapolated = 0 if t == 0 else 2
                calls += ["_last_partial", "_last_mttkrp"]
                if above:
                    calls += ["_last_mttkrp"] * extrapolated
                else:
                    calls += ["_residual_norms"] * (1 + extrapolated)
        return calls

    @pytest.mark.parametrize(
        "case",
        [
            "flm", "flm-random", "flm-svd", "noisy-flm", "als-ls", "als-ls-random",
            "compressed-flm",
        ],
    )
    def test_passes_match_budget(self, case, monkeypatch, request):
        """A noiseless 8^3 swamp fLM fit from Gaussian factors of Y, handed
        to the loop by ``random_start`` at one pass over Y, and a noiseless
        (12, 10, 9) ALS-ls fit from the random start of Y's ST-HOSVD core,
        which costs none, cross the guard, with accepted and rejected fLM
        candidates, and extrapolated ALS-ls candidates, on each side of it,
        and the fLM fit ends on the window with no gradient for its
        returned model.  From the default start, the GEVD of Y's ST-HOSVD
        core, which costs no pass over Y, both fits start below the guard,
        exact.  Where the GEVD start does not exist, the fLM fit starts from
        the core's SVD start, also at no pass over Y, and crosses the guard.
        A noisy 30^3 fLM fit from that start scores its last
        candidate by its decrease and ends on the gradient test; the same
        fit compressed refines with one step and ends "core", again with no
        gradient for the model it returns.  Passes over the core are not
        passes over Y."""
        variant = "als-ls" if case.startswith("als-ls") else "auto"
        init = "random" if case.endswith("random") else "svd"
        start = {"random": "random", "svd": "svd"}.get(case.split("-")[-1], "gevd")
        if start == "svd":
            # The GEVD start's documented fallback: the core's SVD start.
            monkeypatch.setattr(cpfast.solver, "gevd_init", lambda *args: None)
        if case == "flm-random":
            request.getfixturevalue("random_start")
        if case.startswith("flm"):
            _, y = gen_collinear(CollinearSpec((8, 8, 8), 3, 0.3, None, 0))
        elif case.startswith("als-ls"):
            y = DenseTensor(gaussian_instance(0, noise=0.0, dims=(12, 10, 9)))
        else:
            if case == "compressed-flm":
                monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
            else:
                keep_plain(monkeypatch)
            y = DenseTensor(gaussian_instance(0))
        calls = count_tensor_passes(monkeypatch, y.dims)
        start_errs, decreases = [], []
        for name, seen in [
            ("_scaled_start", start_errs),
            ("residual_decrease", decreases),
        ]:
            original = getattr(cpfast.solver, name)

            def recorded(t, *args, _original=original, _seen=seen):
                out = _original(t, *args)
                if t.dims == y.dims:
                    _seen.append(out)
                return out

            monkeypatch.setattr(cpfast.solver, name, recorded)
        result = fit(y, FitConfig(rank=3, variant=variant, seed=1, init=init))
        assert result.stop_reason == "tol"
        # _scaled_start returns the start's error last.
        ((*_, start_err),) = start_errs
        records = [rec for rec in result.trace if rec.stage == "full"]
        errs = [start_err] + [rec.relerr for rec in records[:-1]]
        assert result.start == start
        passes = ["_last_mttkrp"] if case == "flm-random" else []
        returned = records[-1].accepted and result.stop_test in DIFFERENCE_RULES
        assert calls == self.budget(variant, records, errs, passes, returned)
        # fLM: (above the guard, accepted); ALS-ls: (above, extrapolated).
        kinds = {
            (err >= GRAM_ERROR_GUARD, rec.accepted if variant == "auto" else t > 0)
            for t, (err, rec) in enumerate(zip(errs, records))
        }
        if case == "flm-random":
            assert kinds == {(True, True), (True, False), (False, True), (False, False)}
            assert (result.stop_test, returned) == ("window", True)
        elif case == "als-ls-random":
            assert {(True, True), (False, True)} <= kinds
        elif case == "flm-svd":
            assert start_err >= GRAM_ERROR_GUARD
            assert {(True, True), (False, True)} <= kinds
        elif case in ("flm", "als-ls"):
            assert start_err < GRAM_ERROR_GUARD
            assert result.stop_test == "window"
        elif case == "noisy-flm":
            assert result.stop_test == "gradient" and decreases
        else:
            assert len(records) < result.iters
            assert (result.stop_test, returned) == ("core", True)


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
