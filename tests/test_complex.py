"""Complex-valued pipeline: Wirtinger-consistent gradient, step equivalence
against the dense complex oracle, and agreement with the real path on
real-valued data."""

import numpy as np
import pytest

from cpfast.kruskal import complex_model, gradient, random_init, reconstruct
from cpfast.oracle import dense_damped_solve
from cpfast.solver import FitConfig, fit
from cpfast.synth import CollinearSpec, gen_collinear
from cpfast.tensor import COMPLEX, DenseTensor, as_complex
from cpfast.verify import fd_gradient


def complex_instance(rng, dims, rank, noise=0.1):
    m = random_init(dims, rank, rng, COMPLEX)
    for f in m.factors:
        f /= np.linalg.norm(f, axis=0, keepdims=True)
    e = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return DenseTensor(reconstruct(m).data + noise * e), m


class TestKindChecks:
    def test_promotions(self):
        rng = np.random.default_rng(1)
        y = DenseTensor(rng.standard_normal((3, 4)))
        assert as_complex(y).scalar_kind == COMPLEX
        np.testing.assert_array_equal(as_complex(y).data.real, y.data)
        m = random_init((3, 4), 2, rng)
        mc = complex_model(m)
        assert mc.scalar_kind == COMPLEX


class TestComplexGradient:
    def test_matches_wirtinger_finite_differences(self):
        rng = np.random.default_rng(2)
        y, m = complex_instance(rng, (3, 4, 2), 2)
        g = gradient(y, m)
        fd = fd_gradient(y, m)
        assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-5

    def test_zero_at_exact_fit(self):
        rng = np.random.default_rng(3)
        _, m = complex_instance(rng, (3, 4, 5), 2)
        assert np.abs(gradient(reconstruct(m), m)).max() < 1e-12


class TestComplexStep:
    @pytest.mark.parametrize("mu", [1e-4, 1e-1, 10.0])
    @pytest.mark.parametrize("variant", ["flm-a", "flm-b"])
    def test_equals_dense_complex_dgn(self, mu, variant, damped_step):
        rng = np.random.default_rng(4)
        y, m = complex_instance(rng, (3, 4, 5), 2)
        ref = dense_damped_solve(y, m, mu)
        delta = damped_step(variant, y, m, mu)
        assert np.linalg.norm(delta - ref) / np.linalg.norm(ref) < 1e-8

    def test_embedded_real_data_reproduces_real_path(self, damped_step):
        rng = np.random.default_rng(5)
        m = random_init((3, 4, 5), 2, rng)
        y = DenseTensor(reconstruct(m).data + 0.1 * rng.standard_normal((3, 4, 5)))
        real_delta = damped_step("flm-a", y, m, 0.2)
        complex_delta = damped_step("flm-a", as_complex(y), complex_model(m), 0.2)
        assert np.abs(complex_delta - real_delta).max() < 1e-10


class TestFitComplex:
    def test_converges_on_complex_collinear_data(self):
        spec = CollinearSpec((10, 10, 10), 3, nu=0.7, seed=2, scalar_kind=COMPLEX)
        truth, y = gen_collinear(spec)
        result = fit(y, FitConfig(rank=3, variant="auto", seed=2, max_iters=400))
        assert result.final_relerr < 1e-8
        assert result.stop_reason == "tol"

    def test_trace_monotone_over_accepted(self):
        rng = np.random.default_rng(6)
        y, _ = complex_instance(rng, (8, 8, 8), 2, noise=0.05)
        result = fit(y, FitConfig(rank=2, variant="auto", seed=0, max_iters=150))
        accepted = [rec.relerr for rec in result.trace if rec.accepted]
        assert all(b < a for a, b in zip(accepted, accepted[1:]))


class TestRealDataInComplex:
    """Real data embedded in C gives the real fit: the same stop reason and a
    final relerr within 1e-9 relative.  Rounding can move the iteration at
    which the stop window closes, so iteration counts are not compared."""

    @pytest.mark.parametrize("variant", ["auto", "als-ls"])
    @pytest.mark.parametrize("seed", range(8))
    def test_embedded_fit_matches_real_fit(self, seed, variant):
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(3, 7, size=3))
        rank = int(rng.integers(1, 4))
        clean = reconstruct(random_init(dims, rank, rng)).data
        noise = rng.standard_normal(dims)
        noise *= 0.1 * np.linalg.norm(clean) / np.linalg.norm(noise)
        y = DenseTensor(clean + noise)
        config = FitConfig(rank=rank, variant=variant, seed=seed)
        real, embedded = fit(y, config), fit(as_complex(y), config)
        assert embedded.model.factors[0].dtype == np.complex128
        assert embedded.stop_reason == real.stop_reason
        assert embedded.final_relerr == pytest.approx(real.final_relerr, rel=1e-9)
