"""The fast damped inverse and the dense oracles, against each other and
against finite differences."""

import ast
import inspect
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cpfast.hessian import SingularKernelError, damped_core
import cpfast.hessian
from cpfast.kruskal import (
    KruskalModel,
    build_gram_cache,
    gram_cache,
    gradient,
    model_from_stack,
    model_from_vector,
    random_init,
    reconstruct,
    stack,
)
from cpfast.oracle import (
    OracleSizeError,
    assemble_hessian,
    assemble_phi,
    build_parts,
    dense_damped_solve,
    hessian_block,
    jacobian,
    kernel_block,
    kernel_inverse,
    kernel_is_invertible,
    kernel_matrix,
    phi_density,
)
from cpfast.tensor import COMPLEX, DenseTensor, REAL, vectorize


def unit_model(rng, dims, rank, kind=REAL):
    m = random_init(dims, rank, rng, kind)
    for f in m.factors:
        f /= np.linalg.norm(f, axis=0, keepdims=True)
    return m


def orthonormal_model(rng, dims, rank):
    factors = []
    for d in dims:
        q, _ = np.linalg.qr(rng.standard_normal((d, rank)))
        factors.append(q)
    return KruskalModel(factors)


def apply_to_vector(core, model, vec):
    """(H + mu I)^{-1} ``vec`` for a stacked vector of ``model``'s dims and
    rank, through the stack layout that the core applies to."""
    v = stack(model_from_vector(vec, model.dims, model.rank).factors)
    return model_from_stack(core.apply(v), model.dims).as_vector()


def materialize_inverse(core, model):
    """Dense (H + mu I)^{-1}: the core applied to every unit vector."""
    size = model.rank * sum(model.dims)
    return np.column_stack([apply_to_vector(core, model, e) for e in np.eye(size)])


def jacobian_fd(model, h=1e-7):
    """Central-difference Jacobian of vec(reconstruct) w.r.t. factor vector."""
    base = model.as_vector()
    cols = []
    for k in range(base.size):
        e = np.zeros_like(base)
        e[k] = h
        plus = vectorize(reconstruct(model_from_vector(base + e, model.dims, model.rank)))
        minus = vectorize(reconstruct(model_from_vector(base - e, model.dims, model.rank)))
        cols.append((plus - minus) / (2 * h))
    return np.stack(cols, axis=1)


class TestJacobianHessian:
    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_jacobian_matches_finite_differences(self, kind):
        rng = np.random.default_rng(0)
        m = unit_model(rng, (2, 3, 4), 2, kind)
        j = jacobian(m)
        fd = jacobian_fd(m)
        assert np.abs(j - fd).max() < 1e-6

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("dims,rank", [((3, 4), 2), ((2, 3, 4), 3), ((2, 2, 3, 2), 1)])
    def test_hessian_equals_gram_of_jacobian(self, kind, dims, rank):
        rng = np.random.default_rng(1)
        m = unit_model(rng, dims, rank, kind)
        j = jacobian(m)
        h = assemble_hessian(m)
        ref = j.conj().T @ j
        assert np.linalg.norm(h - ref) / np.linalg.norm(ref) < 1e-12

    def test_hessian_block_indexing(self):
        rng = np.random.default_rng(2)
        m = unit_model(rng, (3, 4, 2), 2)
        cache = build_gram_cache(m)
        full = assemble_hessian(m, cache)
        r = m.rank
        offs = np.cumsum([0] + [d * r for d in m.dims])
        for n in range(1, 4):
            for mm in range(1, 4):
                np.testing.assert_allclose(
                    hessian_block(cache, m.factors, n, mm),
                    full[offs[n - 1] : offs[n], offs[mm - 1] : offs[mm]],
                )

    def test_size_guard(self):
        m = KruskalModel([np.ones((100, 60))] * 3)
        with pytest.raises(OracleSizeError):
            jacobian(m)
        with pytest.raises(OracleSizeError):
            assemble_hessian(m)


class TestLowRankParts:
    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_decomposition_identity(self, kind):
        rng = np.random.default_rng(3)
        m = unit_model(rng, (3, 2, 4), 3, kind)
        cache = build_gram_cache(m)
        parts = build_parts(cache, m.factors)
        h = assemble_hessian(m, cache)
        rebuilt = parts.G + parts.Z @ parts.K @ parts.Z.conj().T
        assert np.linalg.norm(h - rebuilt) / np.linalg.norm(h) < 1e-13

    def test_kernel_diagonal_blocks_vanish(self):
        rng = np.random.default_rng(4)
        cache = build_gram_cache(unit_model(rng, (3, 3, 3), 2))
        for n in range(1, 4):
            assert np.all(kernel_block(cache, n, n) == 0)


class TestKernelInverse:
    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("dims,rank", [((3, 4), 2), ((3, 4, 5), 3), ((2, 3, 2, 3), 2)])
    def test_closed_form_inverse(self, kind, dims, rank):
        rng = np.random.default_rng(5)
        cache = build_gram_cache(unit_model(rng, dims, rank, kind))
        k = kernel_matrix(cache)
        ktilde = kernel_inverse(cache)
        eye = np.eye(k.shape[0])
        assert np.linalg.norm(k @ ktilde - eye) < 1e-10
        assert np.linalg.norm(ktilde @ k - eye) < 1e-10

    def test_orthonormal_factors_flagged_singular(self):
        rng = np.random.default_rng(6)
        cache = build_gram_cache(orthonormal_model(rng, (6, 6, 6), 3))
        assert not kernel_is_invertible(cache)
        with pytest.raises(SingularKernelError):
            kernel_inverse(cache)

    def test_generic_factors_flagged_invertible(self):
        rng = np.random.default_rng(7)
        cache = build_gram_cache(unit_model(rng, (4, 4, 4), 2))
        assert kernel_is_invertible(cache)


class TestFastInverse:
    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("mu", [1e-6, 1e-2, 1.0, 1e3])
    def test_matches_dense_inverse(self, kind, mu):
        rng = np.random.default_rng(8)
        m = unit_model(rng, (3, 4, 2), 2, kind)
        cache = build_gram_cache(m)
        h = assemble_hessian(m, cache)
        dense = np.linalg.inv(h + mu * np.eye(h.shape[0]))
        mat = materialize_inverse(damped_core(stack(m.factors), cache, mu), m)
        assert np.linalg.norm(mat - dense) / np.linalg.norm(dense) < 1e-8

    def test_real_core_applies_to_complex_stack(self):
        """A real model's core, whose ``?getrs`` is fetched for its own
        type, applied to a complex stack gives apply(Re v) + i apply(Im v)
        (to 1e-12 relative): the solve promotes instead of dropping Im v."""
        rng = np.random.default_rng(12)
        m = unit_model(rng, (3, 4, 5), 2)
        x = stack(m.factors)
        core = damped_core(x, build_gram_cache(m), 0.1)
        v = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        ref = core.apply(v.real) + 1j * core.apply(v.imag)
        assert np.linalg.norm(core.apply(v) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_storage_count(self):
        """The core stores N R^2 + N^2 R^4 scalars of its own and keeps the
        model's stack it is given, not a copy."""
        rng = np.random.default_rng(9)
        for dims, rank in [((3, 4, 5), 2), ((2, 3, 2, 3), 3)]:
            m = unit_model(rng, dims, rank)
            x = stack(m.factors)
            core = damped_core(x, build_gram_cache(m), 0.5)
            n, r = m.order, m.rank
            assert core.gtilde.size + core.lu.size == n * r**2 + n**2 * r**4
            assert core.x is x

    def test_zero_pivot_raises_singular(self):
        """N = 2, R = 1 with C = (-1, 1/2) and mu = 1/2 gives the flm-a core
        [[1, -1], [1/2, -1/2]], whose LU meets an exact zero pivot."""
        cache = gram_cache(np.array([[[-1.0]], [[0.5]]]))
        with pytest.raises(SingularKernelError, match="singular"):
            damped_core(np.zeros((0, 1, 0)), cache, 0.5)

    def test_singular_damped_gram_raises(self):
        """N = 2, R = 1 with C = (1/2, -1/2) and mu = 1/2: D_1 = C^(2) + mu
        is exactly 0, while the core [[0, 1/2], [-1/2, 1]] is not singular.
        The damped Gram inverse raises ``LinAlgError("Singular matrix")``, as
        ``np.linalg.inv`` does, with no warning and no NaN core."""
        cache = gram_cache(np.array([[[0.5]], [[-0.5]]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix") as info:
                damped_core(np.zeros((0, 1, 0)), cache, 0.5)
        assert not isinstance(info.value, SingularKernelError)

    def test_illegal_argument_raises_linalg_error(self, monkeypatch):
        lapack = cpfast.hessian._lapack

        def bad_getrf(name, dtype):
            routine = lapack(name, dtype)
            if name != "getrf":
                return routine
            return lambda a, **kwargs: (*routine(a, **kwargs)[:2], -1)

        monkeypatch.setattr(cpfast.hessian, "_lapack", bad_getrf)
        rng = np.random.default_rng(14)
        m = unit_model(rng, (3, 3, 3), 2)
        with pytest.raises(np.linalg.LinAlgError, match="argument 1") as info:
            damped_core(stack(m.factors), build_gram_cache(m), 0.5)
        assert not isinstance(info.value, SingularKernelError)

    def test_rejects_nonpositive_mu(self):
        rng = np.random.default_rng(10)
        m = unit_model(rng, (3, 3), 2)
        with pytest.raises(ValueError):
            damped_core(stack(m.factors), build_gram_cache(m), 0.0)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_structured_applications(self, kind):
        """(H + mu I)^{-1} v against a dense solve, also on padded stacks
        (I_n = 1 and I_n < R, orders 3 and 4)."""
        rng = np.random.default_rng(11)
        mu = 0.3
        for dims, rank in [((3, 4, 2), 2), ((2, 1, 4), 3), ((1, 3, 2, 4), 3)]:
            m = unit_model(rng, dims, rank, kind)
            cache = build_gram_cache(m)
            h = assemble_hessian(m, cache)
            v = rng.standard_normal(h.shape[0])
            if kind == COMPLEX:
                v = v + 1j * rng.standard_normal(h.shape[0])
            iv = apply_to_vector(damped_core(stack(m.factors), cache, mu), m, v)
            expected = np.linalg.solve(h + mu * np.eye(h.shape[0]), v)
            np.testing.assert_allclose(iv, expected, atol=1e-9)


class TestDenseSolve:
    def test_solves_damped_system(self):
        rng = np.random.default_rng(12)
        m = unit_model(rng, (3, 4, 5), 2)
        y = DenseTensor(reconstruct(m).data + 0.1 * rng.standard_normal((3, 4, 5)))
        mu = 0.7
        delta = dense_damped_solve(y, m, mu)
        h = assemble_hessian(m)
        g = gradient(y, m)
        np.testing.assert_allclose((h + mu * np.eye(h.shape[0])) @ delta, g, atol=1e-10)


class TestPhiDensity:
    @pytest.mark.parametrize(
        "n_modes,rank,variant,expected",
        [
            (3, 2, "phi1", Fraction(9, 12)),
            (3, 2, "phi2", Fraction(6, 12)),
            (4, 3, "phi1", Fraction(28, 36)),
            (4, 3, "phi2", Fraction(12, 36)),
            (5, 3, "phi1", Fraction(37, 45)),
            (5, 3, "phi2", Fraction(13, 45)),
        ],
    )
    def test_exact_fractions(self, n_modes, rank, variant, expected):
        assert phi_density(n_modes, rank, variant) == expected

    @pytest.mark.parametrize("n_modes,rank", [(3, 2), (4, 3)])
    @pytest.mark.parametrize("variant", ["phi1", "phi2"])
    def test_assembled_nonzero_count(self, n_modes, rank, variant):
        rng = np.random.default_rng(13)
        m = unit_model(rng, (rank + 2,) * n_modes, rank)
        cache = build_gram_cache(m)
        phi = assemble_phi(cache, 0.5, variant)
        nnz = np.count_nonzero(np.abs(phi) > 1e-13 * np.abs(phi).max())
        total = (n_modes * rank**2) ** 2
        assert Fraction(nnz, total) == phi_density(n_modes, rank, variant)


class TestModuleBoundary:
    ORACLE_NAMES = {
        "oracle",
        "jacobian",
        "kernel_matrix",
        "kernel_inverse",
        "assemble_hessian",
        "dense_damped_solve",
        "commutation",
    }

    def test_fast_path_holds_no_oracle(self):
        """The dense references live in cpfast.oracle alone: the fast-path
        module neither defines nor imports any of them."""
        bound = set(vars(cpfast.hessian))
        for node in ast.walk(ast.parse(inspect.getsource(cpfast.hessian))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {alias.name.split(".")[-1] for alias in node.names}
            if isinstance(node, ast.ImportFrom) and node.module:
                bound.add(node.module.split(".")[-1])
        assert not self.ORACLE_NAMES & bound
